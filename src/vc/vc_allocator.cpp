#include "vc/vc_allocator.hpp"

#include "vc/vc_max_allocator.hpp"
#include "vc/vc_separable_allocator.hpp"
#include "vc/vc_wavefront_allocator.hpp"

namespace nocalloc {

void VcAllocator::reserve_adapter() {
  if (!adapter_req_.empty()) return;
  adapter_req_.resize(total());
  for (VcRequest& r : adapter_req_) r.vc_mask.assign(vcs_, 0);
  adapter_grant_.assign(total(), -1);
}

void VcAllocator::allocate_via_vectors(const FastVcRequest* req, std::size_t n,
                                       std::vector<int>& grant) {
  reserve_adapter();
  for (std::size_t k = 0; k < n; ++k) {
    VcRequest& r = adapter_req_[req[k].input];
    r.valid = true;
    r.out_port = static_cast<int>(req[k].out_port);
    for (std::size_t v = 0; v < vcs_; ++v) {
      r.vc_mask[v] = static_cast<std::uint8_t>((req[k].vc_mask >> v) & 1);
    }
  }
  allocate(adapter_req_, adapter_grant_);
  // Every granted entry is copied, not only requested ones, so a grant
  // without a request stays visible to the router's invariant checker.
  for (std::size_t i = 0; i < adapter_grant_.size(); ++i) {
    if (adapter_grant_[i] >= 0) grant[i] = adapter_grant_[i];
  }
  for (std::size_t k = 0; k < n; ++k) adapter_req_[req[k].input].valid = false;
}

void VcAllocator::prepare(const std::vector<VcRequest>& req,
                          std::vector<int>& grant) const {
  NOCALLOC_CHECK(req.size() == total());
  for (const VcRequest& r : req) {
    if (!r.valid) continue;
    NOCALLOC_CHECK(r.out_port >= 0 &&
                   static_cast<std::size_t>(r.out_port) < ports_);
    NOCALLOC_CHECK(r.vc_mask.size() == vcs_);
  }
  grant.assign(total(), -1);
}

void VcAllocator::expand_requests(const std::vector<VcRequest>& req,
                                  BitMatrix& out) const {
  out.resize(total(), total());
  for (std::size_t i = 0; i < total(); ++i) {
    const VcRequest& r = req[i];
    if (!r.valid) continue;
    const std::size_t base = static_cast<std::size_t>(r.out_port) * vcs_;
    for (std::size_t v = 0; v < vcs_; ++v) {
      if (r.vc_mask[v]) out.set(i, base + v);
    }
  }
}

std::unique_ptr<VcAllocator> make_vc_allocator(const VcAllocatorConfig& cfg) {
  NOCALLOC_CHECK(cfg.ports > 0);
  switch (cfg.kind) {
    case AllocatorKind::kSeparableInputFirst:
      return std::make_unique<VcSeparableInputFirstAllocator>(
          cfg.ports, cfg.partition.total_vcs(), cfg.arb);
    case AllocatorKind::kSeparableOutputFirst:
      return std::make_unique<VcSeparableOutputFirstAllocator>(
          cfg.ports, cfg.partition.total_vcs(), cfg.arb);
    case AllocatorKind::kWavefront:
      return std::make_unique<VcWavefrontAllocator>(cfg.ports, cfg.partition,
                                                    cfg.sparse);
    case AllocatorKind::kMaximumSize:
      return std::make_unique<VcMaxSizeAllocator>(cfg.ports,
                                                  cfg.partition.total_vcs());
  }
  NOCALLOC_CHECK(false);
}

}  // namespace nocalloc
