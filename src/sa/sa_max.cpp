#include "sa/sa_max.hpp"

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void SaMaxSize::allocate(const std::vector<SwitchRequest>& req,
                         std::vector<SwitchGrant>& grant) {
  prepare(req, grant);

  port_requests(req, ports_req_);
  MaxSizeAllocator::max_matching(ports_req_, ports_gnt_, reference_path_);

  for (std::size_t p = 0; p < ports(); ++p) {
    const int o = ports_gnt_.row_single(p);
    if (o < 0) continue;
    for (std::size_t v = 0; v < vcs(); ++v) {
      const SwitchRequest& r = req[p * vcs() + v];
      if (r.valid && r.out_port == o) {
        grant[p] = {static_cast<int>(v), o};
        break;
      }
    }
    NOCALLOC_CHECK(grant[p].granted());
  }
}

}  // namespace nocalloc
