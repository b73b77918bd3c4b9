// Maximum-size switch allocator: quality-normalization reference (Sec. 3.1).
// Computes a maximum matching on the P x P union request matrix and picks the
// lowest-index candidate VC per granted port (VC choice does not affect the
// matching size the quality metric normalizes by). It has no word kernel:
// the router reaches it through SwitchAllocator's word-to-vector adapter.
#pragma once

#include "sa/switch_allocator.hpp"

namespace nocalloc {

class SaMaxSize final : public SwitchAllocator {
 public:
  SaMaxSize(std::size_t ports, std::size_t vcs)
      : SwitchAllocator(ports, vcs) {}

  void allocate(const std::vector<SwitchRequest>& req,
                std::vector<SwitchGrant>& grant) override;
  void reset() override {}

 private:
  // Port request and grant matrices, reused across calls (no allocation
  // once sized).
  BitMatrix ports_req_;
  BitMatrix ports_gnt_;
};

}  // namespace nocalloc
