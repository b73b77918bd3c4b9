// Maximum-size VC allocator: the quality-normalization reference of Sec. 3.1
// applied to the VC-allocation problem. Expands requests to the full PV x PV
// matrix and computes a maximum-cardinality matching (Hopcroft-Karp). It has
// no word kernel: the router reaches it through VcAllocator's word-to-vector
// adapter.
#pragma once

#include "vc/vc_allocator.hpp"

namespace nocalloc {

class VcMaxSizeAllocator final : public VcAllocator {
 public:
  VcMaxSizeAllocator(std::size_t ports, std::size_t vcs)
      : VcAllocator(ports, vcs) {
    reserve_adapter();
  }

  void allocate(const std::vector<VcRequest>& req,
                std::vector<int>& grant) override;
  void reset() override {}

 private:
  // Request and grant matrices, reused across calls (no allocation once
  // sized).
  BitMatrix full_;
  BitMatrix gnt_;
};

}  // namespace nocalloc
