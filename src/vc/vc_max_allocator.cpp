#include "vc/vc_max_allocator.hpp"

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void VcMaxSizeAllocator::allocate(const std::vector<VcRequest>& req,
                                  std::vector<int>& grant) {
  prepare(req, grant);
  expand_requests(req, full_);
  MaxSizeAllocator::max_matching(full_, gnt_, reference_path_);
  for (std::size_t i = 0; i < total(); ++i) grant[i] = gnt_.row_single(i);
}

}  // namespace nocalloc
