// The benchmark's workloads and layer probes. Each workload is a fixed set
// of operations built from the workload seed; one pass runs the whole set
// once through the library's public entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Context {
  Out& out;
  std::uint64_t seed;
  std::size_t threads;  // sweep pool size (fig-curves)
  int pass = 0;
};

/// End-to-end timings of one pass; everything else goes out as records.
struct PassResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
};

const std::vector<std::string>& workload_names();

/// Runs one pass of `workload` (which must be in workload_names()).
PassResult run_pass(const std::string& workload, Context& ctx);

/// Layer probes for the per-layer metrics that no workload pass measures
/// directly: allocator calls on random requests, arbiter construction,
/// and the sweep engine's stages. Emits their records; run traced only.
void run_probes(Context& ctx, const std::string& scratch_dir);

}  // namespace perfbench
