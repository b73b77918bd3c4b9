// The workloads' inputs: design points, load points, phase lengths, and how
// the workload seed turns into per-operation seeds. Everything the library
// receives is built here; the seed reaches it only through these configs.
//
// Sizes are set so that one pass of each workload takes a few seconds on a
// 4-core host, leaving room for several passes per run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "arbiter/arbiter.hpp"
#include "noc/sim.hpp"
#include "sweep/sim_batch.hpp"
#include "vc/vc_partition.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Warmup is issued as run_cycles(kChunk) calls; each is one chunk sample.
inline constexpr std::size_t kChunk = 1000;

/// One single-simulation design point (sim-alloc-heavy, sim-light). The
/// same allocator family and arbiter serve VC and switch allocation.
struct SimPoint {
  const char* name;
  nocalloc::noc::TopologyKind topo;
  std::size_t vcs_per_class;
  nocalloc::AllocatorKind alloc;
  nocalloc::ArbiterKind arb;
  double rate;
  bool checked;
  std::size_t warmup, measure, drain;
};

const std::vector<SimPoint>& alloc_heavy_points();
const std::vector<SimPoint>& light_points();

/// The SimConfig of point `index`, seeded from the workload seed.
nocalloc::noc::SimConfig sim_config(const SimPoint& p, std::uint64_t seed,
                                    std::size_t index);

/// fig-curves: the Fig. 13 slice {mesh 2x1x2, fbfly 2x2x2} x {sep_if,
/// sep_of, wf}, first with stop_at_saturation = true (specs [0, 6)), then
/// the same six design points sharded (specs [6, 12)).
inline constexpr std::size_t kCurveDesignPoints = 6;
std::vector<nocalloc::sweep::CurveSpec> curve_specs(std::uint64_t seed);

/// Runs the curves through sweep::run_warm_curves_replicated, the entry
/// point the figure benches call. A tree that has folded it into
/// run_warm_curves (the replica engine is slated for deletion) runs the same
/// specs through that instead, so a change that deletes it is measured by
/// unchanged benchmark code. The unqualified call is found by argument-
/// dependent lookup at instantiation, which is what lets the second
/// overload take over when the first does not exist.
template <typename Pool, typename Specs>
auto warm_curves_impl(Pool& pool, const Specs& specs, int)
    -> decltype(run_warm_curves_replicated(pool, specs)) {
  return run_warm_curves_replicated(pool, specs);
}
template <typename Pool, typename Specs>
auto warm_curves_impl(Pool& pool, const Specs& specs, long) {
  return run_warm_curves(pool, specs);
}
inline std::vector<nocalloc::sweep::Curve> warm_curves(
    nocalloc::sweep::ThreadPool& pool,
    const std::vector<nocalloc::sweep::CurveSpec>& specs) {
  return warm_curves_impl(pool, specs, 0);
}

/// "mesh_c2/sep_if/stop" etc.
std::string curve_name(const nocalloc::sweep::CurveSpec& spec);
std::string rate_tag(double rate);

/// Emits one op per curve point that ran, in the fig-curves group.
void emit_curves(Context& ctx,
                 const std::vector<nocalloc::sweep::CurveSpec>& specs,
                 const std::vector<nocalloc::sweep::Curve>& curves);

/// Simulated cycles behind a set of curves: each curve's cold warmup plus,
/// per point run, its fork warmup, measurement and drain.
std::uint64_t curve_cycles(const std::vector<nocalloc::sweep::CurveSpec>& specs,
                           const std::vector<nocalloc::sweep::Curve>& curves);

/// paper-kernels: the paper's six VC design points (Sec. 3).
struct DesignPoint {
  const char* label;
  std::size_t ports;
  nocalloc::VcPartition partition;
};
std::vector<DesignPoint> paper_design_points();

inline constexpr nocalloc::AllocatorKind kFamilies[] = {
    nocalloc::AllocatorKind::kSeparableInputFirst,
    nocalloc::AllocatorKind::kSeparableOutputFirst,
    nocalloc::AllocatorKind::kWavefront};
inline constexpr double kQualityRates[] = {0.05, 0.1, 0.2, 0.4,
                                           0.6,  0.8, 1.0};
inline constexpr std::size_t kQualityTrials = 600;
/// Switch-allocator sweeps draw seeds from a range disjoint from the VC
/// sweeps'.
inline constexpr std::uint64_t kSaSeedOffset = 1000;

}  // namespace perfbench
