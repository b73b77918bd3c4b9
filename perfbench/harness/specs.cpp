#include "specs.hpp"

#include <cstdio>

#include "sweep/sweep.hpp"

namespace perfbench {

using namespace nocalloc;
using noc::TopologyKind;

namespace {
constexpr AllocatorKind kSepIf = AllocatorKind::kSeparableInputFirst;
constexpr AllocatorKind kSepOf = AllocatorKind::kSeparableOutputFirst;
constexpr AllocatorKind kWf = AllocatorKind::kWavefront;
constexpr ArbiterKind kRr = ArbiterKind::kRoundRobin;
constexpr ArbiterKind kMatrix = ArbiterKind::kMatrix;
}  // namespace

// Router allocation dominates host time on these points.
const std::vector<SimPoint>& alloc_heavy_points() {
  static const std::vector<SimPoint> points{
      {"mesh_c2_sepif_sat", TopologyKind::kMesh8x8, 2, kSepIf, kRr, 0.50,
       false, 2000, 1000, 1000},
      {"fbfly_c4_sepof", TopologyKind::kFbfly4x4, 4, kSepOf, kRr, 0.60, false,
       2000, 1000, 1000},
      {"torus_c8_matrix", TopologyKind::kTorus8x8, 8, kSepIf, kMatrix, 0.25,
       false, 1000, 500, 500},
      {"mesh_c4_wf", TopologyKind::kMesh8x8, 4, kWf, kRr, 0.45, false, 1000,
       500, 500},
      {"mesh_c2_checked", TopologyKind::kMesh8x8, 2, kSepIf, kRr, 0.30, true,
       2000, 1000, 1000},
  };
  return points;
}

// Low load: the active-set scheduler retires most router-steps, so
// construction is a large share of each run.
const std::vector<SimPoint>& light_points() {
  static const std::vector<SimPoint> points{
      {"mesh_c1_low", TopologyKind::kMesh8x8, 1, kSepIf, kRr, 0.03, false,
       3000, 4000, 3000},
      {"fbfly_c1_low", TopologyKind::kFbfly4x4, 1, kSepIf, kRr, 0.03, false,
       3000, 4000, 3000},
      {"torus_c8_matrix_low", TopologyKind::kTorus8x8, 8, kSepIf, kMatrix,
       0.02, false, 3000, 4000, 3000},
  };
  return points;
}

noc::SimConfig sim_config(const SimPoint& p, std::uint64_t seed,
                          std::size_t index) {
  noc::SimConfig cfg;
  cfg.topology = p.topo;
  cfg.vcs_per_class = p.vcs_per_class;
  cfg.vc_alloc = p.alloc;
  cfg.sw_alloc = p.alloc;
  cfg.vc_arb = p.arb;
  cfg.sw_arb = p.arb;
  cfg.injection_rate = p.rate;
  cfg.warmup_cycles = p.warmup;
  cfg.measure_cycles = p.measure;
  cfg.drain_cycles = p.drain;
  cfg.check_invariants = p.checked;
  cfg.seed = sweep::task_seed(seed, index);
  return cfg;
}

namespace {
struct CurveDef {
  TopologyKind topo;
  std::size_t vcs_per_class;
  double max_rate;  // fig13's grid end for this design point
};
constexpr CurveDef kCurveDefs[] = {
    {TopologyKind::kMesh8x8, 2, 0.50},
    {TopologyKind::kFbfly4x4, 2, 0.70},
};
}  // namespace

std::vector<sweep::CurveSpec> curve_specs(std::uint64_t seed) {
  std::vector<sweep::CurveSpec> specs;
  for (bool stop : {true, false}) {
    std::uint64_t index = 0;
    for (const CurveDef& def : kCurveDefs) {
      for (AllocatorKind kind : kFamilies) {
        sweep::CurveSpec spec;
        spec.base.topology = def.topo;
        spec.base.vcs_per_class = def.vcs_per_class;
        spec.base.sw_alloc = kind;
        spec.base.warmup_cycles = 1000;
        // 2000 measured cycles keep the low-load points clear of the
        // simulator's saturation test (accepted < 92% of offered): with
        // 1000, sampling noise alone flagged 0.05 as saturated on about 1%
        // of curves and cut a saturation-stopped curve to its first point.
        spec.base.measure_cycles = 2000;
        spec.base.drain_cycles = 300;
        // Both halves share a design point's seed, so the points both run
        // must agree bit for bit across the serial and sharded engines.
        spec.base.seed = sweep::task_seed(seed, index++);
        for (int step = 1; step * 0.05 <= def.max_rate + 1e-9; ++step) {
          spec.rates.push_back(step * 0.05);
        }
        spec.fork_warmup_cycles = 300;
        spec.stop_at_saturation = stop;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

std::string curve_name(const sweep::CurveSpec& spec) {
  return noc::to_string(spec.base.topology) + "_c" +
         std::to_string(spec.base.vcs_per_class) + "/" +
         to_string(spec.base.sw_alloc) +
         (spec.stop_at_saturation ? "/stop" : "/shard");
}

std::string rate_tag(double rate) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", rate);
  return buf;
}

void emit_curves(Context& ctx, const std::vector<sweep::CurveSpec>& specs,
                 const std::vector<sweep::Curve>& curves) {
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string name = curve_name(specs[s]);
    for (const sweep::CurvePoint& point : curves[s].points) {
      if (!point.run) continue;
      const noc::SimResult& r = point.result;
      ctx.out.op("fig-curves", name + "/" + rate_tag(point.rate), ctx.pass,
                 {{"avg_packet_latency", fmt(r.avg_packet_latency)},
                  {"avg_network_latency", fmt(r.avg_network_latency)},
                  {"p99_packet_latency", fmt(r.p99_packet_latency)},
                  {"packets_measured", fmt(std::uint64_t{r.packets_measured})},
                  {"accepted_flit_rate", fmt(r.accepted_flit_rate)},
                  {"saturated", r.saturated ? "1" : "0"},
                  {"spec_grants_used", fmt(r.spec_grants_used)},
                  {"misspeculations", fmt(r.misspeculations)},
                  {"ugal_nonminimal_fraction",
                   fmt(r.ugal_nonminimal_fraction)},
                  {"router_steps_skipped", fmt(r.router_steps_skipped)}});
    }
  }
}

std::uint64_t curve_cycles(const std::vector<sweep::CurveSpec>& specs,
                           const std::vector<sweep::Curve>& curves) {
  std::uint64_t cycles = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const sweep::CurveSpec& spec = specs[s];
    cycles += spec.base.warmup_cycles;
    for (const sweep::CurvePoint& point : curves[s].points) {
      if (point.run) {
        cycles += spec.fork_warmup_cycles + spec.base.measure_cycles +
                  spec.base.drain_cycles;
      }
    }
  }
  return cycles;
}

std::vector<DesignPoint> paper_design_points() {
  return {
      {"mesh_2x1x1", 5, VcPartition::mesh(2, 1)},
      {"mesh_2x1x2", 5, VcPartition::mesh(2, 2)},
      {"mesh_2x1x4", 5, VcPartition::mesh(2, 4)},
      {"fbfly_2x2x1", 10, VcPartition::fbfly(2, 1)},
      {"fbfly_2x2x2", 10, VcPartition::fbfly(2, 2)},
      {"fbfly_2x2x4", 10, VcPartition::fbfly(2, 4)},
  };
}

}  // namespace perfbench
