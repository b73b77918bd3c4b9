// Figures 5 and 6: VC allocator area vs delay (Fig. 5) and power vs delay
// (Fig. 6) for every design point and implementation, dense ("conventional")
// and sparse (Sec. 4.2). Also prints the paper's Sec. 4.3.1 headline: the
// maximum savings achieved by sparse VC allocation.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "hw/synthesis.hpp"

using namespace nocalloc;
using namespace nocalloc::hw;

namespace {

struct Variant {
  AllocatorKind kind;
  ArbiterKind arb;
  const char* label;
};

constexpr Variant kVariants[] = {
    {AllocatorKind::kSeparableInputFirst, ArbiterKind::kMatrix, "sep_if/m"},
    {AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin, "sep_if/rr"},
    {AllocatorKind::kSeparableOutputFirst, ArbiterKind::kMatrix, "sep_of/m"},
    {AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin, "sep_of/rr"},
    {AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, "wf/rr"},
};

void print_result(const char* variant, const char* form,
                  const SynthesisResult& r) {
  if (r.ok) {
    std::printf("  %-10s %-6s delay %6.2f ns   area %9.0f um^2   power %7.2f mW"
                "   (%zu cells)\n",
                variant, form, r.delay_ns, r.area_um2, r.power_mw,
                r.node_count);
  } else {
    std::printf("  %-10s %-6s synthesis failed (resource limit, %zu cells) -- "
                "matches the paper's missing data points\n",
                variant, form, r.node_count);
  }
}

}  // namespace

int main() {
  bench::heading("Figures 5 & 6: VC allocator delay / area / power");
  std::printf("Model: structural netlists + logical-effort timing standing in"
              " for DC synthesis\n(45nm LP, 0.9V/125C worst case; activity 0.5"
              " -- see DESIGN.md for the substitution).\n");

  double best_delay_saving = 0, best_area_saving = 0, best_power_saving = 0;

  for (const bench::DesignPoint& pt : bench::paper_design_points()) {
    bench::subheading(std::string(pt.label) + " (P=" +
                      std::to_string(pt.ports) + ", V=" +
                      std::to_string(pt.partition.total_vcs()) + ")");
    for (const Variant& v : kVariants) {
      VcAllocGenConfig cfg;
      cfg.ports = pt.ports;
      cfg.partition = pt.partition;
      cfg.kind = v.kind;
      cfg.arb = v.arb;

      cfg.sparse = false;
      const SynthesisResult dense = synthesize_vc_allocator(cfg);
      cfg.sparse = true;
      const SynthesisResult sparse = synthesize_vc_allocator(cfg);

      print_result(v.label, "dense", dense);
      print_result(v.label, "sparse", sparse);
      if (dense.ok && sparse.ok) {
        const double d = 1.0 - sparse.delay_ns / dense.delay_ns;
        const double a = 1.0 - sparse.area_um2 / dense.area_um2;
        const double p = 1.0 - sparse.power_mw / dense.power_mw;
        std::printf("  %-10s        sparse saves: delay %4.0f%%  area %4.0f%%"
                    "  power %4.0f%%\n",
                    v.label, 100 * d, 100 * a, 100 * p);
        best_delay_saving = std::max(best_delay_saving, d);
        best_area_saving = std::max(best_area_saving, a);
        best_power_saving = std::max(best_power_saving, p);
      }
    }
  }

  // Where the area goes: scope breakdown for a representative mid-size
  // design point (what Sec. 4.2's optimizations attack).
  bench::subheading("area breakdown, fbfly 2x2x2 sep_if/rr");
  for (bool sparse : {false, true}) {
    VcAllocGenConfig cfg;
    cfg.ports = 10;
    cfg.partition = VcPartition::fbfly(2, 2);
    cfg.kind = AllocatorKind::kSeparableInputFirst;
    cfg.arb = ArbiterKind::kRoundRobin;
    cfg.sparse = sparse;
    Netlist nl;
    gen_vc_allocator(nl, cfg);
    std::printf("  %s:\n", sparse ? "sparse" : "dense");
    for (const ScopeCost& s : area_breakdown(nl)) {
      std::printf("    %-22s %8zu cells  %10.0f um^2\n", s.scope.c_str(),
                  s.cells, s.area_um2);
    }
  }

  // Opt-in measured-activity power model: re-synthesize a representative
  // subset with per-net switching activity measured by the compiled
  // bit-parallel engine (random vectors, activity-0.5 inputs like the
  // paper's assumption). The figure tables above are untouched; this
  // subsection reports the delta. See EXPERIMENTS.md, "Measured switching
  // activity".
  bench::subheading("measured switching activity (opt-in power model)");
  {
    ActivityOptions act;
    // 4096 vectors at every fidelity: the cost is a fraction of a second,
    // and the committed output is then the same for smoke and full runs.
    act.vectors = 4096;
    std::printf("  %zu random vectors per netlist; constant-0.5 column is the "
                "Fig. 6 number\n", act.vectors);
    for (const bench::DesignPoint& pt : bench::paper_design_points()) {
      for (bool sparse : {false, true}) {
        VcAllocGenConfig cfg;
        cfg.ports = pt.ports;
        cfg.partition = pt.partition;
        cfg.kind = AllocatorKind::kSeparableInputFirst;
        cfg.arb = ArbiterKind::kRoundRobin;
        cfg.sparse = sparse;
        const SynthesisResult r =
            synthesize_vc_allocator(cfg, ProcessParams{}, &act);
        if (!r.ok || r.measured_power_mw <= 0) continue;
        std::printf("  %-14s sep_if/rr %-6s const %7.2f mW  measured %7.2f mW"
                    "  (eff. activity %.3f)\n",
                    pt.label, sparse ? "sparse" : "dense", r.power_mw,
                    r.measured_power_mw, r.measured_activity);
      }
    }
  }

  bench::subheading("summary vs paper (Sec. 4.3.1)");
  std::printf("max sparse savings measured: delay %.0f%%, area %.0f%%, power "
              "%.0f%%\n",
              100 * best_delay_saving, 100 * best_area_saving,
              100 * best_power_saving);
  std::printf("paper headline:              delay 41%%, area 90%%, power 83%%\n");
  std::printf("(over the subset of points whose dense form synthesizes; the\n"
              " largest dense designs fail synthesis here as in the paper)\n");
  return 0;
}
