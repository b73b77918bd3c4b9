#include "workloads.hpp"

#include <memory>

#include "hw/synthesis.hpp"
#include "noc/sim.hpp"
#include "quality/quality.hpp"
#include "specs.hpp"
#include "sweep/sim_batch.hpp"

namespace perfbench {

using namespace nocalloc;
using noc::SimConfig;
using noc::SimResult;

namespace {

// ---- sim-alloc-heavy / sim-light ------------------------------------------

Fields sim_outputs(const SimResult& r, std::uint64_t flits_ejected) {
  return {
      {"avg_packet_latency", fmt(r.avg_packet_latency)},
      {"avg_network_latency", fmt(r.avg_network_latency)},
      {"p99_packet_latency", fmt(r.p99_packet_latency)},
      {"packets_measured", fmt(std::uint64_t{r.packets_measured})},
      {"offered_flit_rate", fmt(r.offered_flit_rate)},
      {"accepted_flit_rate", fmt(r.accepted_flit_rate)},
      {"saturated", r.saturated ? "1" : "0"},
      {"spec_grants_used", fmt(r.spec_grants_used)},
      {"misspeculations", fmt(r.misspeculations)},
      {"ugal_nonminimal_fraction", fmt(r.ugal_nonminimal_fraction)},
      {"cycles_simulated", fmt(r.cycles_simulated)},
      {"router_steps_total", fmt(r.router_steps_total)},
      {"router_steps_skipped", fmt(r.router_steps_skipped)},
      {"arena_high_water", fmt(std::uint64_t{r.arena_high_water})},
      {"flits_ejected", fmt(flits_ejected)},
  };
}

// Construct, warm up in run_cycles(kChunk) calls, then measure and drain:
// the single-simulation loop a user of SimInstance runs.
PassResult run_sims(const std::string& workload,
                    const std::vector<SimPoint>& points, Context& ctx) {
  PassResult res;
  Span pass("bench.pass");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SimPoint& p = points[i];
    const SimConfig cfg = sim_config(p, ctx.seed, i);
    tracer().begin_op();

    Span construct("noc.construct");
    auto sim = std::make_unique<noc::SimInstance>(cfg);
    const double construct_s = construct.stop();

    Span warmup("noc.warmup");
    for (std::size_t c = 0; c < cfg.warmup_cycles; c += kChunk) {
      Span chunk("noc.run_cycles");
      sim->run_cycles(kChunk);
    }
    const double warmup_s = warmup.stop();

    Span measure("noc.measure_and_drain");
    const SimResult r = sim->measure_and_drain();
    const double measure_s = measure.stop();

    ctx.out.op(workload, p.name, ctx.pass,
               sim_outputs(r, sim->network().flits_ejected()),
               {{"construct_s", fmt(construct_s)},
                {"warmup_s", fmt(warmup_s)},
                {"measure_drain_s", fmt(measure_s)},
                {"checked", p.checked ? "1" : "0"}});
    // The checked point's throughput is a per-layer number; only unchecked
    // points feed sim_cycles_per_s.
    if (!p.checked) {
      ctx.out.rec("rate", {{"pass", std::to_string(ctx.pass)},
                           {"name", quote(p.name)},
                           {"cycles", fmt(r.cycles_simulated)},
                           {"s", fmt(warmup_s + measure_s)}});
    }
    res.setup_s += construct_s;
  }
  res.wall_s = pass.stop();
  return res;
}

// ---- fig-curves ------------------------------------------------------------

// The entry point constructs every curve's SimInstances inside itself and
// exposes no hook, so fig-curves' set-up is measured beside the call: a pool
// start plus one construction per design point, repeated kSetupSamples
// times (each a few milliseconds) and reported as the median.
constexpr int kSetupSamples = 5;

double curve_setup_s(const std::vector<sweep::CurveSpec>& specs,
                     std::size_t threads) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    Span setup("bench.setup");
    sweep::ThreadPool pool(threads);
    for (std::size_t d = 0; d < kCurveDesignPoints; ++d) {
      Span construct("noc.construct");
      noc::SimInstance sim(specs[d].base);
    }
    samples.push_back(setup.stop());
  }
  return median(samples);
}

PassResult run_fig_curves(Context& ctx) {
  PassResult res;
  const std::vector<sweep::CurveSpec> specs = curve_specs(ctx.seed);
  res.setup_s = curve_setup_s(specs, ctx.threads);

  Span pass("bench.pass");
  sweep::ThreadPool pool(ctx.threads);
  tracer().begin_op();
  Span call("sweep.warm_curves");
  const std::vector<sweep::Curve> curves =
      warm_curves(pool, specs);
  const double call_s = call.stop();
  emit_curves(ctx, specs, curves);
  ctx.out.rec("rate", {{"pass", std::to_string(ctx.pass)},
                       {"name", quote("curves")},
                       {"cycles", fmt(curve_cycles(specs, curves))},
                       {"s", fmt(call_s)}});
  res.wall_s = pass.stop();
  return res;
}

// ---- paper-kernels ---------------------------------------------------------

Fields quality_outputs(const quality::QualityResult& q) {
  return {{"grants", fmt(q.grants)}, {"max_grants", fmt(q.max_grants)}};
}

Fields synth_outputs(const hw::SynthesisResult& r) {
  return {{"ok", r.ok ? "1" : "0"},
          {"node_count", fmt(std::uint64_t{r.node_count})},
          {"delay_ns", fmt(r.delay_ns)},
          {"area_um2", fmt(r.area_um2)},
          {"power_mw", fmt(r.power_mw)}};
}

PassResult run_paper_kernels(Context& ctx) {
  PassResult res;
  Span pass("bench.pass");
  Span pool_start("bench.setup");
  sweep::ThreadPool pool(1);
  res.setup_s += pool_start.stop();

  const std::vector<double> rates(std::begin(kQualityRates),
                                  std::end(kQualityRates));
  const std::vector<DesignPoint> points = paper_design_points();
  std::uint64_t index = 0;
  for (const DesignPoint& pt : points) {
    for (AllocatorKind kind : kFamilies) {
      const std::string tag = std::string(pt.label) + "/" + to_string(kind);
      double built_s = 0.0;  // factory time inside the sweep call

      tracer().begin_op();
      VcAllocatorConfig vcfg;
      vcfg.ports = pt.ports;
      vcfg.partition = pt.partition;
      vcfg.kind = kind;
      auto vc_factory = [&]() {
        Span construct("vc.make_vc_allocator");
        auto alloc = make_vc_allocator(vcfg);
        built_s += construct.stop();
        return alloc;
      };
      Span vc_call("quality.measure_vc_quality_sweep");
      const auto vq = quality::measure_vc_quality_sweep(
          pool, vc_factory, pt.partition, rates, kQualityTrials,
          sweep::task_seed(ctx.seed, index));
      const double vc_s = vc_call.stop() - built_s;
      for (const auto& q : vq) {
        ctx.out.op("paper-kernels", "vcq/" + tag + "/" + rate_tag(q.rate),
                   ctx.pass, quality_outputs(q));
      }
      ctx.out.rec("rate", {{"pass", std::to_string(ctx.pass)},
                           {"name", quote("vcq/" + tag)},
                           {"cycles", fmt(std::uint64_t{rates.size() *
                                                        kQualityTrials})},
                           {"s", fmt(vc_s)}});
      res.setup_s += built_s;
      built_s = 0.0;

      tracer().begin_op();
      const SwitchAllocatorConfig scfg{pt.ports, pt.partition.total_vcs(),
                                       kind, ArbiterKind::kRoundRobin};
      auto sa_factory = [&]() {
        Span construct("sa.make_switch_allocator");
        auto alloc = make_switch_allocator(scfg);
        built_s += construct.stop();
        return alloc;
      };
      Span sa_call("quality.measure_sa_quality_sweep");
      const auto sq = quality::measure_sa_quality_sweep(
          pool, sa_factory, rates, kQualityTrials,
          sweep::task_seed(ctx.seed, index + kSaSeedOffset));
      const double sa_s = sa_call.stop() - built_s;
      for (const auto& q : sq) {
        ctx.out.op("paper-kernels", "saq/" + tag + "/" + rate_tag(q.rate),
                   ctx.pass, quality_outputs(q));
      }
      ctx.out.rec("rate", {{"pass", std::to_string(ctx.pass)},
                           {"name", quote("saq/" + tag)},
                           {"cycles", fmt(std::uint64_t{rates.size() *
                                                        kQualityTrials})},
                           {"s", fmt(sa_s)}});
      res.setup_s += built_s;

      tracer().begin_op();
      hw::VcAllocGenConfig vgen;
      vgen.ports = pt.ports;
      vgen.partition = pt.partition;
      vgen.kind = kind;
      vgen.sparse = true;
      Span vc_synth("hw.synthesize_vc_allocator");
      const hw::SynthesisResult vs = hw::synthesize_vc_allocator(vgen);
      const double vs_s = vc_synth.stop();
      ctx.out.op("paper-kernels", "vc_hw/" + tag, ctx.pass,
                 synth_outputs(vs), {{"s", fmt(vs_s)}});

      tracer().begin_op();
      hw::SaGenConfig sgen;
      sgen.ports = pt.ports;
      sgen.vcs = pt.partition.total_vcs();
      sgen.kind = kind;
      Span sa_synth("hw.synthesize_switch_allocator");
      const hw::SynthesisResult ss = hw::synthesize_switch_allocator(sgen);
      const double ss_s = sa_synth.stop();
      ctx.out.op("paper-kernels", "sa_hw/" + tag, ctx.pass,
                 synth_outputs(ss), {{"s", fmt(ss_s)}});
      ++index;
    }
  }
  res.wall_s = pass.stop();
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"sim-alloc-heavy", "sim-light",
                                              "fig-curves", "paper-kernels"};
  return names;
}

PassResult run_pass(const std::string& workload, Context& ctx) {
  if (workload == "sim-alloc-heavy") {
    return run_sims(workload, alloc_heavy_points(), ctx);
  }
  if (workload == "sim-light") return run_sims(workload, light_points(), ctx);
  if (workload == "fig-curves") return run_fig_curves(ctx);
  return run_paper_kernels(ctx);
}

}  // namespace perfbench
