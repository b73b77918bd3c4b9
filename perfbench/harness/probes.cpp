// Layer probes: the per-layer numbers no workload pass yields directly.
// Each probe calls one layer's public functions on seeded inputs and emits
// {"t":"probe"} records; outputs that are deterministic go out as ops too,
// so the traced run checks them like any other operation.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "alloc/max_size_allocator.hpp"
#include "common/bit_matrix.hpp"
#include "common/rng.hpp"
#include "noc/sim.hpp"
#include "sa/switch_allocator.hpp"
#include "specs.hpp"
#include "sweep/snapshot_io.hpp"
#include "sweep/sweep.hpp"
#include "vc/vc_allocator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nocalloc;

namespace {

void probe(Context& ctx, const std::string& name, double value) {
  ctx.out.rec("probe", {{"name", quote(name)}, {"value", fmt(value)}});
}

// ---- allocators: ns per allocate() on random requests ----------------------

constexpr std::size_t kProbePorts = 10;
constexpr std::size_t kProbeVcsPerClass = 4;  // fbfly 2x2x4: V = 16
constexpr std::size_t kRequestSets = 64;
constexpr double kRequestRate = 0.5;
constexpr double kMinBatchSeconds = 0.02;
constexpr int kBatches = 5;

std::vector<std::vector<SwitchRequest>> sa_requests(Rng& rng,
                                                    std::size_t vcs) {
  std::vector<std::vector<SwitchRequest>> sets(kRequestSets);
  for (auto& req : sets) {
    req.resize(kProbePorts * vcs);
    for (SwitchRequest& r : req) {
      r.valid = rng.next_bool(kRequestRate);
      r.out_port =
          r.valid ? static_cast<int>(rng.next_below(kProbePorts)) : -1;
    }
  }
  return sets;
}

// Same request model as quality::measure_vc_quality: a requesting input VC
// asks for every VC of one legal successor class at a uniform output port.
std::vector<std::vector<VcRequest>> va_requests(Rng& rng,
                                                const VcPartition& part) {
  const std::size_t vcs = part.total_vcs();
  std::vector<std::vector<VcRequest>> sets(kRequestSets);
  for (auto& req : sets) {
    req.resize(kProbePorts * vcs);
    for (std::size_t i = 0; i < req.size(); ++i) {
      VcRequest& r = req[i];
      r.valid = rng.next_bool(kRequestRate);
      if (!r.valid) continue;
      r.out_port = static_cast<int>(rng.next_below(kProbePorts));
      const std::size_t vc = i % vcs;
      const auto succ = part.successors(part.resource_class_of(vc));
      const std::size_t r2 = succ[rng.next_below(succ.size())];
      r.vc_mask.assign(vcs, 0);
      const std::size_t base =
          part.class_base(part.message_class_of(vc), r2);
      for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
        r.vc_mask[base + c] = 1;
      }
    }
  }
  return sets;
}

std::uint64_t sa_max_grants(const std::vector<SwitchRequest>& req,
                            std::size_t vcs) {
  BitMatrix m(kProbePorts, kProbePorts);
  for (std::size_t i = 0; i < req.size(); ++i) {
    if (req[i].valid) {
      m.set(i / vcs, static_cast<std::size_t>(req[i].out_port));
    }
  }
  return MaxSizeAllocator::max_matching_size(m);
}

std::uint64_t va_max_grants(const std::vector<VcRequest>& req,
                            std::size_t vcs) {
  BitMatrix m(req.size(), req.size());
  for (std::size_t i = 0; i < req.size(); ++i) {
    if (!req[i].valid) continue;
    const std::size_t base = static_cast<std::size_t>(req[i].out_port) * vcs;
    for (std::size_t w = 0; w < vcs; ++w) {
      if (req[i].vc_mask[w]) m.set(i, base + w);
    }
  }
  return MaxSizeAllocator::max_matching_size(m);
}

// Times allocate() over the request sets in batches; ns per call is the
// median batch. Grants are counted on the first sweep over the sets only,
// so they are a pure function of the seed.
template <typename Alloc, typename Req, typename Grant, typename Count>
double time_allocate(const char* span_name, Alloc& alloc,
                     const std::vector<Req>& sets, Grant& grant,
                     std::uint64_t& grants, Count count) {
  for (const Req& req : sets) {
    alloc.allocate(req, grant);
    grants += count(grant);
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const double start = now_s();
    Span batch(span_name);
    std::size_t calls = 0;
    do {
      for (const Req& req : sets) alloc.allocate(req, grant);
      calls += sets.size();
    } while (now_s() - start < kMinBatchSeconds);
    per_call.push_back(batch.stop() * 1e9 / static_cast<double>(calls));
  }
  return median(per_call);
}

void probe_allocators(Context& ctx) {
  const AllocatorKind families[] = {
      AllocatorKind::kSeparableInputFirst, AllocatorKind::kSeparableOutputFirst,
      AllocatorKind::kWavefront, AllocatorKind::kMaximumSize};
  const VcPartition part = VcPartition::fbfly(2, kProbeVcsPerClass);
  const std::size_t vcs = part.total_vcs();

  Rng rng(sweep::task_seed(ctx.seed, 0xA110C));
  const auto sa_sets = sa_requests(rng, vcs);
  const auto va_sets = va_requests(rng, part);
  std::uint64_t sa_max = 0;
  for (const auto& req : sa_sets) sa_max += sa_max_grants(req, vcs);
  std::uint64_t va_max = 0;
  for (const auto& req : va_sets) va_max += va_max_grants(req, vcs);

  for (AllocatorKind kind : families) {
    const std::string fam = kind == AllocatorKind::kMaximumSize
                                ? std::string("max")
                                : to_string(kind);
    tracer().begin_op();
    auto sa = make_switch_allocator(
        {kProbePorts, vcs, kind, ArbiterKind::kRoundRobin});
    std::vector<SwitchGrant> sgrant;
    std::uint64_t sa_grants = 0;
    const double sa_ns = time_allocate(
        "sa.allocate", *sa, sa_sets, sgrant, sa_grants,
        [](const std::vector<SwitchGrant>& g) {
          std::uint64_t n = 0;
          for (const SwitchGrant& x : g) n += x.granted() ? 1 : 0;
          return n;
        });

    tracer().begin_op();
    VcAllocatorConfig vcfg;
    vcfg.ports = kProbePorts;
    vcfg.partition = part;
    vcfg.kind = kind;
    auto va = make_vc_allocator(vcfg);
    std::vector<int> vgrant;
    std::uint64_t va_grants = 0;
    const double va_ns = time_allocate(
        "vc.allocate", *va, va_sets, vgrant, va_grants,
        [](const std::vector<int>& g) {
          std::uint64_t n = 0;
          for (int x : g) n += x >= 0 ? 1 : 0;
          return n;
        });

    ctx.out.op("probes", "alloc/" + fam + "/sa", ctx.pass,
               {{"grants", fmt(sa_grants)}, {"max_grants", fmt(sa_max)}});
    ctx.out.op("probes", "alloc/" + fam + "/va", ctx.pass,
               {{"grants", fmt(va_grants)}, {"max_grants", fmt(va_max)}});
    probe(ctx, "alloc." + fam + ".sa_ns", sa_ns);
    probe(ctx, "alloc." + fam + ".va_ns", va_ns);
    probe(ctx, "alloc." + fam + ".sa_quality",
          static_cast<double>(sa_grants) / static_cast<double>(sa_max));
    probe(ctx, "alloc." + fam + ".va_quality",
          static_cast<double>(va_grants) / static_cast<double>(va_max));
  }
}

// ---- arbiters: VC allocator construction at torus C=8 (P=5, V=64) ---------

void probe_arbiters(Context& ctx) {
  const struct {
    const char* name;
    ArbiterKind arb;
    int reps;
  } kinds[] = {{"matrix", ArbiterKind::kMatrix, 7},
               {"rr", ArbiterKind::kRoundRobin, 21}};
  for (const auto& k : kinds) {
    tracer().begin_op();
    VcAllocatorConfig cfg;
    cfg.ports = 5;
    cfg.partition = VcPartition::torus(2, 8);
    cfg.arb = k.arb;
    std::vector<double> us;
    for (int i = 0; i < k.reps; ++i) {
      Span construct("vc.make_vc_allocator");
      auto alloc = make_vc_allocator(cfg);
      us.push_back(construct.stop() * 1e6);
    }
    probe(ctx, std::string("arbiter.") + k.name + ".construct_us", median(us));
  }
}

// ---- sweep: per-curve cost and the warm-fork stages ------------------------

void probe_sweep(Context& ctx, const std::string& scratch_dir) {
  const std::vector<sweep::CurveSpec> specs = curve_specs(ctx.seed);

  // One entry-point call per spec, serially, on one thread: each curve's
  // own cost, and (summed) the work the pool spreads.
  {
    sweep::ThreadPool one(1);
    for (const sweep::CurveSpec& spec : specs) {
      tracer().begin_op();
      Span call("sweep.warm_curves");
      const auto curves = warm_curves(one, {spec});
      probe(ctx, "sweep.curve_s", call.stop());
      emit_curves(ctx, {spec}, curves);
    }
  }

  // Stage costs on each design point, through the public SimInstance and
  // snapshot_io calls the engine itself composes. The fork replays the
  // engine's fork_point, so its result must equal the sharded curve point.
  for (std::size_t d = 0; d < kCurveDesignPoints; ++d) {
    const sweep::CurveSpec& spec = specs[kCurveDesignPoints + d];
    noc::SimConfig cfg = spec.base;
    cfg.injection_rate = spec.rates.front();
    tracer().begin_op();

    Span cold("sweep.cold_warmup");
    auto warm = std::make_unique<noc::SimInstance>(cfg);
    warm->warmup();
    probe(ctx, "sweep.cold_warmup_s", cold.stop());

    noc::SimSnapshot snap;
    Span take("noc.snapshot");
    warm->snapshot(snap);
    probe(ctx, "sweep.snapshot_us", take.stop() * 1e6);

    std::vector<std::uint8_t> bytes;
    Span encode("sweep.encode_snapshot");
    sweep::encode_snapshot(cfg, snap, bytes);
    probe(ctx, "sweep.encode_us", encode.stop() * 1e6);
    probe(ctx, "sweep.snapshot_bytes", static_cast<double>(bytes.size()));

    noc::SimSnapshot decoded;
    Span decode("sweep.decode_snapshot");
    const sweep::IoStatus st = sweep::decode_snapshot(
        bytes.data(), bytes.size(), sweep::config_fingerprint(cfg), decoded);
    probe(ctx, "sweep.decode_us", decode.stop() * 1e6);
    if (!st) {
      std::fprintf(stderr, "nocbench: decode_snapshot failed: %s\n",
                   st.error.c_str());
      std::exit(3);
    }

    noc::SimInstance fork(cfg);
    const double rate = spec.rates[spec.rates.size() / 2];
    Span fork_span("sweep.fork_point");
    Span restore("noc.restore");
    fork.restore(decoded);
    probe(ctx, "sweep.restore_us", restore.stop() * 1e6);
    fork.set_injection_rate(rate);
    fork.run_cycles(spec.fork_warmup_cycles);
    Span measure("noc.measure_and_drain");
    const noc::SimResult r = fork.measure_and_drain();
    measure.stop();
    probe(ctx, "sweep.fork_point_s", fork_span.stop());

    sweep::Curve single;
    single.points.push_back({rate, true, r});
    sweep::CurveSpec at_rate = spec;
    at_rate.rates = {rate};
    // emit_curves names the point after the spec, so this op is compared
    // with the engine's own sharded result at the same rate.
    emit_curves(ctx, {at_rate}, {single});
  }

  // Result cache: populate a fresh directory, then time the all-hit rerun.
  const std::string dir = scratch_dir + "/sweep-cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("NOCALLOC_SWEEP_CACHE", dir.c_str(), 1);
  {
    sweep::ThreadPool pool(ctx.threads);
    {
      Span populate("sweep.cache_populate");
      warm_curves(pool, specs);
    }
    tracer().begin_op();
    Span hit("sweep.cache_hit");
    const auto curves = warm_curves(pool, specs);
    probe(ctx, "sweep.cache_hit_ms", hit.stop() * 1e3);
    emit_curves(ctx, specs, curves);
  }
  unsetenv("NOCALLOC_SWEEP_CACHE");
  std::filesystem::remove_all(dir);
}

}  // namespace

void run_probes(Context& ctx, const std::string& scratch_dir) {
  Span probes("bench.probes");
  probe_allocators(ctx);
  probe_arbiters(ctx);
  probe_sweep(ctx, scratch_dir);
}

}  // namespace perfbench
