// Differential test pinning the simulator's statistics to recorded goldens.
//
// The zero-allocation data path (packet arena, ring-buffer flit queues,
// active-set router scheduling) is required to be a pure performance
// optimization: for every design point and seed it must produce bit-identical
// latency/throughput statistics to the straightforward simulator it replaced.
// The table below was recorded from the pre-optimization simulator at the
// same design points; every field of SimResult is compared exactly (no
// tolerances).
//
// Network::step() runs every router's allocation stage through
// Router::allocate, which calls the allocators' word entry points: the
// single-word kernels, or, on the allocators' byte-loop reference path, the
// oracles behind a word-to-vector adapter. Each golden row is reproduced
// three ways: checked (the kernels, with every request and grant audited by
// the invariant checker), unchecked (the kernels), and on the reference path
// (the oracles). The rows span every allocator family with a kernel
// (separable input- and output-first, wavefront; round-robin and matrix
// arbiters) in every speculation mode, plus a maximum-size row that reaches
// its allocate() through the adapter.
//
// If a deliberate semantic change ever invalidates these goldens, re-record
// them with the dump program documented in DESIGN.md (simulator memory
// model), and justify the diff in the commit message.
#include "noc/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sweep/sim_batch.hpp"

namespace nocalloc::noc {
namespace {

struct GoldenPoint {
  TopologyKind topo;
  std::size_t vcs_per_class;
  AllocatorKind vc_alloc;
  AllocatorKind sw_alloc;
  SpecMode spec;
  double load;
  std::uint64_t seed;
  // Recorded statistics (exact, down to the last bit of every double).
  std::size_t packets_measured;
  double avg_packet_latency;
  double avg_network_latency;
  double p99_packet_latency;
  double accepted_flit_rate;
  std::uint64_t spec_grants_used;
  std::uint64_t misspeculations;
  double ugal_nonminimal_fraction;
  // Trailing (defaulted) so the originally recorded rows stay untouched;
  // the per-family rows at the bottom of the table override them.
  ArbiterKind vc_arb = ArbiterKind::kRoundRobin;
  ArbiterKind sw_arb = ArbiterKind::kRoundRobin;
};

// Short phases keep the whole table under a few seconds even with the
// invariant checker attached; they still cover warmup, measurement, and a
// full drain for every point.
SimConfig config_for(const GoldenPoint& pt) {
  SimConfig cfg;
  cfg.topology = pt.topo;
  cfg.vcs_per_class = pt.vcs_per_class;
  cfg.vc_alloc = pt.vc_alloc;
  cfg.sw_alloc = pt.sw_alloc;
  cfg.vc_arb = pt.vc_arb;
  cfg.sw_arb = pt.sw_arb;
  cfg.spec = pt.spec;
  cfg.injection_rate = pt.load;
  cfg.seed = pt.seed;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 800;
  cfg.drain_cycles = 1200;
  cfg.check_invariants = true;
  return cfg;
}

const GoldenPoint kGoldens[] = {
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 1ull,
     777u, 23.723294723294718, 23.118404118404136,
     45, 0.04607421875, 15611ull, 26ull,
     0},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 2ull,
     875u, 23.027428571428558, 22.421714285714287,
     44, 0.052167968750000002, 15637ull, 35ull,
     0},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.29999999999999999, 3ull,
     5173u, 41.675236806495228, 39.395901797796292,
     118, 0.31027343750000003, 66353ull, 7925ull,
     0},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kPessimistic,
     0.14999999999999999, 1ull,
     2451u, 25.342717258261974, 24.495716034271769,
     51, 0.14533203124999999, 44107ull, 418ull,
     0},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kNonSpeculative,
     0.14999999999999999, 2ull,
     2494u, 31.805934242181195, 30.977145148356119,
     63, 0.14919921875, 0ull, 0ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kConservative,
     0.20000000000000001, 4ull,
     3221u, 25.91555417572182, 24.989754734554488,
     55, 0.19150390624999999, 52128ull, 158ull,
     0},
    {TopologyKind::kFbfly4x4, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 1ull,
     784u, 12.653061224489806, 12.085459183673466,
     21, 0.046230468750000003, 6486ull, 7ull,
     0.052771855010660979},
    {TopologyKind::kFbfly4x4, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.34999999999999998, 2ull,
     5881u, 20.852916170719315, 19.009522190103748,
     54, 0.34951171874999998, 30576ull, 4131ull,
     0.16170212765957448},
    {TopologyKind::kFbfly4x4, 2u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kPessimistic,
     0.20000000000000001, 3ull,
     3518u, 15.409323479249574, 14.338828880045464,
     35, 0.20744140624999999, 21994ull, 11ull,
     0.14799899320412788},
    {TopologyKind::kRing16, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.10000000000000001, 5ull,
     425u, 19.503529411764696, 18.821176470588217,
     35, 0.100859375, 6208ull, 39ull,
     0},
    // Per-family rows covering the router's single-word kernels:
    // matrix arbiters under sep_if, sep_of on the torus (conservative
    // speculation), and wavefront on the torus (non-speculative).
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.14999999999999999, 6ull,
     2689u, 24.937151357381961, 24.107103012272209,
     49, 0.16011718750000001, 42498ull, 61ull,
     0, ArbiterKind::kMatrix, ArbiterKind::kMatrix},
    {TopologyKind::kTorus8x8, 1u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kConservative,
     0.10000000000000001, 7ull,
     1688u, 20.095379146919477, 19.380331753554536,
     36, 0.10021484375, 23941ull, 103ull,
     0},
    {TopologyKind::kTorus8x8, 2u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kNonSpeculative,
     0.10000000000000001, 8ull,
     1689u, 24.750148016577853, 24.062759029011243,
     42, 0.1006640625, 0ull, 0ull,
     0},
    // Rows completing the family x speculation-mode matrix, recorded from
    // the former scalar router path: sep_if conservative, sep_of
    // pessimistic and non-speculative, wavefront conservative, a sep_of VA
    // feeding a wavefront SA, matrix arbiters non-speculative and on the
    // fbfly, and a maximum-size SA (no kernel: the word-to-vector adapter).
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kConservative,
     0.14999999999999999, 9ull,
     2507u, 25.962504986039097, 25.112086158755492,
     54, 0.14945312499999999, 44619ull, 703ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kPessimistic,
     0.20000000000000001, 10ull,
     3462u, 26.677354130560346, 25.665800115540147,
     55, 0.20556640625, 51924ull, 118ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kNonSpeculative,
     0.14999999999999999, 11ull,
     2470u, 30.263157894736807, 29.482186234817753,
     58, 0.14701171874999999, 0ull, 0ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kConservative,
     0.20000000000000001, 12ull,
     3356u, 26.764898688915387, 25.772348033373074,
     56, 0.2014453125, 53237ull, 93ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kWavefront, SpecMode::kPessimistic,
     0.14999999999999999, 13ull,
     2575u, 25.292038834951487, 24.458640776698992,
     52, 0.15355468750000001, 43909ull, 113ull,
     0},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kNonSpeculative,
     0.14999999999999999, 14ull,
     2491u, 30.238458450421529, 29.415094339622662,
     58, 0.1485546875, 0ull, 0ull,
     0, ArbiterKind::kMatrix, ArbiterKind::kMatrix},
    {TopologyKind::kFbfly4x4, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kPessimistic,
     0.25, 15ull,
     4000u, 16.006249999999998, 14.884500000000012,
     35, 0.23558593750000001, 23645ull, 71ull,
     0.15501905972045743, ArbiterKind::kMatrix, ArbiterKind::kMatrix},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kMaximumSize, SpecMode::kNonSpeculative,
     0.14999999999999999, 16ull,
     2491u, 31.673223604977881, 30.82336411079886,
     64, 0.14888671875000001, 0ull, 0ull,
     0},
};

std::string describe(const GoldenPoint& pt) {
  return to_string(pt.topo) + " C=" + std::to_string(pt.vcs_per_class) +
         " va=" + to_string(pt.vc_alloc) + " sa=" + to_string(pt.sw_alloc) +
         " spec=" + to_string(pt.spec) + " load=" + std::to_string(pt.load) +
         " seed=" + std::to_string(pt.seed);
}

// Exact comparisons on doubles are deliberate: no path may perturb a single
// arbitration decision, so every statistic is reproduced bit for bit.
void expect_golden(const SimResult& r, const GoldenPoint& pt) {
  EXPECT_EQ(r.packets_measured, pt.packets_measured);
  EXPECT_EQ(r.avg_packet_latency, pt.avg_packet_latency);
  EXPECT_EQ(r.avg_network_latency, pt.avg_network_latency);
  EXPECT_EQ(r.p99_packet_latency, pt.p99_packet_latency);
  EXPECT_EQ(r.accepted_flit_rate, pt.accepted_flit_rate);
  EXPECT_EQ(r.spec_grants_used, pt.spec_grants_used);
  EXPECT_EQ(r.misspeculations, pt.misspeculations);
  EXPECT_EQ(r.ugal_nonminimal_fraction, pt.ugal_nonminimal_fraction);
  EXPECT_FALSE(r.saturated);
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p99_packet_latency, b.p99_packet_latency);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.offered_flit_rate, b.offered_flit_rate);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.spec_grants_used, b.spec_grants_used);
  EXPECT_EQ(a.misspeculations, b.misspeculations);
  EXPECT_EQ(a.ugal_nonminimal_fraction, b.ugal_nonminimal_fraction);
  EXPECT_EQ(a.cycles_simulated, b.cycles_simulated);
  EXPECT_EQ(a.router_steps_total, b.router_steps_total);
  EXPECT_EQ(a.router_steps_skipped, b.router_steps_skipped);
  EXPECT_EQ(a.arena_high_water, b.arena_high_water);
}

TEST(SimEquivalence, StatisticsMatchRecordedGoldens) {
  // Checked and unchecked runs both take the single-word kernels; unchecked
  // runs skip the allocators on empty cycles, which checked runs still call
  // so broken allocators are caught. Both must reproduce the golden row,
  // and each other in every field, work counters included.
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    SimConfig cfg = config_for(pt);
    const SimResult checked = run_simulation(cfg);
    expect_golden(checked, pt);
    cfg.check_invariants = false;
    const SimResult unchecked = run_simulation(cfg);
    expect_golden(unchecked, pt);
    expect_same_result(unchecked, checked);
  }
}

TEST(SimEquivalence, ReferencePathMatchesGoldens) {
  // The byte-loop oracles behind the word entry points, unchecked.
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    SimConfig cfg = config_for(pt);
    cfg.check_invariants = false;
    SimInstance sim(cfg);
    sim.network().set_reference_path(true);
    sim.warmup();
    expect_golden(sim.measure_and_drain(), pt);
  }
}

TEST(SimEquivalence, KernelAndReferenceCyclesInterleave) {
  // The kernels and the oracles drive the same arbiter objects, so
  // switching between them mid-run (here every 37 cycles through the
  // warmup, then one of them for the measured window) must hand over
  // priority state exactly.
  std::size_t k = 0;
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    SimConfig cfg = config_for(pt);
    cfg.check_invariants = false;
    SimInstance sim(cfg);
    bool ref = (k++ % 2) == 0;
    for (std::size_t done = 0; done < cfg.warmup_cycles; done += 37) {
      sim.network().set_reference_path(ref);
      sim.run_cycles(std::min<std::size_t>(37, cfg.warmup_cycles - done));
      ref = !ref;
    }
    sim.network().set_reference_path(ref);
    expect_golden(sim.measure_and_drain(), pt);
  }
}

TEST(SimEquivalence, WarmCurvesMatchScalarForksAcrossFamilies) {
  // One point per kernel family: restored priority state (round-robin
  // pointers, matrix rows, wavefront diagonals) must fork bit-identically.
  // run_warm_curves runs the kernels, in both its sharded and its
  // saturation-stopped shape; the oracle forks by hand on the reference
  // path.
  SimConfig sep_if;
  sep_if.vcs_per_class = 2;
  sep_if.warmup_cycles = 300;
  sep_if.measure_cycles = 600;
  sep_if.drain_cycles = 900;

  SimConfig wf = sep_if;
  wf.vc_alloc = AllocatorKind::kWavefront;
  wf.sw_alloc = AllocatorKind::kWavefront;

  SimConfig of_mx = sep_if;
  of_mx.vc_alloc = AllocatorKind::kSeparableOutputFirst;
  of_mx.sw_alloc = AllocatorKind::kSeparableOutputFirst;
  of_mx.vc_arb = ArbiterKind::kMatrix;
  of_mx.sw_arb = ArbiterKind::kMatrix;

  const std::vector<double> rates = {0.1, 0.15, 0.2, 0.25};
  const std::size_t fork_warmup = 200;

  std::vector<sweep::CurveSpec> specs;
  for (const SimConfig& base : {sep_if, wf, of_mx}) {
    sweep::CurveSpec spec;
    spec.base = base;
    spec.rates = rates;
    spec.fork_warmup_cycles = fork_warmup;
    spec.stop_at_saturation = false;
    specs.push_back(spec);
    spec.stop_at_saturation = true;
    specs.push_back(spec);
  }
  sweep::ThreadPool pool(2);
  const std::vector<sweep::Curve> curves = sweep::run_warm_curves(pool, specs);
  ASSERT_EQ(curves.size(), specs.size());

  for (std::size_t s = 0; s < specs.size(); ++s) {
    SimConfig cfg = specs[s].base;
    cfg.injection_rate = rates.front();
    SCOPED_TRACE("va=" + to_string(cfg.vc_alloc) +
                 (specs[s].stop_at_saturation ? " serial" : " sharded"));
    SimInstance warm_sim(cfg);
    warm_sim.network().set_reference_path(true);
    warm_sim.warmup();
    SimSnapshot warm;
    warm_sim.snapshot(warm);

    ASSERT_EQ(curves[s].points.size(), rates.size());
    for (std::size_t p = 0; p < rates.size(); ++p) {
      SCOPED_TRACE("rate " + std::to_string(rates[p]));
      ASSERT_TRUE(curves[s].points[p].run);
      SimInstance sim(cfg);
      sim.network().set_reference_path(true);
      sim.restore(warm);
      sim.set_injection_rate(rates[p]);
      sim.run_cycles(fork_warmup);
      expect_same_result(curves[s].points[p].result, sim.measure_and_drain());
    }
  }
}

TEST(SimEquivalence, WorkProportionalityCountersArePlausible) {
  // Low load on the mesh: a large fraction of router-steps must be skipped
  // as quiescent, and the arena high-water mark stays far below the packet
  // count (packets are recycled, not accumulated).
  const SimResult r = run_simulation(config_for(kGoldens[0]));
  EXPECT_EQ(r.cycles_simulated, 2400u);
  EXPECT_EQ(r.router_steps_total, 2400u * 64u);
  EXPECT_GT(r.router_steps_skipped, r.router_steps_total / 10);
  EXPECT_LT(r.router_steps_skipped, r.router_steps_total);
  EXPECT_GT(r.arena_high_water, 0u);
  EXPECT_LT(r.arena_high_water, 2000u);
}

}  // namespace
}  // namespace nocalloc::noc
