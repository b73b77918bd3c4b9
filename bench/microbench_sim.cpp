// End-to-end simulator throughput (cycles per wall-clock second) for the
// default simulation path -- single-word allocator kernels inside
// Network::step, packet arena, ring-buffer flit queues, active-set router
// scheduling -- against the scalar reference path, measured in the same
// process.
//
// Every design point runs twice from the same seed: once as shipped, and
// once with Network::set_reference_path(true), which sends every
// allocator's word entry point to its byte-loop oracle and runs every
// allocation stage of a non-empty cycle, skipped or not. Both
// runs must end in the same state (flits ejected, router-steps skipped,
// arena high water); the ratio of their stepping rates is the kernels'
// speedup on this host. Construction is timed apart and excluded from
// cycles/s.
//
// Gates (exit nonzero on failure):
//   1. differential: the two runs of every point agree;
//   2. zero allocation: the default path performs no heap allocation in the
//      steady-state window (after warmup, before drain), at every load.
//      Saturated points -- where source backlog grows without bound -- are
//      pre-sized for the window via Network::reserve_steady_state;
//   3. speedup floors: every gated point must reach its own floor over the
//      reference path. Only allocator-bound points are gated -- torus with
//      C=8 (sep_if), mesh with C=8 (sep_of, matrix arbiters) and mesh with
//      C=4 (wavefront, speculative and not) -- because there the kernels
//      beat the multi-word mask allocators (the router's path before the
//      word kernels, since deleted) by 2x or more, so each floor was set
//      clear of both. On a 4-core x86 host the kernels measured 95-179x /
//      14-19x / 7.4-12x / 8.2-12x (sep_if / sep_of / matrix / wavefront)
//      against floors of 50x / 10x / 5.5x / 4x, and the same points on the
//      mask path 22-30x / 5.9-10x / 2.9-4.2x / 0.9-1.1x. At the C=1
//      mesh/fbfly loads the mask path read 1.3x-2.6x over the byte-loop
//      reference against 1.8x-4.5x for the kernels, too close to gate;
//      those rows are reported only. So are the maximum-size row, which has
//      no kernel and runs its allocate() behind the word-to-vector adapter
//      on both sides, and the checked row, whose two runs both carry the
//      invariant checker and which is there for gate 2.
//      Separable and wavefront points are summarised apart, so one family
//      slowing down cannot hide behind the other's number;
//   4. construction: building the torus/C=8/sep_if network with matrix
//      arbiters may take at most kMaxMatrixBuildRatio times as long as with
//      round-robin arbiters (median of several builds each, interleaved).
//      The matrix arbiter's recency-order model resets in O(n), like the
//      round-robin pointer; an O(n^2) priority-matrix reset over the
//      network's ~144k arbiters reads ~40x on the same host.
//
// Honors NOCALLOC_BENCH_FAST=1 (run_benches.sh BENCH_FAST): shorter
// measurement window, same warmup, all gates still enforced.
// NOCALLOC_BENCH_JSON names a file to receive a machine-readable summary of
// the same numbers, stamped with host, compiler and build type
// (run_benches.sh points it at BENCH_sim.json).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_stamp.hpp"
#include "noc/sim.hpp"

// ---- Global allocation counter ---------------------------------------------
// Counts every route into the heap. The handlers themselves must not
// allocate, so they sit directly on malloc/free.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nocalloc::noc {
namespace {

double wall_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Point {
  TopologyKind topo;
  std::size_t vcs_per_class;
  double load;
  const char* label;
  double min_speedup;  // floor over the reference path; 0 = reported only
  AllocatorKind alloc = AllocatorKind::kSeparableInputFirst;  // VA and SA
  ArbiterKind arb = ArbiterKind::kRoundRobin;                 // VA and SA
  SpecMode spec = SpecMode::kPessimistic;
  bool checked = false;  // runtime invariant checker attached (both runs)
};

// Gate 4's bound on matrix / round-robin construction time. Measured on a
// 4-core x86 host: 2.0-2.4x with the recency-order model (one rank array
// allocated per arbiter), 42x with packed priority-matrix rows and their
// O(n^2) reset.
constexpr double kMaxMatrixBuildRatio = 4.0;

struct RunOutcome {
  double construct_s = 0.0;
  double cycles_per_sec = 0.0;  // stepping only, construction excluded
  std::uint64_t steady_allocs = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t steps_skipped = 0;
  std::uint64_t flits_ejected = 0;
  std::size_t arena_high_water = 0;
};

// Drives the network directly (rather than through measure_and_drain) so
// the allocation counter brackets the steady-state window only:
// construction and warmup may allocate, the measured cycles may not. The
// drain stops generation and runs until the network is empty.
RunOutcome run_point(const Point& pt, bool reference, std::size_t warmup,
                     std::size_t measure, std::size_t drain) {
  SimConfig cfg;
  cfg.topology = pt.topo;
  cfg.vcs_per_class = pt.vcs_per_class;
  cfg.vc_alloc = pt.alloc;
  cfg.sw_alloc = pt.alloc;
  cfg.vc_arb = pt.arb;
  cfg.sw_arb = pt.arb;
  cfg.spec = pt.spec;
  cfg.check_invariants = pt.checked;
  cfg.injection_rate = pt.load;
  cfg.seed = 1;

  RunOutcome out;
  const double t0 = wall_now();
  SimInstance sim(cfg);
  Network& net = sim.network();
  net.set_reference_path(reference);
  const double t1 = wall_now();
  out.construct_s = t1 - t0;

  sim.run_cycles(warmup);

  // Saturated points accumulate backlog without bound, so the steady-state
  // containers would otherwise keep doubling; bound them for the window.
  net.reserve_steady_state(pt.load / 6.0, measure + drain);

  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  sim.run_cycles(measure);
  const std::uint64_t allocs_after =
      g_heap_allocs.load(std::memory_order_relaxed);

  net.set_generation_enabled(false);
  for (std::size_t i = 0; i < drain && net.in_flight() > 0; ++i) net.step();
  const double dt = wall_now() - t1;

  out.cycles_per_sec = static_cast<double>(net.perf().cycles) / dt;
  out.steady_allocs = allocs_after - allocs_before;
  out.steps_total = net.perf().router_steps_total;
  out.steps_skipped = net.perf().router_steps_skipped;
  out.flits_ejected = net.flits_ejected();
  out.arena_high_water = net.arena().high_water();
  return out;
}

// Median wall time of constructing the torus/C=8/sep_if network with round-
// robin (first) and matrix (second) arbiters, builds interleaved so drift
// in host speed hits both alike.
std::pair<double, double> median_build_s(int builds) {
  std::vector<double> rr, mx;
  for (int b = 0; b < builds; ++b) {
    for (const ArbiterKind arb :
         {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
      SimConfig cfg;
      cfg.topology = TopologyKind::kTorus8x8;
      cfg.vcs_per_class = 8;
      cfg.vc_arb = arb;
      cfg.sw_arb = arb;
      const double t0 = wall_now();
      const SimInstance sim(cfg);
      (arb == ArbiterKind::kMatrix ? mx : rr).push_back(wall_now() - t0);
    }
  }
  std::sort(rr.begin(), rr.end());
  std::sort(mx.begin(), mx.end());
  return {rr[rr.size() / 2], mx[mx.size() / 2]};
}

bool same_end_state(const RunOutcome& a, const RunOutcome& b) {
  return a.flits_ejected == b.flits_ejected &&
         a.steps_total == b.steps_total &&
         a.steps_skipped == b.steps_skipped &&
         a.arena_high_water == b.arena_high_water;
}

int run_all() {
  const bool fast = []() {
    const char* v = std::getenv("NOCALLOC_BENCH_FAST");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }();
  const std::size_t warmup = 2000;
  const std::size_t measure = fast ? 1000 : 10000;
  const std::size_t drain = fast ? 500 : 8000;

  const char* build_type = bench::build_type();
  std::printf("Build type: %s\n", build_type);
  if (std::strcmp(build_type, "Debug") == 0) {
    std::printf("WARNING: Debug build; timings are not comparable\n");
  }
  std::printf(
      "Simulator throughput, default (kernel) path vs scalar reference path\n"
      "(warmup %zu + measure %zu + drain %zu; construction excluded)\n",
      warmup, measure, drain);
  std::printf("%-22s %11s %11s %8s %6s %9s %7s %9s %7s %6s\n", "point",
              "cycles/s", "ref cyc/s", "speedup", "floor", "build ms",
              "allocs", "skipped", "arena", "equal");

  // The C=1 mesh/fbfly rows sweep the load: allocators idle at low load,
  // busy at medium and saturated load. The gated rows below them cover
  // every allocator family with a kernel at an allocator-bound point: torus
  // with C=8 packs the full 64-VC word (2 message classes x 4 dateline
  // resource classes x 8); mesh with C=8 gives sep_of and matrix 16 VCs per
  // port, where their kernels led the mask path by 2x or more (at C=4 the
  // lead was 1.7-2x, too narrow for a floor); mesh with C=4 keeps the
  // reference wavefront's PV x PV array affordable. The maximum-size row
  // keeps the word-to-vector adapter under the zero-allocation gate, and the
  // checked row the runtime invariant checker.
  using AK = AllocatorKind;
  using TK = TopologyKind;
  const Point points[] = {
      {TK::kMesh8x8, 1, 0.02, "mesh/low", 0.0},
      {TK::kMesh8x8, 1, 0.15, "mesh/medium", 0.0},
      {TK::kMesh8x8, 1, 0.90, "mesh/saturation", 0.0},
      {TK::kFbfly4x4, 1, 0.02, "fbfly/low", 0.0},
      {TK::kFbfly4x4, 1, 0.20, "fbfly/medium", 0.0},
      {TK::kFbfly4x4, 1, 0.90, "fbfly/saturation", 0.0},
      {TK::kTorus8x8, 8, 0.15, "torus/C=8/sep_if", 50.0},
      {TK::kMesh8x8, 8, 0.30, "mesh/C=8/sep_of", 10.0,
       AK::kSeparableOutputFirst},
      {TK::kMesh8x8, 8, 0.30, "mesh/C=8/matrix", 5.5,
       AK::kSeparableInputFirst, ArbiterKind::kMatrix},
      {TK::kMesh8x8, 4, 0.30, "mesh/C=4/wf", 4.0, AK::kWavefront},
      {TK::kMesh8x8, 4, 0.30, "mesh/C=4/wf/nonspec", 4.0, AK::kWavefront,
       ArbiterKind::kRoundRobin, SpecMode::kNonSpeculative},
      {TK::kMesh8x8, 2, 0.30, "mesh/C=2/max", 0.0, AK::kMaximumSize},
      {TK::kMesh8x8, 2, 0.30, "mesh/C=2/checked", 0.0,
       AK::kSeparableInputFirst, ArbiterKind::kRoundRobin,
       SpecMode::kPessimistic, true},
  };
  const std::size_t n_points = sizeof(points) / sizeof(points[0]);

  bool zero_alloc = true;
  bool identical = true;
  // Lowest speedup / floor ratio over the gated separable (sep_if, sep_of,
  // matrix arbiters) and wavefront points; below 1 fails.
  double worst_sep = 0.0;
  double worst_wf = 0.0;
  std::string json = "{\n  \"bench\": \"microbench_sim\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < n_points; ++i) {
    const Point& pt = points[i];
    const RunOutcome out = run_point(pt, false, warmup, measure, drain);
    const RunOutcome ref = run_point(pt, true, warmup, measure, drain);
    const double speedup = out.cycles_per_sec / ref.cycles_per_sec;
    const bool equal = same_end_state(out, ref);
    const double skipped_pct =
        out.steps_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(out.steps_skipped) /
                  static_cast<double>(out.steps_total);
    char floor_col[16] = "-";
    if (pt.min_speedup > 0.0) {
      std::snprintf(floor_col, sizeof(floor_col), "%gx", pt.min_speedup);
    }
    std::printf(
        "%-22s %11.0f %11.0f %7.2fx %6s %9.1f %7llu %8.1f%% %7zu %6s\n",
        pt.label, out.cycles_per_sec, ref.cycles_per_sec, speedup, floor_col,
        1e3 * out.construct_s,
        static_cast<unsigned long long>(out.steady_allocs), skipped_pct,
        out.arena_high_water, equal ? "yes" : "NO");

    if (pt.min_speedup > 0.0) {
      double& worst = pt.alloc == AK::kWavefront ? worst_wf : worst_sep;
      const double margin = speedup / pt.min_speedup;
      if (worst == 0.0 || margin < worst) worst = margin;
    }
    if (!equal) {
      std::printf("DIFFERENTIAL FAIL: %s default and reference runs "
                  "diverged\n",
                  pt.label);
      identical = false;
    }
    if (out.steady_allocs != 0) {
      std::printf("ZERO-ALLOC FAIL: %s performed %llu heap allocations in "
                  "the steady-state window\n",
                  pt.label,
                  static_cast<unsigned long long>(out.steady_allocs));
      zero_alloc = false;
    }

    char buf[448];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"label\": \"%s\", \"cycles_per_sec\": %.0f, "
        "\"reference_cycles_per_sec\": %.0f, \"speedup_vs_reference\": %.3f, "
        "\"min_speedup\": %.1f, \"construct_s\": %.4f, \"steady_allocs\": %llu, "
        "\"steps_skipped_pct\": %.1f, \"identical\": %s}%s\n",
        pt.label, out.cycles_per_sec, ref.cycles_per_sec, speedup,
        pt.min_speedup, out.construct_s, static_cast<unsigned long long>(out.steady_allocs),
        skipped_pct, equal ? "true" : "false", i + 1 < n_points ? "," : "");
    json += buf;
  }

  const bool sep_ok = worst_sep >= 1.0;
  const bool wf_ok = worst_wf >= 1.0;

  const int builds = 5;
  const auto [rr_build_s, mx_build_s] = median_build_s(builds);
  const double build_ratio = mx_build_s / rr_build_s;
  const bool build_ok = build_ratio <= kMaxMatrixBuildRatio;

  char tail[1024];
  std::snprintf(
      tail, sizeof(tail),
      "  ],\n  \"warmup\": %zu, \"measure\": %zu, \"drain\": %zu,\n"
      "  \"worst_separable_floor_margin\": %.3f,\n"
      "  \"worst_wavefront_floor_margin\": %.3f,\n"
      "  \"torus_c8_build_ms\": {\"rr\": %.2f, \"matrix\": %.2f, "
      "\"ratio\": %.3f, \"max_ratio\": %.1f},\n"
      "  \"zero_alloc_pass\": %s, \"identical\": %s,\n  ",
      warmup, measure, drain, worst_sep, worst_wf, 1e3 * rr_build_s,
      1e3 * mx_build_s, build_ratio, kMaxMatrixBuildRatio,
      zero_alloc ? "true" : "false", identical ? "true" : "false");
  json += tail;
  json += bench::json_stamp() + "\n}\n";
  const char* path = std::getenv("NOCALLOC_BENCH_JSON");
  if (path != nullptr && path[0] != '\0') {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    } else {
      std::printf("WARNING: could not write %s\n", path);
    }
  }

  std::printf(zero_alloc ? "zero-allocation check: PASS (all points, "
                           "saturation included)\n"
                         : "zero-allocation check: FAIL\n");
  std::printf("differential check: %s\n", identical ? "PASS" : "FAIL");
  std::printf("speedup floors: separable worst %.2fx of floor %s, "
              "wavefront worst %.2fx of floor %s\n",
              worst_sep, sep_ok ? "PASS" : "FAIL", worst_wf,
              wf_ok ? "PASS" : "FAIL");
  std::printf("construction gate: torus/C=8/sep_if matrix %.1f ms vs rr "
              "%.1f ms (median of %d), ratio %.2fx, max %.1fx %s\n",
              1e3 * mx_build_s, 1e3 * rr_build_s, builds, build_ratio,
              kMaxMatrixBuildRatio, build_ok ? "PASS" : "FAIL");
  return zero_alloc && identical && sep_ok && wf_ok && build_ok ? 0 : 1;
}

}  // namespace
}  // namespace nocalloc::noc

int main() { return nocalloc::noc::run_all(); }
