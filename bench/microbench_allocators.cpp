// Microbenchmarks of the allocator software models (minibench harness,
// Google-Benchmark-compatible output).
//
// These measure *simulation* throughput (allocations per second of the C++
// models), not hardware delay -- they bound how fast the cycle-accurate
// network simulator can run and document the complexity gap between the
// architectures (wavefront's O(N^2) sweep vs separable's O(N) arbitration
// passes vs Hopcroft-Karp).
#include "bench/minibench.hpp"

#include "alloc/allocator.hpp"
#include "alloc/max_size_allocator.hpp"
#include "common/rng.hpp"
#include "sa/switch_allocator.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {
namespace {

BitMatrix random_matrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(density)) m.set(i, j);
    }
  }
  return m;
}

// One generic allocate() on an n x n request matrix: the byte-loop
// allocators the ablation benches wrap, and Hopcroft-Karp for max.
void BM_Allocator(benchmark::State& state, AllocatorKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto alloc = make_allocator(kind, n, n);
  Rng rng(1);
  // A rotating set of request matrices avoids measuring one lucky pattern.
  std::vector<BitMatrix> reqs;
  for (int i = 0; i < 16; ++i) reqs.push_back(random_matrix(n, 0.4, rng));
  BitMatrix gnt;
  std::size_t i = 0;
  for (auto _ : state) {
    alloc->allocate(reqs[i++ % reqs.size()], gnt);
    benchmark::DoNotOptimize(gnt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// One switch allocation through the word entry point the router calls
// (allocate_fast, the architecture's single-word kernel).
void BM_SwitchAllocator(benchmark::State& state, AllocatorKind kind) {
  const auto ports = static_cast<std::size_t>(state.range(0));
  const auto vcs = static_cast<std::size_t>(state.range(1));
  auto alloc = make_switch_allocator({ports, vcs, kind, ArbiterKind::kRoundRobin});
  Rng rng(2);
  std::vector<bits::Word> vc_words(ports, 0);
  std::vector<std::uint8_t> out_ports(ports * vcs, 0);
  for (std::size_t i = 0; i < ports * vcs; ++i) {
    if (!rng.next_bool(0.4)) continue;
    vc_words[i / vcs] |= bits::bit(i % vcs);
    out_ports[i] = static_cast<std::uint8_t>(rng.next_below(ports));
  }
  std::vector<SwitchGrant> gnt;
  for (auto _ : state) {
    alloc->allocate_fast(vc_words.data(), out_ports.data(), gnt);
    benchmark::DoNotOptimize(gnt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Quality-sweep shapes: Fig. 7's fbfly 2x2x4 point (P = 10, V = 16, so the
// VC allocator and its maximum-size reference are 160x160) and Fig. 12's
// P = 10, V = 16 switch allocator, at a mid-curve request rate. The request
// model is measure_vc_quality's / measure_sa_quality's.
constexpr std::size_t kQualityPorts = 10;
constexpr double kQualityRate = 0.6;
constexpr int kQualitySets = 16;

struct VcQualitySets {
  std::vector<std::vector<FastVcRequest>> words;  // allocate_fast() form
  std::vector<BitMatrix> full;                    // max-size reference
};

VcQualitySets vc_quality_sets(const VcPartition& part) {
  const std::size_t vcs = part.total_vcs();
  const std::size_t total = kQualityPorts * vcs;
  const std::size_t span = part.vcs_per_class();
  Rng rng(3);
  VcQualitySets sets;
  for (int s = 0; s < kQualitySets; ++s) {
    std::vector<FastVcRequest> words;
    BitMatrix full(total, total);
    for (std::size_t i = 0; i < total; ++i) {
      if (!rng.next_bool(kQualityRate)) continue;
      const std::size_t out_port = rng.next_below(kQualityPorts);
      const std::size_t vc = i % vcs;
      const auto succ = part.successors(part.resource_class_of(vc));
      const std::size_t r2 = succ[rng.next_below(succ.size())];
      const std::size_t base = part.class_base(part.message_class_of(vc), r2);
      for (std::size_t c = 0; c < span; ++c) {
        full.set(i, out_port * vcs + base + c);
      }
      words.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(out_port),
                       bits::low_mask(span) << base});
    }
    sets.words.push_back(std::move(words));
    sets.full.push_back(std::move(full));
  }
  return sets;
}

// fbfly 2x2xC partition whose VC allocator is n x n (n = P * 4C).
VcPartition fbfly_partition(std::size_t n) {
  return VcPartition::fbfly(2, n / (kQualityPorts * 4));
}

// One VC quality trial on the single-word kernel the quality sweeps run
// (allocate_fast); the range is the allocator's dimension P * V.
void BM_VcQuality(benchmark::State& state, AllocatorKind kind) {
  VcAllocatorConfig cfg;
  cfg.ports = kQualityPorts;
  cfg.partition = fbfly_partition(static_cast<std::size_t>(state.range(0)));
  cfg.kind = kind;
  auto alloc = make_vc_allocator(cfg);
  const VcQualitySets sets = vc_quality_sets(cfg.partition);
  std::vector<int> grant(alloc->total(), -1);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::vector<FastVcRequest>& req = sets.words[i++ % sets.words.size()];
    alloc->allocate_fast(req.data(), req.size(), grant);
    for (const FastVcRequest& r : req) grant[r.input] = -1;
    benchmark::DoNotOptimize(grant);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// The maximum-size reference of one quality trial, n x n: the VC matrix of
// the fbfly 2x2xC point (vc = true) or the P x P union matrix of a V = 16
// switch allocator (vc = false).
void BM_MaxMatchingSize(benchmark::State& state, bool vc) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<BitMatrix> reqs;
  if (vc) {
    reqs = vc_quality_sets(fbfly_partition(n)).full;
  } else {
    constexpr std::size_t kVcs = 16;
    Rng rng(4);
    for (int s = 0; s < kQualitySets; ++s) {
      BitMatrix m(n, n);
      for (std::size_t i = 0; i < n * kVcs; ++i) {
        if (rng.next_bool(kQualityRate)) m.set(i / kVcs, rng.next_below(n));
      }
      reqs.push_back(std::move(m));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t size =
        MaxSizeAllocator::max_matching_size(reqs[i++ % reqs.size()]);
    benchmark::DoNotOptimize(size);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_Allocator, sep_if, AllocatorKind::kSeparableInputFirst)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, sep_of, AllocatorKind::kSeparableOutputFirst)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, wf, AllocatorKind::kWavefront)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, max, AllocatorKind::kMaximumSize)
    ->Arg(10)->Arg(40)->Arg(160);

BENCHMARK_CAPTURE(BM_SwitchAllocator, sep_if,
                  AllocatorKind::kSeparableInputFirst)
    ->Args({5, 2})->Args({10, 16});
BENCHMARK_CAPTURE(BM_SwitchAllocator, wf, AllocatorKind::kWavefront)
    ->Args({5, 2})->Args({10, 16});

BENCHMARK_CAPTURE(BM_VcQuality, sep_if, AllocatorKind::kSeparableInputFirst)
    ->Arg(160);
BENCHMARK_CAPTURE(BM_VcQuality, sep_of, AllocatorKind::kSeparableOutputFirst)
    ->Arg(160);
BENCHMARK_CAPTURE(BM_VcQuality, wf, AllocatorKind::kWavefront)->Arg(160);

BENCHMARK_CAPTURE(BM_MaxMatchingSize, sa, false)->Arg(10);
BENCHMARK_CAPTURE(BM_MaxMatchingSize, vc, true)->Arg(160);

}  // namespace
}  // namespace nocalloc

BENCHMARK_MAIN();
