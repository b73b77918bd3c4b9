#include "quality/quality.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nocalloc::quality {
namespace {

using nocalloc::AllocatorKind;
using nocalloc::ArbiterKind;
using nocalloc::Rng;
using nocalloc::VcAllocatorConfig;
using nocalloc::VcPartition;
using nocalloc::make_switch_allocator;
using nocalloc::make_vc_allocator;

double vc_quality(AllocatorKind kind, std::size_t ports,
                  const VcPartition& part, double rate,
                  std::size_t trials = 800) {
  VcAllocatorConfig cfg;
  cfg.ports = ports;
  cfg.partition = part;
  cfg.kind = kind;
  auto alloc = make_vc_allocator(cfg);
  Rng rng(11);
  return measure_vc_quality(*alloc, part, rate, trials, rng).quality();
}

double sa_quality(AllocatorKind kind, std::size_t ports, std::size_t vcs,
                  double rate, std::size_t trials = 800) {
  auto alloc = make_switch_allocator(
      {ports, vcs, kind, ArbiterKind::kRoundRobin});
  Rng rng(13);
  return measure_sa_quality(*alloc, rate, trials, rng).quality();
}

TEST(QualityResult, HandlesZeroRequests) {
  QualityResult r;
  EXPECT_EQ(r.quality(), 1.0);  // 0/0 treated as perfect
}

TEST(VcQuality, NeverExceedsOne) {
  const VcPartition part = VcPartition::mesh(2, 2);
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    for (double rate : {0.2, 0.6, 1.0}) {
      const double q = vc_quality(kind, 5, part, rate, 300);
      EXPECT_LE(q, 1.0 + 1e-12);
      EXPECT_GT(q, 0.5);
    }
  }
}

TEST(VcQuality, AllOnesAtSingleVcPerClass) {
  // Fig. 7a/7d: with C = 1 every implementation is maximum.
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    EXPECT_DOUBLE_EQ(vc_quality(kind, 5, VcPartition::mesh(2, 1), 1.0), 1.0);
    EXPECT_DOUBLE_EQ(vc_quality(kind, 10, VcPartition::fbfly(2, 1), 1.0), 1.0);
  }
}

TEST(VcQuality, WavefrontIsAlwaysMaximum) {
  // Fig. 7: "a wavefront-based VC allocator yields a matching quality of 1
  // for all configurations".
  for (double rate : {0.3, 0.7, 1.0}) {
    EXPECT_DOUBLE_EQ(
        vc_quality(AllocatorKind::kWavefront, 5, VcPartition::mesh(2, 4), rate),
        1.0);
    EXPECT_DOUBLE_EQ(vc_quality(AllocatorKind::kWavefront, 10,
                                VcPartition::fbfly(2, 2), rate),
                     1.0);
  }
}

TEST(VcQuality, InputFirstBeatsOutputFirstUnderLoad) {
  // Sec. 4.3.2: input-first propagates more requests to stage two.
  const VcPartition part = VcPartition::mesh(2, 4);
  const double q_if =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 1.0, 1500);
  const double q_of =
      vc_quality(AllocatorKind::kSeparableOutputFirst, 5, part, 1.0, 1500);
  EXPECT_GT(q_if, q_of);
}

TEST(VcQuality, SeparableDegradesWithLoad) {
  const VcPartition part = VcPartition::mesh(2, 4);
  const double low =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 0.1, 1500);
  const double high =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 1.0, 1500);
  EXPECT_GT(low, high);
}

TEST(VcQuality, SeparableDegradesWithVcsPerClass) {
  const double c2 = vc_quality(AllocatorKind::kSeparableInputFirst, 5,
                               VcPartition::mesh(2, 2), 0.8, 1500);
  const double c4 = vc_quality(AllocatorKind::kSeparableInputFirst, 5,
                               VcPartition::mesh(2, 4), 0.8, 1500);
  EXPECT_GT(c2, c4);
}

TEST(SaQuality, NearPerfectAtLowLoad) {
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    EXPECT_GT(sa_quality(kind, 5, 2, 0.05, 1500), 0.97);
  }
}

TEST(SaQuality, WavefrontBeatsSeparablesUnderLoad) {
  for (double rate : {0.6, 1.0}) {
    const double wf = sa_quality(AllocatorKind::kWavefront, 10, 8, rate);
    const double sif =
        sa_quality(AllocatorKind::kSeparableInputFirst, 10, 8, rate);
    const double sof =
        sa_quality(AllocatorKind::kSeparableOutputFirst, 10, 8, rate);
    EXPECT_GT(wf, sif);
    EXPECT_GT(wf, sof);
  }
}

TEST(SaQuality, InputFirstFlattensLowest) {
  // Sec. 5.3.2: sep_if is limited to one request per input port in stage 2.
  const double sif = sa_quality(AllocatorKind::kSeparableInputFirst, 10, 8, 1.0);
  const double sof = sa_quality(AllocatorKind::kSeparableOutputFirst, 10, 8, 1.0);
  EXPECT_LT(sif, sof);
}

TEST(SaQuality, WavefrontRecoversAtHighRate) {
  // Fig. 12: the wavefront curve dips at mid load and climbs again as the
  // request matrix saturates (the maximum-size bound flattens first).
  const double mid = sa_quality(AllocatorKind::kWavefront, 10, 16, 0.4, 1200);
  const double high = sa_quality(AllocatorKind::kWavefront, 10, 16, 1.0, 1200);
  EXPECT_GT(high, mid);
}

TEST(SaQuality, MaxSizeAllocatorScoresExactlyOne) {
  EXPECT_DOUBLE_EQ(sa_quality(AllocatorKind::kMaximumSize, 5, 4, 0.7), 1.0);
}

// The sweeps submit every trial through the allocator's word entry point:
// its single-word kernel, or, on the reference path, its byte-loop
// allocate() behind the word-to-vector adapter. Twin allocators, one on each,
// must report identical grants and maximum-size grants over the figure grid,
// with priority state carried across rates as in the figure benches.
constexpr double kFigureRates[] = {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
constexpr AllocatorKind kKernelFamilies[] = {
    AllocatorKind::kSeparableInputFirst, AllocatorKind::kSeparableOutputFirst,
    AllocatorKind::kWavefront};
constexpr ArbiterKind kArbiters[] = {ArbiterKind::kRoundRobin,
                                     ArbiterKind::kMatrix};

struct Fig7Point {
  const char* label;
  std::size_t ports;
  VcPartition partition;
};

std::vector<Fig7Point> fig7_points() {
  return {{"mesh 2x1x1", 5, VcPartition::mesh(2, 1)},
          {"mesh 2x1x2", 5, VcPartition::mesh(2, 2)},
          {"mesh 2x1x4", 5, VcPartition::mesh(2, 4)},
          {"fbfly 2x2x1", 10, VcPartition::fbfly(2, 1)},
          {"fbfly 2x2x2", 10, VcPartition::fbfly(2, 2)},
          {"fbfly 2x2x4", 10, VcPartition::fbfly(2, 4)}};
}

TEST(QualityKernelPath, VcMatchesAllocateFallbackOnFig7Grid) {
  for (const Fig7Point& pt : fig7_points()) {
    for (AllocatorKind kind : kKernelFamilies) {
      for (ArbiterKind arb : kArbiters) {
        VcAllocatorConfig cfg;
        cfg.ports = pt.ports;
        cfg.partition = pt.partition;
        cfg.kind = kind;
        cfg.arb = arb;
        auto kernel = make_vc_allocator(cfg);
        auto fallback = make_vc_allocator(cfg);
        fallback->set_reference_path(true);
        Rng rk(21), rf(21);
        for (double rate : kFigureRates) {
          const QualityResult a =
              measure_vc_quality(*kernel, pt.partition, rate, 150, rk);
          const QualityResult b =
              measure_vc_quality(*fallback, pt.partition, rate, 150, rf);
          const std::string where = std::string(pt.label) + " " +
                                    to_string(kind) + " arb " +
                                    to_string(arb) +
                                    " rate " + std::to_string(rate);
          EXPECT_EQ(a.grants, b.grants) << where;
          EXPECT_EQ(a.max_grants, b.max_grants) << where;
          EXPECT_GT(a.max_grants, 0u) << where;
        }
      }
    }
  }
}

TEST(QualityKernelPath, SaMatchesAllocateFallbackOnFig12Grid) {
  for (std::size_t ports : {5u, 10u}) {
    for (std::size_t vcs : {2u, 4u, 8u, 16u}) {
      for (AllocatorKind kind : kKernelFamilies) {
        for (ArbiterKind arb : kArbiters) {
          auto kernel = make_switch_allocator({ports, vcs, kind, arb});
          auto fallback = make_switch_allocator({ports, vcs, kind, arb});
          fallback->set_reference_path(true);
          Rng rk(23), rf(23);
          for (double rate : kFigureRates) {
            const QualityResult a = measure_sa_quality(*kernel, rate, 300, rk);
            const QualityResult b =
                measure_sa_quality(*fallback, rate, 300, rf);
            const std::string where =
                "P=" + std::to_string(ports) + " V=" + std::to_string(vcs) +
                " " + to_string(kind) + " arb " +
                to_string(arb) + " rate " +
                std::to_string(rate);
            EXPECT_EQ(a.grants, b.grants) << where;
            EXPECT_EQ(a.max_grants, b.max_grants) << where;
          }
        }
      }
    }
  }
}

TEST(QualityKernelPath, MaxSizeScoresExactlyOneThroughAdapter) {
  // Max-size has no single-word kernel, so the word entry point reaches its
  // allocate() and the shared matcher through the word-to-vector adapter;
  // it must equal its own reference.
  for (const Fig7Point& pt : fig7_points()) {
    VcAllocatorConfig cfg;
    cfg.ports = pt.ports;
    cfg.partition = pt.partition;
    cfg.kind = AllocatorKind::kMaximumSize;
    auto alloc = make_vc_allocator(cfg);
    Rng rng(25);
    for (double rate : kFigureRates) {
      const QualityResult q =
          measure_vc_quality(*alloc, pt.partition, rate, 100, rng);
      EXPECT_EQ(q.grants, q.max_grants) << pt.label << " rate " << rate;
    }
  }
  for (std::size_t ports : {5u, 10u}) {
    for (std::size_t vcs : {2u, 4u, 8u, 16u}) {
      auto alloc = make_switch_allocator(
          {ports, vcs, AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin});
        Rng rng(27);
      for (double rate : kFigureRates) {
        const QualityResult q = measure_sa_quality(*alloc, rate, 200, rng);
        EXPECT_EQ(q.grants, q.max_grants)
            << "P=" << ports << " V=" << vcs << " rate " << rate;
      }
    }
  }
}

TEST(Quality, ReproducibleForSameSeed) {
  auto a = make_switch_allocator(
      {5, 2, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  auto b = make_switch_allocator(
      {5, 2, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  Rng ra(99), rb(99);
  const QualityResult qa = measure_sa_quality(*a, 0.5, 500, ra);
  const QualityResult qb = measure_sa_quality(*b, 0.5, 500, rb);
  EXPECT_EQ(qa.grants, qb.grants);
  EXPECT_EQ(qa.max_grants, qb.max_grants);
}

}  // namespace
}  // namespace nocalloc::quality
