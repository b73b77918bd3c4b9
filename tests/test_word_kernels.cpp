// Differential tests for the single-word allocator kernels.
//
// Every simulation and quality sweep runs each allocator's word entry point
// allocate_fast(), which calls the architecture's single-word kernel. Those
// kernels must be grant-for-grant identical to the byte-loop oracles: every
// FastArb pick must select the same winner as the arbiter's byte pick(), and
// every allocator's kernel must emit the same grants, cycle after cycle, as
// a twin instance on the reference path (set_reference_path(true), where
// allocate_fast() expands the words and runs the oracle allocate()) fed the
// same request stream. The allocator-level tests sweep all 145 paper design
// points (src/lint/design_points.hpp) across multiple seeds and request
// densities.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arbiter/arbiter.hpp"
#include "arbiter/fast_arb.hpp"
#include "arbiter/tree_arbiter.hpp"
#include "common/rng.hpp"
#include "lint/design_points.hpp"
#include "sa/speculative_switch_allocator.hpp"
#include "sa/switch_allocator.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {
namespace {

ReqVector random_req(std::size_t n, double rate, Rng& rng) {
  ReqVector req(n, 0);
  for (auto& r : req) r = rng.next_bool(rate) ? 1 : 0;
  return req;
}

/// Bits [from, from + n) of a byte request vector as one word (n <= 64).
bits::Word pack_word(const ReqVector& req, std::size_t from, std::size_t n) {
  bits::Word w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (req[from + i]) w |= bits::bit(i);
  }
  return w;
}

// FastArb::pick must agree with pick for every arbiter kind at every width
// the kernels use, and driving one twin's priorities through FastArb::update
// must track the other twin driven through the virtual update().
TEST(ArbiterWordKernel, FastArbPickMatchesPick) {
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    for (std::size_t n : {1u, 2u, 5u, 63u, 64u}) {
      auto ref = make_arbiter(kind, n);
      auto twin = make_arbiter(kind, n);
      FastArb fast = FastArb::from(*twin);
      ASSERT_TRUE(fast.ok()) << to_string(kind) << " n=" << n;
      Rng rng(0xA0 + n);
      for (int round = 0; round < 400; ++round) {
        const double rate = (round % 10) * 0.1 + 0.02;
        const ReqVector req = random_req(n, rate, rng);
        const int byte_pick = ref->pick(req);
        ASSERT_EQ(fast.pick(pack_word(req, 0, n)), byte_pick)
            << to_string(kind) << " n=" << n << " round " << round;
        if (byte_pick >= 0 && rng.next_bool(0.7)) {
          ref->update(byte_pick);
          fast.update(byte_pick);
        }
      }
    }
  }
}

// The separable VC kernels run each output tree arbiter one level at a time
// through FastArb handles on TreeArbiter::top() and local(g): a top pick
// over the groups with requests, then a local pick in the winning group's
// slice, with on-success updates of both. That must match the tree's own
// byte pick() and update().
TEST(ArbiterWordKernel, TreeLevelsMatchPick) {
  struct Shape {
    std::size_t groups, group_size;
  };
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    for (Shape s : {Shape{2, 2}, Shape{5, 4}, Shape{10, 16}, Shape{3, 33},
                    Shape{1, 64}, Shape{64, 1}}) {
      TreeArbiter ref(kind, s.groups, s.group_size);
      TreeArbiter twin(kind, s.groups, s.group_size);
      FastArb top = FastArb::from(twin.top());
      std::vector<FastArb> local;
      for (std::size_t g = 0; g < s.groups; ++g) {
        local.push_back(FastArb::from(twin.local(g)));
        ASSERT_TRUE(local.back().ok());
      }
      ASSERT_TRUE(top.ok());
      const std::size_t n = ref.size();
      Rng rng(0xB0 + n);
      for (int round = 0; round < 300; ++round) {
        const ReqVector req = random_req(n, (round % 9) * 0.12 + 0.02, rng);
        bits::Word group_any = 0;
        for (std::size_t g = 0; g < s.groups; ++g) {
          if (pack_word(req, g * s.group_size, s.group_size) != 0) {
            group_any |= bits::bit(g);
          }
        }
        const int byte_pick = ref.pick(req);
        const int g = top.pick(group_any);
        const std::string where = to_string(kind) + " " +
                                  std::to_string(s.groups) + "x" +
                                  std::to_string(s.group_size) + " round " +
                                  std::to_string(round);
        if (byte_pick < 0) {
          ASSERT_EQ(g, -1) << where;
          continue;
        }
        ASSERT_GE(g, 0) << where;
        const auto gs = static_cast<std::size_t>(g);
        const int l = local[gs].pick(
            pack_word(req, gs * s.group_size, s.group_size));
        ASSERT_EQ(g * static_cast<int>(s.group_size) + l, byte_pick) << where;
        if (rng.next_bool(0.7)) {
          ref.update(byte_pick);
          top.update(g);
          local[gs].update(l);
        }
      }
    }
  }
}

// The lint regression net and these differential tests must cover the same
// universe: every allocator configuration the paper synthesizes.
TEST(DesignPoints, CoverAll145) {
  const auto vc = hw::paper_vc_design_points();
  const auto sa = hw::paper_sa_design_points();
  EXPECT_EQ(vc.size(), 40u);
  EXPECT_EQ(sa.size(), 105u);
  EXPECT_EQ(vc.size() + sa.size(), 145u);
}

/// One cycle's switch requests in allocate_fast() form: per input port the
/// requesting-VC word, per input VC the requested output port.
struct SaWords {
  std::vector<bits::Word> vc_words;
  std::vector<std::uint8_t> out_ports;
};

SaWords random_sa_words(std::size_t ports, std::size_t vcs, double rate,
                        Rng& rng) {
  SaWords req{std::vector<bits::Word>(ports, 0),
              std::vector<std::uint8_t>(ports * vcs, 0)};
  for (std::size_t i = 0; i < ports * vcs; ++i) {
    if (!rng.next_bool(rate)) continue;
    req.vc_words[i / vcs] |= bits::bit(i % vcs);
    req.out_ports[i] = static_cast<std::uint8_t>(rng.next_below(ports));
  }
  return req;
}

::testing::AssertionResult same_grant(const SwitchGrant& a,
                                      const SwitchGrant& b) {
  if (a.vc == b.vc && a.out_port == b.out_port) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "kernel (vc " << a.vc << ", out " << a.out_port << ") vs oracle (vc "
         << b.vc << ", out " << b.out_port << ")";
}

// Runs twin non-speculative allocators -- one on its word kernel, one on the
// reference path -- through allocate_fast() on an identical request stream
// and requires identical grants.
void diff_sa_point(const hw::SaDesignPoint& p, std::uint64_t seed,
                   int cycles) {
  const SwitchAllocatorConfig cfg{p.cfg.ports, p.cfg.vcs, p.cfg.kind,
                                  p.cfg.arb};
  auto kernel = make_switch_allocator(cfg);
  auto ref = make_switch_allocator(cfg);
  ref->set_reference_path(true);
  Rng rng(seed);
  std::vector<SwitchGrant> kernel_gnt, ref_gnt;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double rate = (cycle % 10) * 0.1 + 0.05;
    const SaWords req = random_sa_words(cfg.ports, cfg.vcs, rate, rng);
    kernel->allocate_fast(req.vc_words.data(), req.out_ports.data(),
                          kernel_gnt);
    ref->allocate_fast(req.vc_words.data(), req.out_ports.data(), ref_gnt);
    ASSERT_EQ(kernel_gnt.size(), ref_gnt.size());
    for (std::size_t i = 0; i < kernel_gnt.size(); ++i) {
      ASSERT_TRUE(same_grant(kernel_gnt[i], ref_gnt[i]))
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i;
    }
  }
}

void diff_spec_point(const hw::SaDesignPoint& p, std::uint64_t seed,
                     int cycles) {
  const SwitchAllocatorConfig cfg{p.cfg.ports, p.cfg.vcs, p.cfg.kind,
                                  p.cfg.arb};
  SpeculativeSwitchAllocator kernel(cfg, p.cfg.spec);
  SpeculativeSwitchAllocator ref(cfg, p.cfg.spec);
  ref.set_reference_path(true);
  Rng rng(seed);
  std::vector<SpecSwitchGrant> kernel_gnt, ref_gnt;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double rate = (cycle % 10) * 0.1 + 0.05;
    const SaWords ns = random_sa_words(cfg.ports, cfg.vcs, rate, rng);
    const SaWords sp = random_sa_words(cfg.ports, cfg.vcs, rate * 0.5, rng);
    kernel.allocate_fast(ns.vc_words.data(), ns.out_ports.data(),
                         sp.vc_words.data(), sp.out_ports.data(), kernel_gnt);
    ref.allocate_fast(ns.vc_words.data(), ns.out_ports.data(),
                      sp.vc_words.data(), sp.out_ports.data(), ref_gnt);
    ASSERT_EQ(kernel_gnt.size(), ref_gnt.size());
    for (std::size_t i = 0; i < kernel_gnt.size(); ++i) {
      ASSERT_TRUE(same_grant(kernel_gnt[i].nonspec, ref_gnt[i].nonspec))
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i
          << " (nonspec)";
      ASSERT_TRUE(same_grant(kernel_gnt[i].spec, ref_gnt[i].spec))
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i
          << " (spec)";
    }
    ASSERT_EQ(kernel.masked_spec_grants(), ref.masked_spec_grants())
        << p.name << " seed " << seed << " cycle " << cycle;
  }
}

TEST(AllocatorWordKernel, AllSaDesignPointsMatchReference) {
  for (const hw::SaDesignPoint& p : hw::paper_sa_design_points()) {
    for (std::uint64_t seed : {1u, 42u, 9001u}) {
      if (p.cfg.spec == SpecMode::kNonSpeculative) {
        diff_sa_point(p, seed, 60);
      } else {
        diff_spec_point(p, seed, 60);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Legal VC request set under the partition in allocate_fast() form,
// mirroring the quality protocol: a requesting input VC targets all C VCs
// of one legal (message, resource) class at a random output port.
std::vector<FastVcRequest> random_vc_words(std::size_t ports,
                                           const VcPartition& part,
                                           double rate, Rng& rng) {
  const std::size_t vcs = part.total_vcs();
  std::vector<FastVcRequest> req;
  for (std::size_t i = 0; i < ports * vcs; ++i) {
    if (!rng.next_bool(rate)) continue;
    const std::size_t out_port = rng.next_below(ports);
    const std::size_t vc = i % vcs;
    const auto succ = part.successors(part.resource_class_of(vc));
    const std::size_t r2 = succ[rng.next_below(succ.size())];
    const std::size_t base = part.class_base(part.message_class_of(vc), r2);
    req.push_back({static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(out_port),
                   bits::low_mask(part.vcs_per_class()) << base});
  }
  return req;
}

TEST(AllocatorWordKernel, AllVcDesignPointsMatchReference) {
  for (const hw::VcDesignPoint& p : hw::paper_vc_design_points()) {
    VcAllocatorConfig cfg;
    cfg.ports = p.cfg.ports;
    cfg.partition = p.cfg.partition;
    cfg.kind = p.cfg.kind;
    cfg.arb = p.cfg.arb;
    cfg.sparse = p.cfg.sparse;
    auto kernel = make_vc_allocator(cfg);
    auto ref = make_vc_allocator(cfg);
    ref->set_reference_path(true);
    std::vector<int> kernel_gnt(kernel->total(), -1);
    std::vector<int> ref_gnt(ref->total(), -1);
    for (std::uint64_t seed : {3u, 77u, 4242u}) {
      Rng rng(seed);
      for (int cycle = 0; cycle < 60; ++cycle) {
        const double rate = (cycle % 10) * 0.1 + 0.05;
        const auto req = random_vc_words(cfg.ports, cfg.partition, rate, rng);
        kernel->allocate_fast(req.data(), req.size(), kernel_gnt);
        ref->allocate_fast(req.data(), req.size(), ref_gnt);
        ASSERT_EQ(kernel_gnt, ref_gnt)
            << p.name << " seed " << seed << " cycle " << cycle;
        std::fill(kernel_gnt.begin(), kernel_gnt.end(), -1);
        std::fill(ref_gnt.begin(), ref_gnt.end(), -1);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace nocalloc
