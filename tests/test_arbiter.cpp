#include "arbiter/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arbiter/matrix_arbiter.hpp"
#include "arbiter/round_robin_arbiter.hpp"
#include "arbiter/tree_arbiter.hpp"
#include "common/rng.hpp"

namespace nocalloc {
namespace {

ReqVector make_req(std::size_t size, std::initializer_list<std::size_t> set) {
  ReqVector req(size, 0);
  for (std::size_t i : set) req[i] = 1;
  return req;
}

// ---------------------------------------------------------------------------
// Round-robin specifics.

TEST(RoundRobinArbiter, GrantsFirstRequestAtOrAfterPointer) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.pick(make_req(4, {2, 3})), 2);
  EXPECT_EQ(arb.pick(make_req(4, {0})), 0);
}

TEST(RoundRobinArbiter, PointerAdvancesPastWinner) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.pick(make_req(4, {1, 2})), 1);
  arb.update(1);
  EXPECT_EQ(arb.pointer(), 2u);
  // Same requests again: 1 now has lowest priority, so 2 wins.
  EXPECT_EQ(arb.pick(make_req(4, {1, 2})), 2);
}

TEST(RoundRobinArbiter, WrapsAround) {
  RoundRobinArbiter arb(3);
  arb.update(2);  // pointer -> 0
  EXPECT_EQ(arb.pointer(), 0u);
  arb.update(1);
  EXPECT_EQ(arb.pointer(), 2u);
  EXPECT_EQ(arb.pick(make_req(3, {0, 1})), 0);  // wraps past empty slot 2
}

TEST(RoundRobinArbiter, NoRequestNoGrant) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.pick(ReqVector(4, 0)), -1);
}

TEST(RoundRobinArbiter, PickIsPure) {
  RoundRobinArbiter arb(4);
  const ReqVector req = make_req(4, {1, 3});
  EXPECT_EQ(arb.pick(req), arb.pick(req));
  EXPECT_EQ(arb.pointer(), 0u);
}

// ---------------------------------------------------------------------------
// Matrix specifics.

TEST(MatrixArbiter, InitialPriorityIsIndexOrder) {
  MatrixArbiter arb(4);
  EXPECT_EQ(arb.pick(make_req(4, {1, 2, 3})), 1);
}

TEST(MatrixArbiter, WinnerBecomesLeastRecentlyServed) {
  MatrixArbiter arb(3);
  EXPECT_EQ(arb.pick(make_req(3, {0, 1, 2})), 0);
  arb.update(0);
  EXPECT_EQ(arb.pick(make_req(3, {0, 1, 2})), 1);
  arb.update(1);
  EXPECT_EQ(arb.pick(make_req(3, {0, 1, 2})), 2);
  arb.update(2);
  EXPECT_EQ(arb.pick(make_req(3, {0, 1, 2})), 0);
}

TEST(MatrixArbiter, ProvidesLrsFairnessForPairs) {
  MatrixArbiter arb(4);
  arb.update(0);  // 0 just served
  // 0 vs 3: 3 has not been served since, so 3 should beat 0.
  EXPECT_EQ(arb.pick(make_req(4, {0, 3})), 3);
}

TEST(MatrixArbiter, PriorityRelationStaysTotalOrder) {
  // The winner-loses-all update must preserve the total order, which in
  // turn guarantees a winner exists for every non-empty request set.
  MatrixArbiter arb(5);
  Rng rng(9);
  for (int step = 0; step < 200; ++step) {
    ReqVector req(5, 0);
    bool any = false;
    for (auto& r : req) {
      r = rng.next_bool(0.5) ? 1 : 0;
      any = any || r;
    }
    const int winner = arb.pick(req);
    if (any) {
      ASSERT_GE(winner, 0);
      ASSERT_TRUE(req[static_cast<std::size_t>(winner)]);
      arb.update(winner);
    } else {
      ASSERT_EQ(winner, -1);
    }
  }
}

TEST(MatrixArbiter, ResetRestoresInitialOrder) {
  MatrixArbiter arb(3);
  arb.update(0);
  arb.reset();
  EXPECT_EQ(arb.pick(make_req(3, {0, 1})), 0);
}

// ---------------------------------------------------------------------------
// Recency-order model vs. the literal priority matrix.
//
// MatrixArbiter keeps one rank per input instead of the n x n priority
// matrix the hardware holds. The oracle below is that matrix, kept the
// direct way (packed rows, O(n^2) reset, row/column update); the model must
// agree with it on every grant and every pairwise priority bit after any
// sequence of requests, updates and resets.

class PriorityMatrixOracle {
 public:
  explicit PriorityMatrixOracle(std::size_t size)
      : size_(size), wpr_(bits::word_count(size)) {
    reset();
  }

  std::size_t size() const { return size_; }

  void reset() {
    // Initial total order: lower index beats higher index.
    prio_.assign(size_ * wpr_, 0);
    for (std::size_t i = 0; i < size_; ++i) {
      for (std::size_t j = i + 1; j < size_; ++j) {
        prio_[i * wpr_ + bits::word_of(j)] |= bits::bit(j);
      }
    }
  }

  bool has_priority(std::size_t i, std::size_t j) const {
    return (prio_[i * wpr_ + bits::word_of(j)] & bits::bit(j)) != 0;
  }

  // Input i wins iff it requests and beats every other requester.
  int pick(const ReqVector& req) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!req[i]) continue;
      bool wins = true;
      for (std::size_t j = 0; j < size_ && wins; ++j) {
        if (j != i && req[j] && !has_priority(i, j)) wins = false;
      }
      if (wins) return static_cast<int>(i);
    }
    return -1;
  }

  // Everyone gains priority over the winner; the winner loses it over all.
  void update(int winner) {
    const auto w = static_cast<std::size_t>(winner);
    for (std::size_t j = 0; j < size_; ++j) {
      if (j != w) prio_[j * wpr_ + bits::word_of(w)] |= bits::bit(w);
    }
    for (std::size_t v = 0; v < wpr_; ++v) prio_[w * wpr_ + v] = 0;
  }

 private:
  std::size_t size_;
  std::size_t wpr_;  // words per priority row
  std::vector<bits::Word> prio_;
};

// TreeArbiter(kMatrix, groups, group_size) built from oracle matrices.
class TreeOracle {
 public:
  TreeOracle(std::size_t groups, std::size_t group_size)
      : group_size_(group_size),
        top_(groups),
        local_(groups, PriorityMatrixOracle(group_size)) {}

  std::size_t size() const { return local_.size() * group_size_; }

  void reset() {
    top_.reset();
    for (auto& l : local_) l.reset();
  }

  int pick(const ReqVector& req) const {
    ReqVector group_req(local_.size(), 0);
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (req[i]) group_req[i / group_size_] = 1;
    }
    const int g = top_.pick(group_req);
    if (g < 0) return -1;
    const auto first = req.begin() + g * static_cast<long>(group_size_);
    const ReqVector slice(first, first + static_cast<long>(group_size_));
    return g * static_cast<int>(group_size_) +
           local_[static_cast<std::size_t>(g)].pick(slice);
  }

  void update(int winner) {
    const auto w = static_cast<std::size_t>(winner);
    top_.update(static_cast<int>(w / group_size_));
    local_[w / group_size_].update(static_cast<int>(w % group_size_));
  }

  const PriorityMatrixOracle& top() const { return top_; }
  const PriorityMatrixOracle& local(std::size_t g) const { return local_[g]; }

 private:
  std::size_t group_size_;
  PriorityMatrixOracle top_;
  std::vector<PriorityMatrixOracle> local_;
};

// Every grant path of `arb` -- byte pick and, for a matrix arbiter of
// width <= 64, the single-word pick_word -- picks `want`.
::testing::AssertionResult same_picks(const Arbiter& arb, const ReqVector& req,
                                      int want) {
  const int byte_pick = arb.pick(req);
  if (byte_pick != want) {
    return ::testing::AssertionFailure()
           << "pick " << byte_pick << ", oracle " << want;
  }
  const auto* mx = dynamic_cast<const MatrixArbiter*>(&arb);
  if (mx != nullptr && req.size() <= bits::kWordBits) {
    bits::Word word = 0;
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (req[i]) word |= bits::bit(i);
    }
    if (mx->pick_word(word) != want) {
      return ::testing::AssertionFailure()
             << "pick_word " << mx->pick_word(word) << ", oracle " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_priority(const Arbiter& arb,
                                         const PriorityMatrixOracle& ref) {
  const auto& mx = dynamic_cast<const MatrixArbiter&>(arb);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (std::size_t j = 0; j < ref.size(); ++j) {
      if (i != j && mx.has_priority(i, j) != ref.has_priority(i, j)) {
        return ::testing::AssertionFailure()
               << "has_priority(" << i << ", " << j << ") differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_priority(Arbiter& arb, const TreeOracle& ref) {
  auto& tree = dynamic_cast<TreeArbiter&>(arb);
  ::testing::AssertionResult top = same_priority(tree.top(), ref.top());
  if (!top) return top << " (top)";
  for (std::size_t g = 0; g < tree.groups(); ++g) {
    ::testing::AssertionResult local =
        same_priority(tree.local(g), ref.local(g));
    if (!local) return local << " (group " << g << ")";
  }
  return ::testing::AssertionSuccess();
}

// Drives `arb` and `ref` through one seeded random sequence: request
// densities from a lone requester up to all inputs, the winner's update
// applied most of the time (skipped as when a second allocator stage
// rejects the grant), an arbitrary input's update now and then, and rare
// resets. Halfway through, `arb`'s state is saved and loaded into a fresh,
// deliberately dirtied `twin`, which must then track the oracle too.
template <typename Oracle>
void drive_against_oracle(Arbiter& arb, Arbiter& twin, Oracle& ref,
                          std::uint64_t seed) {
  static constexpr double kDensity[] = {0.02, 0.2, 0.6, 1.0};
  const std::size_t n = ref.size();
  Rng rng(seed);
  bool restored = false;
  ASSERT_TRUE(same_priority(arb, ref)) << "after construction";
  for (int step = 0; step < 400; ++step) {
    if (step == 200) {
      std::vector<std::uint8_t> bytes;
      StateWriter w(bytes);
      arb.save_state(w);
      twin.update(static_cast<int>(n / 2));
      StateReader r(bytes);
      twin.load_state(r);
      restored = true;
    }
    const double p = kDensity[rng.next_below(4)];
    ReqVector req(n, 0);
    for (auto& r : req) r = rng.next_bool(p) ? 1 : 0;
    const int want = ref.pick(req);
    ASSERT_TRUE(same_picks(arb, req, want)) << "step " << step;
    if (restored) {
      ASSERT_TRUE(same_picks(twin, req, want)) << "step " << step;
    }

    const std::uint64_t roll = rng.next_below(100);
    int upd = -1;
    if (roll < 2) {
      arb.reset();
      twin.reset();
      ref.reset();
    } else if (roll < 80) {
      upd = want;
    } else if (roll < 90) {
      upd = static_cast<int>(rng.next_below(n));
    }
    if (upd >= 0) {
      arb.update(upd);
      if (restored) twin.update(upd);
      ref.update(upd);
    }
    ASSERT_TRUE(same_priority(arb, ref)) << "step " << step;
    if (restored) {
      ASSERT_TRUE(same_priority(twin, ref)) << "step " << step;
    }
  }
}

class MatrixDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixDifferentialTest, MatchesLiteralPriorityMatrix) {
  const std::size_t n = GetParam();
  MatrixArbiter arb(n);
  MatrixArbiter twin(n);
  PriorityMatrixOracle ref(n);
  drive_against_oracle(arb, twin, ref, 0xA5B0 + n);
}

INSTANTIATE_TEST_SUITE_P(Widths, MatrixDifferentialTest,
                         ::testing::Values(1, 2, 5, 63, 64, 65, 130));

struct TreeShape {
  std::size_t groups;
  std::size_t group_size;
};

void PrintTo(const TreeShape& s, std::ostream* os) {
  *os << s.groups << " groups x " << s.group_size;
}

class MatrixTreeDifferentialTest : public ::testing::TestWithParam<TreeShape> {
};

TEST_P(MatrixTreeDifferentialTest, MatchesLiteralPriorityMatrices) {
  const TreeShape s = GetParam();
  TreeArbiter arb(ArbiterKind::kMatrix, s.groups, s.group_size);
  TreeArbiter twin(ArbiterKind::kMatrix, s.groups, s.group_size);
  TreeOracle ref(s.groups, s.group_size);
  drive_against_oracle(arb, twin, ref, 0x7EE + s.groups * 131 + s.group_size);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixTreeDifferentialTest,
    ::testing::Values(TreeShape{1, 1}, TreeShape{2, 1}, TreeShape{5, 13},
                      TreeShape{4, 16}, TreeShape{2, 65}, TreeShape{13, 10}),
    [](const ::testing::TestParamInfo<TreeShape>& info) {
      return std::to_string(info.param.groups) + "x" +
             std::to_string(info.param.group_size);
    });

// ---------------------------------------------------------------------------
// Tree arbiter.

TEST(TreeArbiter, CombinesGroupAndLocalDecision) {
  TreeArbiter arb(ArbiterKind::kRoundRobin, 2, 3);  // 2 groups of 3
  EXPECT_EQ(arb.size(), 6u);
  // Requests only in group 1.
  EXPECT_EQ(arb.pick(make_req(6, {4, 5})), 4);
}

TEST(TreeArbiter, UpdateOnlyTouchesWinningGroup) {
  TreeArbiter arb(ArbiterKind::kRoundRobin, 2, 2);
  EXPECT_EQ(arb.pick(make_req(4, {0, 1, 2, 3})), 0);
  arb.update(0);
  // Group 0's local arbiter advanced (and the top arbiter moved to group 1),
  // but group 1's local arbiter still prefers its index 0 (global 2).
  EXPECT_EQ(arb.pick(make_req(4, {2, 3})), 2);
  // Within group 0, input 1 now has priority over input 0.
  arb.update(2);
  EXPECT_EQ(arb.pick(make_req(4, {0, 1})), 1);
}

TEST(TreeArbiter, RejectsMismatchedWidth) {
  TreeArbiter arb(ArbiterKind::kMatrix, 2, 2);
  EXPECT_DEATH(arb.pick(ReqVector(3, 1)), "check failed");
}

// ---------------------------------------------------------------------------
// Properties common to all arbiter architectures.

struct ArbiterParam {
  ArbiterKind kind;
  std::size_t size;
};

class ArbiterPropertyTest : public ::testing::TestWithParam<ArbiterParam> {
 protected:
  std::unique_ptr<Arbiter> make() const {
    return make_arbiter(GetParam().kind, GetParam().size);
  }
};

TEST_P(ArbiterPropertyTest, GrantImpliesRequest) {
  auto arb = make();
  Rng rng(1);
  const std::size_t n = arb->size();
  for (int step = 0; step < 300; ++step) {
    ReqVector req(n, 0);
    for (auto& r : req) r = rng.next_bool(0.4) ? 1 : 0;
    const int g = arb->pick(req);
    bool any = false;
    for (auto r : req) any = any || r;
    if (any) {
      ASSERT_GE(g, 0);
      ASSERT_LT(static_cast<std::size_t>(g), n);
      ASSERT_TRUE(req[static_cast<std::size_t>(g)]);
      arb->update(g);
    } else {
      ASSERT_EQ(g, -1);
    }
  }
}

TEST_P(ArbiterPropertyTest, SingleRequesterAlwaysWins) {
  auto arb = make();
  const std::size_t n = arb->size();
  for (std::size_t i = 0; i < n; ++i) {
    ReqVector req(n, 0);
    req[i] = 1;
    EXPECT_EQ(arb->pick(req), static_cast<int>(i));
    arb->update(static_cast<int>(i));
  }
}

TEST_P(ArbiterPropertyTest, PersistentRequesterServedWithinNRounds) {
  // Weak fairness: with all inputs requesting continuously and updates
  // applied, every input must win at least once in any window of N rounds.
  auto arb = make();
  const std::size_t n = arb->size();
  ReqVector req(n, 1);
  std::map<int, int> wins;
  for (std::size_t round = 0; round < 3 * n; ++round) {
    const int g = arb->pick(req);
    ASSERT_GE(g, 0);
    ++wins[g];
    arb->update(g);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(wins[static_cast<int>(i)], 1) << "input " << i << " starved";
  }
}

TEST_P(ArbiterPropertyTest, ResetIsIdempotent) {
  auto arb = make();
  ReqVector req(arb->size(), 1);
  const int first = arb->pick(req);
  arb->update(first);
  arb->reset();
  EXPECT_EQ(arb->pick(req), first);
  arb->reset();
  EXPECT_EQ(arb->pick(req), first);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, ArbiterPropertyTest,
    ::testing::Values(ArbiterParam{ArbiterKind::kRoundRobin, 1},
                      ArbiterParam{ArbiterKind::kRoundRobin, 2},
                      ArbiterParam{ArbiterKind::kRoundRobin, 5},
                      ArbiterParam{ArbiterKind::kRoundRobin, 16},
                      ArbiterParam{ArbiterKind::kMatrix, 1},
                      ArbiterParam{ArbiterKind::kMatrix, 2},
                      ArbiterParam{ArbiterKind::kMatrix, 5},
                      ArbiterParam{ArbiterKind::kMatrix, 16}),
    [](const ::testing::TestParamInfo<ArbiterParam>& info) {
      return to_string(info.param.kind) + "_" +
             std::to_string(info.param.size);
    });

TEST(ArbiterFactory, NamesMatchPaperLabels) {
  EXPECT_EQ(to_string(ArbiterKind::kRoundRobin), "rr");
  EXPECT_EQ(to_string(ArbiterKind::kMatrix), "m");
}

}  // namespace
}  // namespace nocalloc
