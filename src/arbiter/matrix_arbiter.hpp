// Matrix arbiter: grants the least-recently-served requester. In hardware it
// keeps a full pairwise priority relation w(i,j) = "i has priority over j";
// input i wins iff it requests and has priority over every other requesting
// input, and a successful grant clears the winner's row and sets its column,
// making it least-recently-served. This provides strong (LRS) fairness at
// higher hardware cost than the round-robin pointer -- the paper evaluates
// both as the /m and /rr separable-allocator variants.
//
// Behavioural model: the relation starts as a total order (lower index
// wins) and the winner-loses-all update keeps it one, so it is exactly a
// recency order. Each input therefore holds its rank in that order (0 =
// highest priority) and w(i,j) is rank[i] < rank[j]: reset is O(n) instead
// of O(n^2), update moves the winner to the back in one O(n) pass, and the
// state is n ranks instead of n^2 bits. hw/arbiter_gen still emits the
// n(n-1)/2-flop matrix netlist; test_netlist_equivalence ties the two.
#pragma once

#include <cstdint>

#include "arbiter/arbiter.hpp"

namespace nocalloc {

class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(std::size_t size);

  std::size_t size() const override { return rank_.size(); }
  int pick(const ReqVector& req) const override;
  void update(int winner) override;
  void reset() override;
  void save_state(StateWriter& w) const override {
    w.u64(rank_.size());
    w.pod_array(rank_.data(), rank_.size());
  }
  void load_state(StateReader& r) override {
    NOCALLOC_CHECK(r.u64() == rank_.size());
    r.pod_array(rank_.data(), rank_.size());
  }

  /// Priority relation (exposed for tests): true if i beats j.
  bool has_priority(std::size_t i, std::size_t j) const {
    NOCALLOC_CHECK(i < rank_.size() && j < rank_.size() && i != j);
    return rank_[i] < rank_[j];
  }

  /// Single-word pick for arbiters of width <= 64, the same winner as
  /// pick() on the equivalent byte vector: the requester with the lowest
  /// rank. The allocators' word kernels use this (through FastArb) as the
  /// packed least-recently-served selection, skipping virtual dispatch and
  /// the byte loop.
  int pick_word(bits::Word req) const {
    NOCALLOC_DCHECK(rank_.size() <= bits::kWordBits);
    int winner = -1;
    std::uint32_t best = kNoRank;
    while (req != 0) {
      const auto i = static_cast<std::size_t>(std::countr_zero(req));
      req &= req - 1;
      if (rank_[i] < best) {
        best = rank_[i];
        winner = static_cast<int>(i);
      }
    }
    return winner;
  }

 private:
  using Rank = std::uint16_t;
  static constexpr std::uint32_t kNoRank = 0x10000;  // above every Rank

  // rank_[i] is input i's position in the recency order: 0 is served next,
  // size()-1 was served last. Always a permutation of 0..size()-1.
  std::vector<Rank> rank_;
};

}  // namespace nocalloc
