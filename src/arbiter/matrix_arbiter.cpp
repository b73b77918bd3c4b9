#include "arbiter/matrix_arbiter.hpp"

#include "common/check.hpp"

namespace nocalloc {

MatrixArbiter::MatrixArbiter(std::size_t size) : rank_(size) {
  NOCALLOC_CHECK(size > 0 && size <= kNoRank);
  reset();
}

void MatrixArbiter::reset() {
  // Initial total order: lower index beats higher index.
  for (std::size_t i = 0; i < rank_.size(); ++i) {
    rank_[i] = static_cast<Rank>(i);
  }
}

int MatrixArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == rank_.size());
  int winner = -1;
  std::uint32_t best = kNoRank;
  for (std::size_t i = 0; i < rank_.size(); ++i) {
    if (req[i] && rank_[i] < best) {
      best = rank_[i];
      winner = static_cast<int>(i);
    }
  }
  return winner;
}

void MatrixArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 &&
                 static_cast<std::size_t>(winner) < rank_.size());
  // Everyone behind the winner moves up one place; the winner goes last.
  const Rank served = rank_[static_cast<std::size_t>(winner)];
  for (Rank& k : rank_) k = static_cast<Rank>(k - (k > served ? 1 : 0));
  rank_[static_cast<std::size_t>(winner)] =
      static_cast<Rank>(rank_.size() - 1);
}

}  // namespace nocalloc
