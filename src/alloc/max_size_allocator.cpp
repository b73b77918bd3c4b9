#include "alloc/max_size_allocator.hpp"

#include <limits>
#include <vector>

namespace nocalloc {
namespace {

// Hopcroft-Karp over a CSR adjacency built from the request matrix, with an
// array queue for the BFS. O(E * sqrt(V)). The VC quality reference runs it
// once per trial at up to 160x160 (fbfly 2x2x4), so one matcher per thread
// keeps its buffers across calls: once they have reached a shape's size, a
// call performs no heap allocation.
class HopcroftKarp {
 public:
  // The adjacency lists are in ascending column order either way, so the
  // algorithm's execution -- and hence the resulting matching -- is identical
  // for both construction paths; `reference` exists only so the differential
  // tests can pin the mask iteration against the byte scan.
  void build(const BitMatrix& req, bool reference) {
    n_ = req.rows();
    adj_off_.resize(n_ + 1);
    adj_.clear();
    adj_off_[0] = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (reference) {
        for (std::size_t j = 0; j < req.cols(); ++j) {
          if (req.get(i, j)) adj_.push_back(static_cast<int>(j));
        }
      } else {
        bits::for_each_set(req.row(i), req.words_per_row(), [&](std::size_t j) {
          adj_.push_back(static_cast<int>(j));
        });
      }
      adj_off_[i + 1] = adj_.size();
    }
    match_l_.assign(n_, kFree);
    match_r_.assign(req.cols(), kFree);
    dist_.resize(n_);
    queue_.resize(n_);
  }

  std::size_t run() {
    std::size_t matching = 0;
    while (bfs()) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (match_l_[i] == kFree && dfs(static_cast<int>(i))) ++matching;
      }
    }
    return matching;
  }

  int left_match(std::size_t i) const { return match_l_[i]; }

 private:
  static constexpr int kFree = -1;
  static constexpr int kInf = std::numeric_limits<int>::max();

  // Every left vertex enters the queue at most once per phase (free ones up
  // front, matched ones when first reached), so n_ slots suffice.
  bool bfs() {
    std::size_t head = 0, tail = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (match_l_[i] == kFree) {
        dist_[i] = 0;
        queue_[tail++] = static_cast<int>(i);
      } else {
        dist_[i] = kInf;
      }
    }
    bool found_augmenting = false;
    while (head < tail) {
      const auto u = static_cast<std::size_t>(queue_[head++]);
      for (std::size_t e = adj_off_[u]; e < adj_off_[u + 1]; ++e) {
        const int w = match_r_[static_cast<std::size_t>(adj_[e])];
        if (w == kFree) {
          found_augmenting = true;
        } else if (dist_[static_cast<std::size_t>(w)] == kInf) {
          dist_[static_cast<std::size_t>(w)] = dist_[u] + 1;
          queue_[tail++] = w;
        }
      }
    }
    return found_augmenting;
  }

  bool dfs(int u) {
    const auto su = static_cast<std::size_t>(u);
    for (std::size_t e = adj_off_[su]; e < adj_off_[su + 1]; ++e) {
      const int v = adj_[e];
      const int w = match_r_[static_cast<std::size_t>(v)];
      if (w == kFree ||
          (dist_[static_cast<std::size_t>(w)] == dist_[su] + 1 && dfs(w))) {
        match_l_[su] = v;
        match_r_[static_cast<std::size_t>(v)] = u;
        return true;
      }
    }
    dist_[su] = kInf;
    return false;
  }

  std::size_t n_ = 0;
  std::vector<std::size_t> adj_off_;  // row i's columns: adj_[off[i], off[i+1])
  std::vector<int> adj_;
  std::vector<int> match_l_, match_r_;
  std::vector<int> dist_;
  std::vector<int> queue_;
};

// Quality sweeps call the matcher from every pool thread at once.
HopcroftKarp& matcher(const BitMatrix& req, bool reference) {
  thread_local HopcroftKarp hk;
  hk.build(req, reference);
  return hk;
}

void write_matching(const HopcroftKarp& hk, std::size_t rows, BitMatrix& gnt) {
  for (std::size_t i = 0; i < rows; ++i) {
    const int j = hk.left_match(i);
    if (j >= 0) gnt.set(i, static_cast<std::size_t>(j));
  }
}

}  // namespace

void MaxSizeAllocator::max_matching(const BitMatrix& req, BitMatrix& gnt,
                                    bool reference) {
  HopcroftKarp& hk = matcher(req, reference);
  hk.run();
  gnt.resize(req.rows(), req.cols());
  write_matching(hk, req.rows(), gnt);
}

std::size_t MaxSizeAllocator::max_matching_size(const BitMatrix& req,
                                                bool reference) {
  return matcher(req, reference).run();
}

void MaxSizeAllocator::allocate(const BitMatrix& req, BitMatrix& gnt) {
  prepare(req, gnt);
  HopcroftKarp& hk = matcher(req, /*reference=*/false);
  hk.run();
  write_matching(hk, req.rows(), gnt);
}

}  // namespace nocalloc
