#include "quality/quality.hpp"

#include <algorithm>

#include "alloc/max_size_allocator.hpp"
#include "common/bit_matrix.hpp"
#include "common/check.hpp"

namespace nocalloc::quality {

using nocalloc::BitMatrix;
using nocalloc::FastVcRequest;
using nocalloc::MaxSizeAllocator;
using nocalloc::Rng;
using nocalloc::SwitchAllocator;
using nocalloc::SwitchGrant;
using nocalloc::VcAllocator;
using nocalloc::VcPartition;

QualityResult measure_vc_quality(VcAllocator& alloc,
                                 const VcPartition& partition, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;
  const std::size_t span = partition.vcs_per_class();
  NOCALLOC_CHECK(vcs == partition.total_vcs());

  // The requesting input VC's own class determines the legal target classes;
  // a request picks one legal successor uniformly (mirrors a routing
  // function having fixed one class for the next hop).
  std::vector<std::size_t> msg_class(vcs);
  std::vector<std::vector<std::size_t>> succ(vcs);
  for (std::size_t vc = 0; vc < vcs; ++vc) {
    msg_class[vc] = partition.message_class_of(vc);
    succ[vc] = partition.successors(partition.resource_class_of(vc));
    NOCALLOC_CHECK(!succ[vc].empty());
  }

  // Every trial goes through the word entry point, as in the router.
  NOCALLOC_CHECK(vcs <= bits::kWordBits &&
                 "quality sweeps take at most 64 VCs per port (word form)");

  QualityResult result;
  result.rate = rate;

  std::vector<FastVcRequest> req(total);
  std::vector<int> grant(total, -1);
  BitMatrix full;

  for (std::size_t t = 0; t < trials; ++t) {
    full.resize(total, total);
    std::size_t n = 0;
    for (std::size_t i = 0; i < total; ++i) {
      if (!rng.next_bool(rate)) continue;
      const std::size_t out_port = rng.next_below(ports);
      const std::size_t vc = i % vcs;
      const std::vector<std::size_t>& s = succ[vc];
      const std::size_t base =
          partition.class_base(msg_class[vc], s[rng.next_below(s.size())]);
      // The request names all C VCs [base, base + C) of that class at
      // out_port; the maximum-size reference sees the identical row.
      for (std::size_t c = 0; c < span; ++c) {
        full.set(i, out_port * vcs + base + c);
      }
      req[n++] = {static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(out_port),
                  bits::low_mask(span) << base};
    }

    alloc.allocate_fast(req.data(), n, grant);
    for (std::size_t k = 0; k < n; ++k) {
      int& g = grant[req[k].input];
      if (g < 0) continue;
      ++result.grants;
      g = -1;  // restore the all -1 contract for the next trial
    }
    result.max_grants += MaxSizeAllocator::max_matching_size(full);
  }
  return result;
}

QualityResult measure_sa_quality(SwitchAllocator& alloc, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;

  // Every trial goes through the word entry point, as in the router.
  NOCALLOC_CHECK(ports <= bits::kWordBits && vcs <= bits::kWordBits &&
                 "quality sweeps take at most 64 ports and 64 VCs (word form)");

  QualityResult result;
  result.rate = rate;

  std::vector<bits::Word> vc_words(ports);
  std::vector<std::uint8_t> out_ports(total);
  std::vector<SwitchGrant> grant;
  BitMatrix port_req;

  for (std::size_t t = 0; t < trials; ++t) {
    // Maximum matching over the P x P union request matrix is the bound any
    // switch allocator (one grant per input port) can reach.
    port_req.resize(ports, ports);
    for (std::size_t i = 0; i < total; ++i) {
      if (!rng.next_bool(rate)) continue;
      const std::size_t out_port = rng.next_below(ports);
      vc_words[i / vcs] |= bits::bit(i % vcs);
      out_ports[i] = static_cast<std::uint8_t>(out_port);
      port_req.set(i / vcs, out_port);
    }

    alloc.allocate_fast(vc_words.data(), out_ports.data(), grant);
    std::fill(vc_words.begin(), vc_words.end(), bits::Word{0});
    for (const SwitchGrant& g : grant) {
      if (g.granted()) ++result.grants;
    }
    result.max_grants += MaxSizeAllocator::max_matching_size(port_req);
  }
  return result;
}

std::vector<QualityResult> measure_vc_quality_sweep(
    sweep::ThreadPool& pool,
    const std::function<std::unique_ptr<VcAllocator>()>& factory,
    const VcPartition& partition, const std::vector<double>& rates,
    std::size_t trials, std::uint64_t seed) {
  return sweep::parallel_map(pool, rates.size(), [&](std::size_t i) {
    auto alloc = factory();
    Rng rng(sweep::task_seed(seed, i));
    return measure_vc_quality(*alloc, partition, rates[i], trials, rng);
  });
}

std::vector<QualityResult> measure_sa_quality_sweep(
    sweep::ThreadPool& pool,
    const std::function<std::unique_ptr<SwitchAllocator>()>& factory,
    const std::vector<double>& rates, std::size_t trials, std::uint64_t seed) {
  return sweep::parallel_map(pool, rates.size(), [&](std::size_t i) {
    auto alloc = factory();
    Rng rng(sweep::task_seed(seed, i));
    return measure_sa_quality(*alloc, rates[i], trials, rng);
  });
}

}  // namespace nocalloc::quality
