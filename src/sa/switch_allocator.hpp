// Switch allocators (Becker & Dally Sec. 5, Fig. 8).
//
// Switch allocation matches the router's P input ports to its P output ports
// for one crossbar cycle, driven by per-VC requests: each of the V VCs at an
// input port may request one output port, and at most one VC per input port
// may be granted (the port has a single crossbar input). The result is both
// a P x P port matching and, per granted input port, the winning VC.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "arbiter/arbiter.hpp"
#include "common/bit_matrix.hpp"

namespace nocalloc {

/// One input VC's switch request.
struct SwitchRequest {
  bool valid = false;  // VC has a flit ready for switch traversal
  int out_port = -1;   // output port the flit needs
};

/// Per-input-port grant.
struct SwitchGrant {
  int vc = -1;        // winning VC at this input port, or -1 if none
  int out_port = -1;  // output port granted to this input port
  bool granted() const { return vc >= 0; }
};

class SwitchAllocator {
 public:
  SwitchAllocator(std::size_t ports, std::size_t vcs)
      : ports_(ports), vcs_(vcs), adapter_req_(ports * vcs) {}
  virtual ~SwitchAllocator() = default;

  std::size_t ports() const { return ports_; }
  std::size_t vcs() const { return vcs_; }
  std::size_t total() const { return ports_ * vcs_; }

  /// Performs one cycle of switch allocation. `req` has one entry per input
  /// VC (global index port * V + vc); `grant` receives one entry per input
  /// port. Grants form a valid port matching and each winning VC is one that
  /// requested the granted output. Every architecture implements this as
  /// its byte-loop oracle; the router runs allocate_fast().
  virtual void allocate(const std::vector<SwitchRequest>& req,
                        std::vector<SwitchGrant>& grant) = 0;

  /// One cycle of switch allocation in word form -- the entry point the
  /// router and the quality sweeps call. `vc_words[p]` holds input port p's
  /// requesting-VC mask (V <= 64), `out_ports[p * V + v]` the requested
  /// output port of every set bit; `grant` is fully rewritten (one entry per
  /// port). Grants and priority-state evolution equal one allocate() call on
  /// the same requests. Runs the architecture's word kernel, or, on the
  /// reference path, the byte-loop oracle through allocate().
  void allocate_fast(const bits::Word* vc_words, const std::uint8_t* out_ports,
                     std::vector<SwitchGrant>& grant) {
    NOCALLOC_DCHECK(vcs_ <= bits::kWordBits && ports_ <= bits::kWordBits);
    if (reference_path_) {
      allocate_via_vectors(vc_words, out_ports, grant);
    } else {
      allocate_words(vc_words, out_ports, grant);
    }
  }

  virtual void reset() = 0;

  /// Advances priority state as `cycles` empty-request allocate() calls
  /// would; see Allocator::advance_priority. Default no-op (separable and
  /// maximum-size architectures are grant-driven).
  virtual void advance_priority(std::uint64_t cycles) {
    static_cast<void>(cycles);
  }

  /// Sends allocate_fast() through the word-to-vector adapter into the
  /// byte-loop oracle allocate() instead of the word kernel; see
  /// VcAllocator::set_reference_path for the contract.
  void set_reference_path(bool ref) { reference_path_ = ref; }
  bool reference_path() const { return reference_path_; }

  /// Serializes / restores priority state for warm snapshot/restore; see
  /// Allocator::save_state. Defaults are no-ops (maximum-size and test
  /// doubles are stateless); stateful architectures override both.
  virtual void save_state(StateWriter& w) const { static_cast<void>(w); }
  virtual void load_state(StateReader& r) { static_cast<void>(r); }

 protected:
  void prepare(const std::vector<SwitchRequest>& req,
               std::vector<SwitchGrant>& grant) const;

  /// P x P union request matrix: entry (p, o) set iff any VC at input port p
  /// requests output port o.
  void port_requests(const std::vector<SwitchRequest>& req,
                     BitMatrix& out) const;

  /// The word kernel behind allocate_fast(), same contract. Architectures
  /// with a sparse single-word kernel override it; the default is
  /// allocate_via_vectors(), so maximum-size and test doubles run their
  /// allocate() unchanged.
  virtual void allocate_words(const bits::Word* vc_words,
                              const std::uint8_t* out_ports,
                              std::vector<SwitchGrant>& grant) {
    allocate_via_vectors(vc_words, out_ports, grant);
  }

  /// Word-to-vector adapter: expands the words into member scratch and
  /// calls allocate(), which rewrites `grant`.
  void allocate_via_vectors(const bits::Word* vc_words,
                            const std::uint8_t* out_ports,
                            std::vector<SwitchGrant>& grant);

  bool reference_path_ = false;

 private:
  std::size_t ports_;
  std::size_t vcs_;
  // allocate_via_vectors() scratch, sized at construction; entries are
  // invalidated after each call.
  std::vector<SwitchRequest> adapter_req_;
};

struct SwitchAllocatorConfig {
  std::size_t ports = 0;
  std::size_t vcs = 0;
  AllocatorKind kind = AllocatorKind::kSeparableInputFirst;
  ArbiterKind arb = ArbiterKind::kRoundRobin;
};

std::unique_ptr<SwitchAllocator> make_switch_allocator(
    const SwitchAllocatorConfig& cfg);

}  // namespace nocalloc
