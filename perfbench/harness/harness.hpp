// Shared pieces of the benchmark harness: the clock, the in-memory span
// recorder, and the JSON-lines record writer.
//
// The harness only measures. Every record it writes is raw -- span
// intervals, per-call timings, and each operation's deterministic outputs
// formatted at %.17g -- and perfbench/run.py derives every metric and every
// correctness verdict from those records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the harness started (steady clock).
double now_s();

/// One span: a timed call into a layer's public function. `parent` indexes
/// the enclosing span (-1 at top level); `op` is the benchmark operation the
/// call belongs to, so spans of one operation share an id; `pass` is the
/// workload pass (or probe set) that made the call.
struct SpanRec {
  const char* name;
  double start;
  double end;
  int parent;
  int op;
  int pass;
};

/// Keeps spans in memory while tracing is on; written out once at exit.
/// Single-threaded: spans are opened only on the harness thread, around the
/// calls it makes (the sweep pool's workers run inside one span).
class Tracer {
 public:
  bool enabled = false;
  int op = -1;
  int pass = -1;

  /// Starts a new benchmark operation: later spans and ops carry its id.
  void begin_op() { op = ++next_op_; }

  int open(const char* name, double start);
  void close(int index, double end);
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  int next_op_ = -1;
};

Tracer& tracer();

/// Times one call. The duration is always measured (the untraced run needs
/// it for its end-to-end metrics); the span is recorded only when tracing
/// is on.
class Span {
 public:
  explicit Span(const char* name)
      : start_(now_s()), index_(tracer().open(name, start_)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (end_ < 0) {
      end_ = now_s();
      tracer().close(index_, end_);
    }
    return end_ - start_;
  }

 private:
  double start_;
  int index_;
  double end_ = -1.0;
};

/// Runs a fixed kernel that never touches the library and returns its
/// duration in seconds: the host's current speed, sampled beside each
/// single-threaded pass so run.py can factor host contention out of the
/// pass's timings.
double calibrate();

/// Host speed across a pass that keeps several cores busy for seconds, where
/// two bracketing samples on one core say little about the pass. One thread
/// per CPU the process may run on, pinned there, times a short kernel on a
/// 1 KiB table (so the pass's own cache footprint barely touches it) every
/// 50 ms until stop(), interrupting whatever runs on its CPU for about a
/// millisecond: it sees each core's speed as the pass's threads see it.
/// stop() returns the mean sample time in seconds.
class CoreSampler {
 public:
  CoreSampler();
  ~CoreSampler() { stop(); }
  CoreSampler(const CoreSampler&) = delete;
  CoreSampler& operator=(const CoreSampler&) = delete;

  /// Stops and joins the samplers (idempotent).
  double stop();

 private:
  std::atomic<bool> running_{true};
  std::vector<std::vector<double>> samples_;  // one list per sampler thread
  std::vector<std::thread> threads_;
};

/// Formats a double with all its digits.
std::string fmt(double v);
std::string fmt(std::uint64_t v);

/// Ordered (name, value) pairs; values are preformatted strings.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// JSON-lines writer for the harness records.
class Out {
 public:
  explicit Out(std::FILE* f) : f_(f) {}

  /// One operation's deterministic outputs (compared bit for bit) and its
  /// timings (never compared). Tagged with the tracer's current op id.
  void op(const std::string& group, const std::string& name, int pass,
          const Fields& outputs, const Fields& timings = {});
  /// Any other record: {"t": kind, k: v...}; values are emitted as JSON
  /// numbers unless quoted by the caller.
  void rec(const char* kind, const Fields& numbers);
  void spans(const std::vector<SpanRec>& spans);

 private:
  std::FILE* f_;
};

/// Median of a sample (copy sorted). Empty -> 0.
double median(std::vector<double> v);

/// Quotes a string as a JSON string literal.
std::string quote(const std::string& s);

}  // namespace perfbench
