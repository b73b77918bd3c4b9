#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>

namespace perfbench {

namespace {
const Clock::time_point kStart = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, double start) {
  if (!enabled) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, start, start, parent, op, pass});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index, double end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
  // Spans nest strictly: the one closing is always the innermost open one.
  stack_.pop_back();
}

namespace {
// Keeps the kernel's result alive; one per thread, as samplers run at once.
thread_local volatile std::uint64_t calibration_sink = 0;

// Dependent pseudo-random read-modify-writes over a table of kEntries words
// with a data-dependent branch; returns the time `steps` of them take.
template <std::size_t kEntries>
double timed_kernel(int steps) {
  thread_local std::vector<std::uint32_t> table(kEntries);
  const double start = now_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint32_t& slot = table[(x >> 40) & (kEntries - 1)];
    slot += static_cast<std::uint32_t>(x >> 7);
    if (slot & 1) x ^= slot;
  }
  calibration_sink = x;
  return now_s() - start;
}

constexpr int kSampleSteps = 100'000;
constexpr int kSamplePeriodMs = 50;
}  // namespace

// 2 million steps over a 64 KiB table: cache-resident, branchy integer work
// like the simulator's cycle loop, so co-tenant contention slows both alike
// (on a shared 4-core host their per-sample times correlate at about 0.85).
// It is part of the benchmark, so no library change can move it.
double calibrate() { return timed_kernel<1u << 14>(2'000'000); }

CoreSampler::CoreSampler() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) CPU_SET(0, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  samples_.resize(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads_.emplace_back([this, i, cpu = cpus[i]] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      // At least one sample, even when stop() comes at once.
      do {
        samples_[i].push_back(timed_kernel<256>(kSampleSteps));
        std::this_thread::sleep_for(std::chrono::milliseconds(kSamplePeriodMs));
      } while (running_.load(std::memory_order_relaxed));
    });
  }
}

double CoreSampler::stop() {
  running_.store(false, std::memory_order_relaxed);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i].joinable()) threads_[i].join();
    for (double t : samples_[i]) sum += t;
    n += samples_[i].size();
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

namespace {
void put_object(std::FILE* f, const Fields& fields, bool quote_values) {
  std::fputc('{', f);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "%s%s:%s", i ? "," : "", quote(fields[i].first).c_str(),
                 quote_values ? quote(fields[i].second).c_str()
                              : fields[i].second.c_str());
  }
  std::fputc('}', f);
}
}  // namespace

void Out::op(const std::string& group, const std::string& name, int pass,
             const Fields& outputs, const Fields& timings) {
  std::fprintf(f_,
               "{\"t\":\"op\",\"group\":%s,\"name\":%s,\"pass\":%d,"
               "\"id\":%d,\"out\":",
               quote(group).c_str(), quote(name).c_str(), pass, tracer().op);
  put_object(f_, outputs, /*quote_values=*/true);
  std::fputs(",\"tm\":", f_);
  put_object(f_, timings, /*quote_values=*/false);
  std::fputs("}\n", f_);
}

void Out::rec(const char* kind, const Fields& numbers) {
  Fields all{{"t", quote(kind)}};
  all.insert(all.end(), numbers.begin(), numbers.end());
  put_object(f_, all, /*quote_values=*/false);
  std::fputc('\n', f_);
}

void Out::spans(const std::vector<SpanRec>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f_,
                 "{\"t\":\"span\",\"id\":%zu,\"name\":%s,\"start\":%.9f,"
                 "\"end\":%.9f,\"parent\":%d,\"op\":%d,\"pass\":%d}\n",
                 i, quote(s.name).c_str(), s.start, s.end, s.parent, s.op,
                 s.pass);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
