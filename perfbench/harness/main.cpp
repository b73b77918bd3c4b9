// nocbench: runs one benchmark workload and writes raw JSON-lines records.
//
//   nocbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//            --scratch DIR
//
// --trace 0 repeats passes of the workload, untraced, until S seconds have
// gone (at least one pass). --trace 1 first runs one traced pass of every
// other workload plus the layer probes, so each traced run covers every
// layer, then alternates untraced and traced passes of the workload for S
// seconds (at least one of each) to measure the tracing overhead. Spans are
// kept in memory and written at exit. perfbench/run.py turns the records
// into metrics; run this binary through it.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"
#include "sweep/thread_pool.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NOCBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NOCBENCH_SANITIZED 1
#endif
#endif
#ifndef NOCBENCH_SANITIZED
#define NOCBENCH_SANITIZED 0
#endif

#ifdef NDEBUG
#define NOCBENCH_NDEBUG 1
#else
#define NOCBENCH_NDEBUG 0
#endif

namespace {

using namespace perfbench;

// The fig-curves pool never exceeds this many threads, so runs on larger
// hosts stay comparable and the benchmark's footprint stays small.
constexpr std::size_t kMaxThreads = 4;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "nocbench: %s\nusage: nocbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE --scratch DIR\n",
               msg);
  std::exit(2);
}

// One pass and the host speed it ran at, as a calibration kernel's time.
// A single-threaded pass is bracketed by a calibrate() right before and
// right after it; their mean is the host speed. The fig-curves pool keeps
// every core busy for seconds, and bracketing samples taken on one core
// tracked its pass times poorly (correlation 0.1 to 0.5 over a dozen
// passes, against 0.9 for the per-core sampler), so a CoreSampler runs
// throughout that pass instead.
PassResult run_calibrated_pass(const std::string& workload, Context& ctx,
                               double& cal_s, const char*& cal_kind) {
  if (workload == "fig-curves") {
    CoreSampler sampler;
    const PassResult r = run_pass(workload, ctx);
    cal_s = sampler.stop();
    cal_kind = "cores";
    return r;
  }
  const double before = calibrate();
  const PassResult r = run_pass(workload, ctx);
  cal_s = 0.5 * (before + calibrate());
  cal_kind = "bracket";
  return r;
}

void emit_pass(Out& out, const std::string& workload, int pass, bool traced,
               bool profile, const PassResult& r, double cal_s,
               const char* cal_kind) {
  out.rec("pass", {{"workload", quote(workload)},
                   {"pass", std::to_string(pass)},
                   {"traced", traced ? "1" : "0"},
                   {"profile", profile ? "1" : "0"},
                   {"wall_s", fmt(r.wall_s)},
                   {"setup_s", fmt(r.setup_s)},
                   {"cal_s", fmt(cal_s)},
                   {"cal", quote(cal_kind)}});
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path, scratch;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::atoll(val);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--out") out_path = val;
    else if (key == "--scratch") scratch = val;
    else usage(("unknown argument " + key).c_str());
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    usage("unknown workload");
  }
  if (seed < 0 || seconds < 0 || (trace != 0 && trace != 1) ||
      out_path.empty() || scratch.empty()) {
    usage("missing or invalid argument");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) usage("cannot open --out file");
  Out out(f);

  // The result cache must stay off; only the cache probe turns it on.
  unsetenv("NOCALLOC_SWEEP_CACHE");
  const std::size_t threads = std::min(
      kMaxThreads, nocalloc::sweep::ThreadPool::default_threads());
  out.rec("stamp",
          {{"build_type", quote(NOCBENCH_BUILD_TYPE)},
           {"cxx_flags", quote(NOCBENCH_CXX_FLAGS)},
           {"compiler", quote(NOCBENCH_COMPILER)},
           {"sanitized", std::to_string(NOCBENCH_SANITIZED)},
           {"ndebug", std::to_string(NOCBENCH_NDEBUG)},
           {"nproc", std::to_string(std::thread::hardware_concurrency())},
           {"threads", std::to_string(threads)}});

  Context ctx{out, static_cast<std::uint64_t>(seed), threads};
  Tracer& tr = tracer();

  if (trace == 1) {
    tr.enabled = true;
    for (const std::string& w : names) {
      if (w == workload) continue;
      tr.pass = ctx.pass;
      double cal_s = 0.0;
      const char* cal_kind = "";
      const PassResult r = run_calibrated_pass(w, ctx, cal_s, cal_kind);
      emit_pass(out, w, ctx.pass++, true, true, r, cal_s, cal_kind);
      std::fflush(f);
    }
    tr.pass = ctx.pass;
    run_probes(ctx, scratch);
    ++ctx.pass;
    std::fflush(f);
  }

  const double start = now_s();
  int untraced = 0, traced = 0;
  while (now_s() - start < seconds || untraced == 0 ||
         (trace == 1 && traced == 0)) {
    const bool this_traced = trace == 1 && traced < untraced;
    tr.enabled = this_traced;
    tr.pass = ctx.pass;
    double cal_s = 0.0;
    const char* cal_kind = "";
    const PassResult r = run_calibrated_pass(workload, ctx, cal_s, cal_kind);
    emit_pass(out, workload, ctx.pass++, this_traced, false, r, cal_s,
              cal_kind);
    std::fflush(f);
    (this_traced ? traced : untraced) += 1;
  }
  tr.enabled = false;

  out.spans(tr.spans());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.rec("end", {{"max_rss_kb", std::to_string(ru.ru_maxrss)},
                  {"passes", std::to_string(ctx.pass)}});
  std::fclose(f);
  return 0;
}
