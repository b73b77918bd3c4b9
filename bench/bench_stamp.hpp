// Host, compiler and build-type stamp for the microbenches' machine-readable
// summaries (bench_results/BENCH_*.json), so every recorded number names the
// machine and the build that produced it.
#pragma once

#include <fstream>
#include <string>
#include <thread>

namespace nocalloc::bench {

#if defined(__clang__)
inline constexpr const char* kCompiler = __VERSION__;
#else
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// CMAKE_BUILD_TYPE of this binary (the microbench targets define
/// NOCALLOC_BUILD_TYPE), or "unknown".
inline const char* build_type() {
#ifdef NOCALLOC_BUILD_TYPE
  return NOCALLOC_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// First "model name" of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// The JSON members `"host": {...}, "compiler": ..., "build_type": ...`,
/// without surrounding braces or a trailing comma.
inline std::string json_stamp() {
  return "\"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu_model() + "\"},\n  \"compiler\": \"" +
         kCompiler + "\", \"build_type\": \"" + build_type() + "\"";
}

}  // namespace nocalloc::bench
