#include "noc/config.hpp"

#include <istream>
#include <sstream>

#include "common/check.hpp"

namespace nocalloc::noc {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

TopologyKind parse_topology(const std::string& v) {
  if (v == "mesh") return TopologyKind::kMesh8x8;
  if (v == "fbfly") return TopologyKind::kFbfly4x4;
  if (v == "ring") return TopologyKind::kRing16;
  if (v == "torus") return TopologyKind::kTorus8x8;
  NOCALLOC_CHECK(false);
}

AllocatorKind parse_allocator(const std::string& v) {
  if (v == "sep_if") return AllocatorKind::kSeparableInputFirst;
  if (v == "sep_of") return AllocatorKind::kSeparableOutputFirst;
  if (v == "wf") return AllocatorKind::kWavefront;
  if (v == "max") return AllocatorKind::kMaximumSize;
  NOCALLOC_CHECK(false);
}

ArbiterKind parse_arbiter(const std::string& v) {
  if (v == "rr") return ArbiterKind::kRoundRobin;
  if (v == "m") return ArbiterKind::kMatrix;
  NOCALLOC_CHECK(false);
}

SpecMode parse_spec(const std::string& v) {
  if (v == "nonspec") return SpecMode::kNonSpeculative;
  if (v == "spec_gnt") return SpecMode::kConservative;
  if (v == "spec_req") return SpecMode::kPessimistic;
  NOCALLOC_CHECK(false);
}

TrafficPattern parse_pattern(const std::string& v) {
  if (v == "uniform") return TrafficPattern::kUniform;
  if (v == "bitcomp") return TrafficPattern::kBitComplement;
  if (v == "transpose") return TrafficPattern::kTranspose;
  if (v == "shuffle") return TrafficPattern::kShuffle;
  if (v == "tornado") return TrafficPattern::kTornado;
  NOCALLOC_CHECK(false);
}

std::size_t parse_size(const std::string& v) {
  std::istringstream in(v);
  std::size_t out = 0;
  in >> out;
  NOCALLOC_CHECK(!in.fail() && in.eof());
  return out;
}

bool parse_bool(const std::string& v) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  NOCALLOC_CHECK(false);
}

double parse_double(const std::string& v) {
  std::istringstream in(v);
  double out = 0;
  in >> out;
  NOCALLOC_CHECK(!in.fail() && in.eof());
  return out;
}

void apply(SimConfig& cfg, const std::string& key, const std::string& value) {
  if (key == "topology") {
    cfg.topology = parse_topology(value);
  } else if (key == "vcs_per_class") {
    cfg.vcs_per_class = parse_size(value);
    NOCALLOC_CHECK(cfg.vcs_per_class >= 1);
  } else if (key == "vc_alloc") {
    cfg.vc_alloc = parse_allocator(value);
  } else if (key == "vc_arb") {
    cfg.vc_arb = parse_arbiter(value);
  } else if (key == "sw_alloc") {
    cfg.sw_alloc = parse_allocator(value);
  } else if (key == "sw_arb") {
    cfg.sw_arb = parse_arbiter(value);
  } else if (key == "spec") {
    cfg.spec = parse_spec(value);
  } else if (key == "buffer_depth") {
    cfg.buffer_depth = parse_size(value);
    NOCALLOC_CHECK(cfg.buffer_depth >= 1);
  } else if (key == "pattern") {
    cfg.pattern = parse_pattern(value);
  } else if (key == "injection_rate") {
    cfg.injection_rate = parse_double(value);
    NOCALLOC_CHECK(cfg.injection_rate >= 0.0);
  } else if (key == "ugal_threshold") {
    cfg.ugal_threshold = parse_size(value);
  } else if (key == "warmup_cycles") {
    cfg.warmup_cycles = parse_size(value);
  } else if (key == "measure_cycles") {
    cfg.measure_cycles = parse_size(value);
  } else if (key == "drain_cycles") {
    cfg.drain_cycles = parse_size(value);
  } else if (key == "seed") {
    cfg.seed = parse_size(value);
  } else if (key == "check_invariants") {
    cfg.check_invariants = parse_bool(value);
  } else if (key == "disable_datelines") {
    cfg.disable_datelines = parse_bool(value);
  } else {
    NOCALLOC_CHECK(false);  // unknown key
  }
}

}  // namespace

void apply_override(SimConfig& cfg, const std::string& assignment) {
  const auto eq = assignment.find('=');
  NOCALLOC_CHECK(eq != std::string::npos);
  apply(cfg, trim(assignment.substr(0, eq)), trim(assignment.substr(eq + 1)));
}

SimConfig parse_sim_config(std::istream& in, SimConfig base) {
  std::string line;
  while (std::getline(in, line)) {
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    apply_override(base, trimmed);
  }
  return base;
}

std::string to_config_string(const SimConfig& cfg) {
  std::ostringstream out;
  out << "topology = " << to_string(cfg.topology) << "\n"
      << "vcs_per_class = " << cfg.vcs_per_class << "\n"
      << "vc_alloc = " << to_string(cfg.vc_alloc) << "\n"
      << "vc_arb = " << to_string(cfg.vc_arb) << "\n"
      << "sw_alloc = " << to_string(cfg.sw_alloc) << "\n"
      << "sw_arb = " << to_string(cfg.sw_arb) << "\n"
      << "spec = " << to_string(cfg.spec) << "\n"
      << "buffer_depth = " << cfg.buffer_depth << "\n"
      << "pattern = " << to_string(cfg.pattern) << "\n"
      << "injection_rate = " << cfg.injection_rate << "\n"
      << "ugal_threshold = " << cfg.ugal_threshold << "\n"
      << "warmup_cycles = " << cfg.warmup_cycles << "\n"
      << "measure_cycles = " << cfg.measure_cycles << "\n"
      << "drain_cycles = " << cfg.drain_cycles << "\n"
      << "seed = " << cfg.seed << "\n"
      << "check_invariants = " << (cfg.check_invariants ? "true" : "false")
      << "\n"
      << "disable_datelines = " << (cfg.disable_datelines ? "true" : "false")
      << "\n";
  return out.str();
}

}  // namespace nocalloc::noc
