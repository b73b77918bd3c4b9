#include "noc/config.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace nocalloc::noc {
namespace {

TEST(SimConfigParse, EmptyInputKeepsDefaults) {
  std::istringstream in("");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kMesh8x8);
  EXPECT_EQ(cfg.vcs_per_class, 1u);
  EXPECT_EQ(cfg.spec, SpecMode::kPessimistic);
  EXPECT_EQ(cfg.buffer_depth, 8u);
}

TEST(SimConfigParse, ParsesAllKeys) {
  std::istringstream in(
      "# full config\n"
      "topology = fbfly\n"
      "vcs_per_class = 4\n"
      "vc_alloc = wf\n"
      "vc_arb = m\n"
      "sw_alloc = sep_of\n"
      "sw_arb = m\n"
      "spec = spec_gnt\n"
      "buffer_depth = 16\n"
      "pattern = tornado\n"
      "injection_rate = 0.35\n"
      "ugal_threshold = 5\n"
      "warmup_cycles = 100\n"
      "measure_cycles = 200\n"
      "drain_cycles = 300\n"
      "seed = 99\n");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kFbfly4x4);
  EXPECT_EQ(cfg.vcs_per_class, 4u);
  EXPECT_EQ(cfg.vc_alloc, AllocatorKind::kWavefront);
  EXPECT_EQ(cfg.vc_arb, ArbiterKind::kMatrix);
  EXPECT_EQ(cfg.sw_alloc, AllocatorKind::kSeparableOutputFirst);
  EXPECT_EQ(cfg.sw_arb, ArbiterKind::kMatrix);
  EXPECT_EQ(cfg.spec, SpecMode::kConservative);
  EXPECT_EQ(cfg.buffer_depth, 16u);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kTornado);
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 0.35);
  EXPECT_EQ(cfg.ugal_threshold, 5u);
  EXPECT_EQ(cfg.warmup_cycles, 100u);
  EXPECT_EQ(cfg.measure_cycles, 200u);
  EXPECT_EQ(cfg.drain_cycles, 300u);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(SimConfigParse, InlineCommentsAndWhitespace) {
  std::istringstream in("  topology=ring   # trailing comment\n\n"
                        "\tseed =  7\n");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.topology, TopologyKind::kRing16);
  EXPECT_EQ(cfg.seed, 7u);
}

TEST(SimConfigParse, MaximumSizeAllocatorsRoundTrip) {
  std::istringstream in("vc_alloc = max\nsw_alloc = max\n");
  const SimConfig cfg = parse_sim_config(in);
  EXPECT_EQ(cfg.vc_alloc, AllocatorKind::kMaximumSize);
  EXPECT_EQ(cfg.sw_alloc, AllocatorKind::kMaximumSize);
  std::istringstream again(to_config_string(cfg));
  EXPECT_EQ(to_config_string(parse_sim_config(again)), to_config_string(cfg));
}

TEST(SimConfigParse, RoundTripsThroughToConfigString) {
  std::istringstream in("topology = torus\nvcs_per_class = 2\nspec = nonspec\n");
  const SimConfig cfg = parse_sim_config(in);
  std::istringstream again(to_config_string(cfg));
  const SimConfig reparsed = parse_sim_config(again);
  EXPECT_EQ(to_config_string(reparsed), to_config_string(cfg));
}

TEST(SimConfigParse, RejectsUnknownKey) {
  std::istringstream in("frobnicate = 3\n");
  EXPECT_DEATH(parse_sim_config(in), "check failed");
}

TEST(SimConfigParse, RejectsBadValues) {
  std::istringstream bad_topo("topology = hypercube\n");
  EXPECT_DEATH(parse_sim_config(bad_topo), "check failed");
  std::istringstream bad_num("buffer_depth = eight\n");
  EXPECT_DEATH(parse_sim_config(bad_num), "check failed");
  std::istringstream zero_depth("buffer_depth = 0\n");
  EXPECT_DEATH(parse_sim_config(zero_depth), "check failed");
}

TEST(ApplyOverride, OverridesSingleKey) {
  SimConfig cfg;
  apply_override(cfg, "injection_rate=0.42");
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 0.42);
}

TEST(ApplyOverride, RejectsMissingEquals) {
  SimConfig cfg;
  EXPECT_DEATH(apply_override(cfg, "injection_rate 0.42"), "check failed");
}

TEST(SimConfigParse, BaseConfigIsLayered) {
  SimConfig base;
  base.vcs_per_class = 4;
  std::istringstream in("seed = 5\n");
  const SimConfig cfg = parse_sim_config(in, base);
  EXPECT_EQ(cfg.vcs_per_class, 4u);  // untouched keys keep the base value
  EXPECT_EQ(cfg.seed, 5u);
}

TEST(SimConfigParse, ParsedConfigRunsEndToEnd) {
  std::istringstream in(
      "topology = mesh\n"
      "injection_rate = 0.05\n"
      "warmup_cycles = 500\n"
      "measure_cycles = 1000\n"
      "drain_cycles = 1000\n");
  const SimResult r = run_simulation(parse_sim_config(in));
  EXPECT_GT(r.packets_measured, 50u);
  EXPECT_FALSE(r.saturated);
}

}  // namespace
}  // namespace nocalloc::noc
