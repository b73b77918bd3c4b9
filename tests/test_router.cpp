// Single-router white-box tests: a Router is wired to hand-driven channels
// and stepped phase by phase, verifying pipeline timing, credit flow, VC
// lifecycle and speculation behaviour in isolation.
#include "noc/router.hpp"

#include "noc/packet_arena.hpp"

#include <gtest/gtest.h>

namespace nocalloc::noc {
namespace {

/// Routing stub: fixed output port / class for every packet.
class FixedRouting final : public RoutingFunction {
 public:
  explicit FixedRouting(int out_port) : out_port_(out_port) {}
  std::size_t at_injection(int, Packet&) override { return 0; }
  RouteInfo route(int, Packet&, std::size_t klass) override {
    return {out_port_, klass};
  }

 private:
  int out_port_;
};

/// Test fixture: a P=2 router (port 0 = input side under test, port 1 =
/// output side under test) with M=2, R=1, C=1 (V = 2).
class RouterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDepth = 8;

  RouterConfig config(SpecMode spec) {
    RouterConfig cfg;
    cfg.ports = 2;
    cfg.partition = VcPartition::mesh(2, 1);
    cfg.buffer_depth = kDepth;
    cfg.spec = spec;
    return cfg;
  }

  void build(SpecMode spec) {
    router_ = std::make_unique<Router>(0, config(spec), routing_, arena_);
    router_->attach_input(0, &in_flits_, &in_credits_);
    router_->attach_output(1, &out_flits_, &out_credits_, /*downstream=*/-1);
  }

  /// Runs one router cycle and collects anything that comes out.
  void step() {
    router_->allocate(now_);
    router_->receive(now_);
    if (auto flit = out_flits_.receive(now_)) egressed_.push_back(*flit);
    if (auto credit = in_credits_.receive(now_)) credits_.push_back(*credit);
    ++now_;
  }

  /// Sends a packet's flits back to back on input VC `vc`, starting now.
  PacketHandle send_packet(std::size_t length, int vc, Cycle* when = nullptr) {
    const PacketHandle pkt = arena_.allocate();
    arena_.get(pkt).id = next_id_++;
    arena_.get(pkt).length = length;
    arena_.get(pkt).type = PacketType::kReadRequest;  // message class 0
    for (std::size_t i = 0; i < length; ++i) {
      Flit flit;
      flit.packet = pkt;
      flit.index = i;
      flit.head = i == 0;
      flit.tail = i + 1 == length;
      flit.vc = vc;
      if (flit.head) flit.route = {1, 0};
      in_flits_.send(flit, when != nullptr ? (*when)++ : now_ + i);
    }
    return pkt;
  }

  FixedRouting routing_{1};
  PacketArena arena_;
  std::unique_ptr<Router> router_;
  // Router-driven channels (out_flits_, in_credits_) carry the folded ST
  // stage, so their latency is 2; channels the test drives stay at 1.
  Channel<Flit> in_flits_{1};
  Channel<Credit> in_credits_{2};
  Channel<Flit> out_flits_{2};
  Channel<Credit> out_credits_{1};
  Cycle now_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Flit> egressed_;
  std::vector<Credit> credits_;
};

TEST_F(RouterTest, SpeculativeSingleFlitTraversesInThreeCycles) {
  build(SpecMode::kPessimistic);
  send_packet(1, 0);  // flit on the wire at t=0
  // t=1: received; t=2: VA+SA (speculative, same cycle) and the grant goes
  // straight onto the output wire (latency 2 carries the ST stage), so the
  // flit is readable at t=4.
  for (int i = 0; i < 5; ++i) step();
  ASSERT_EQ(egressed_.size(), 1u);
  EXPECT_EQ(now_, 5u);
  EXPECT_TRUE(egressed_[0].head);
  EXPECT_TRUE(egressed_[0].tail);
}

TEST_F(RouterTest, NonSpeculativeTakesOneCycleMore) {
  build(SpecMode::kNonSpeculative);
  send_packet(1, 0);
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(egressed_.size(), 0u) << "flit should still be in the pipeline";
  step();
  ASSERT_EQ(egressed_.size(), 1u);
}

TEST_F(RouterTest, BodyFlitsFollowPipelined) {
  build(SpecMode::kPessimistic);
  send_packet(5, 0);
  for (int i = 0; i < 12; ++i) step();
  ASSERT_EQ(egressed_.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(egressed_[i].index, i) << "flits out of order";
  }
  EXPECT_TRUE(egressed_.back().tail);
}

TEST_F(RouterTest, CreditReturnedPerForwardedFlit) {
  build(SpecMode::kPessimistic);
  send_packet(3, 0);
  for (int i = 0; i < 12; ++i) step();
  ASSERT_EQ(credits_.size(), 3u);
  for (const Credit& c : credits_) EXPECT_EQ(c.vc, 0);
}

TEST_F(RouterTest, OutputVcAssignedWithinClassOfPacket) {
  build(SpecMode::kPessimistic);
  send_packet(1, 0);  // message class 0 -> must get output VC 0 (C = 1)
  for (int i = 0; i < 5; ++i) step();
  ASSERT_EQ(egressed_.size(), 1u);
  EXPECT_EQ(egressed_[0].vc, 0);
}

TEST_F(RouterTest, BackpressureStopsAtBufferDepth) {
  build(SpecMode::kPessimistic);
  // Two long packets on the same VC; the downstream never returns credits.
  Cycle when = 0;
  send_packet(6, 0, &when);
  send_packet(6, 0, &when);
  for (int i = 0; i < 40; ++i) step();
  // Exactly kDepth flits can leave before credits run out.
  EXPECT_EQ(egressed_.size(), kDepth);
}

TEST_F(RouterTest, CreditsResumeProgress) {
  build(SpecMode::kPessimistic);
  Cycle when = 0;
  send_packet(6, 0, &when);
  send_packet(6, 0, &when);
  for (int i = 0; i < 40; ++i) step();
  ASSERT_EQ(egressed_.size(), kDepth);
  // Return four credits; four more flits must flow.
  for (int i = 0; i < 4; ++i) {
    out_credits_.send(Credit{egressed_[static_cast<std::size_t>(i)].vc},
                      now_ - 1 + static_cast<Cycle>(i));
  }
  for (int i = 0; i < 12; ++i) step();
  EXPECT_EQ(egressed_.size(), kDepth + 4);
}

TEST_F(RouterTest, TailReleasesOutputVcForNextPacket) {
  build(SpecMode::kPessimistic);
  Cycle when = 0;
  send_packet(2, 0, &when);
  send_packet(2, 0, &when);  // same input VC, back to back
  for (int i = 0; i < 12; ++i) step();
  // Both packets fully forwarded implies the second acquired the output VC
  // after the first's tail released it.
  ASSERT_EQ(egressed_.size(), 4u);
  EXPECT_TRUE(egressed_[1].tail);
  EXPECT_TRUE(egressed_[2].head);
}

TEST_F(RouterTest, TwoInputVcsShareOutputPortOneFlitPerCycle) {
  build(SpecMode::kPessimistic);
  // Different message classes on different input VCs, same output port.
  const PacketHandle pkt_b = arena_.allocate();
  arena_.get(pkt_b).id = 99;
  arena_.get(pkt_b).length = 1;
  arena_.get(pkt_b).type = PacketType::kReadReply;  // message class 1 -> VC 1
  Flit flit;
  flit.packet = pkt_b;
  flit.head = flit.tail = true;
  flit.vc = 1;
  flit.route = {1, 0};
  in_flits_.send(flit, 0);

  Cycle when = 1;
  send_packet(1, 0, &when);
  for (int i = 0; i < 8; ++i) step();
  ASSERT_EQ(egressed_.size(), 2u);
  // Output VCs differ (class partition), so both packets flow, serialized
  // through the single crossbar output.
  EXPECT_NE(egressed_[0].vc, egressed_[1].vc);
}

TEST_F(RouterTest, MisspeculationCountedWhenVaFails) {
  build(SpecMode::kPessimistic);
  // Packet A (head only, no tail yet to come) claims the only class-0
  // output VC and keeps it.
  Cycle when = 0;
  const PacketHandle pkt_a = arena_.allocate();
  arena_.get(pkt_a).id = 1;
  arena_.get(pkt_a).length = 2;
  arena_.get(pkt_a).type = PacketType::kReadRequest;
  Flit head_a;
  head_a.packet = pkt_a;
  head_a.head = true;
  head_a.index = 0;
  head_a.vc = 0;
  head_a.route = {1, 0};
  in_flits_.send(head_a, when++);
  for (int i = 0; i < 6; ++i) step();
  ASSERT_EQ(egressed_.size(), 1u);  // A's head left; A still holds the VC

  // Packet B arrives on the *other* input port wanting the same class at
  // the same output port: VC allocation must fail (VC taken), and its
  // speculative switch request becomes a misspeculation.
  Channel<Flit> in2{1};
  Channel<Credit> in2_credits{2};
  router_->attach_input(1, &in2, &in2_credits);
  const PacketHandle pkt_b = arena_.allocate();
  arena_.get(pkt_b).id = 2;
  arena_.get(pkt_b).length = 1;
  arena_.get(pkt_b).type = PacketType::kReadRequest;
  Flit head_b;
  head_b.packet = pkt_b;
  head_b.head = head_b.tail = true;
  head_b.vc = 0;
  head_b.route = {1, 0};
  in2.send(head_b, now_);
  const std::uint64_t before = router_->stats().misspeculations;
  for (int i = 0; i < 4; ++i) step();
  EXPECT_GT(router_->stats().misspeculations, before);
  EXPECT_EQ(egressed_.size(), 1u) << "B must not traverse without a VC";
}

TEST_F(RouterTest, FlitsNeverReorderWithinAPacket) {
  build(SpecMode::kPessimistic);
  // Two packets back to back; every flit must leave in (packet, index)
  // order -- heads cannot be overtaken by later bodies or vice versa.
  Cycle when = 0;
  auto p1 = send_packet(5, 0, &when);
  auto p2 = send_packet(3, 0, &when);
  for (int i = 0; i < 20; ++i) step();
  ASSERT_EQ(egressed_.size(), 8u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(arena_.get(egressed_[i].packet).id, arena_.get(p1).id);
    EXPECT_EQ(egressed_[i].index, i);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(arena_.get(egressed_[5 + i].packet).id, arena_.get(p2).id);
    EXPECT_EQ(egressed_[5 + i].index, i);
  }
}

TEST_F(RouterTest, CongestionDropsWhenCreditsReturn) {
  build(SpecMode::kPessimistic);
  send_packet(2, 0);
  for (int i = 0; i < 8; ++i) step();
  ASSERT_EQ(router_->output_congestion(1), 2u);
  out_credits_.send(Credit{egressed_[0].vc}, now_ - 1);
  step();
  EXPECT_EQ(router_->output_congestion(1), 1u);
}

TEST_F(RouterTest, SuccessivePacketsReuseTheSameOutputVc) {
  build(SpecMode::kPessimistic);
  // With C = 1 both packets of the same message class must use output VC 0
  // -- the second can only acquire it after the first's tail released it.
  Cycle when = 0;
  send_packet(2, 0, &when);
  send_packet(2, 0, &when);
  for (int i = 0; i < 14; ++i) step();
  ASSERT_EQ(egressed_.size(), 4u);
  for (const Flit& f : egressed_) EXPECT_EQ(f.vc, 0);
}

TEST_F(RouterTest, StatsCountRoutedFlitsAndVcAllocs) {
  build(SpecMode::kPessimistic);
  send_packet(3, 0);
  for (int i = 0; i < 10; ++i) step();
  EXPECT_EQ(router_->stats().flits_routed, 3u);
  EXPECT_EQ(router_->stats().vc_allocs, 1u);
  EXPECT_GT(router_->stats().spec_grants_used, 0u);
}

TEST_F(RouterTest, CongestionReflectsConsumedCredits) {
  build(SpecMode::kPessimistic);
  EXPECT_EQ(router_->output_congestion(1), 0u);
  send_packet(4, 0);
  for (int i = 0; i < 12; ++i) step();
  // Four flits sent downstream, no credits returned: 4 slots consumed.
  EXPECT_EQ(router_->output_congestion(1), 4u);
}

TEST_F(RouterTest, BufferedFlitCountTracksOccupancy) {
  build(SpecMode::kPessimistic);
  EXPECT_EQ(router_->buffered_flits(), 0u);
  send_packet(5, 0);
  // Cycle 0: the first flit is still on the wire (latency 1).
  router_->allocate(now_);
  router_->receive(now_);
  ++now_;
  EXPECT_EQ(router_->buffered_flits(), 0u);
  // Cycle 1: allocate runs before receive, so the flit that arrives this
  // cycle is buffered but not yet forwarded.
  router_->allocate(now_);
  router_->receive(now_);
  ++now_;
  EXPECT_EQ(router_->buffered_flits(), 1u);
}

TEST_F(RouterTest, RejectsShapesWiderThanOneAllocationWord) {
  // The allocation stage packs ports and per-port VCs into single words.
  RouterConfig wide_ports = config(SpecMode::kPessimistic);
  wide_ports.ports = 65;
  EXPECT_DEATH({ Router r(0, wide_ports, routing_, arena_); },
               "more than 64 ports");
  RouterConfig wide_vcs = config(SpecMode::kPessimistic);
  wide_vcs.partition = VcPartition::mesh(2, 33);  // V = 66
  EXPECT_DEATH({ Router r(0, wide_vcs, routing_, arena_); },
               "more than 64 VCs");
}

}  // namespace
}  // namespace nocalloc::noc
