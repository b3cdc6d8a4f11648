#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/builders.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// Test agent that records deliveries.
class RecordingAgent final : public Agent {
 public:
  explicit RecordingAgent(Simulator& sim) : sim_{sim} {}
  void handle_packet(const Packet& p) override {
    uids.push_back(p.uid);
    times.push_back(sim_.now());
  }
  std::vector<std::uint64_t> uids;
  std::vector<SimTime> times;

 private:
  Simulator& sim_;
};

PacketPtr make_unicast(Simulator& sim, NodeId src, NodeId dst, PortId dport,
                       std::int32_t bytes) {
  auto p = make_heap_packet();
  p->uid = sim.next_uid();
  p->src = src;
  p->dst = dst;
  p->dport = dport;
  p->size_bytes = bytes;
  p->created = sim.now();
  return p;
}

struct TwoNodeFixture {
  TwoNodeFixture(double rate_bps, SimTime delay, double loss = 0.0)
      : sim{1}, topo{sim}, agent{sim} {
    a = topo.add_node();
    b = topo.add_node();
    LinkConfig cfg;
    cfg.rate_bps = rate_bps;
    cfg.delay = delay;
    cfg.loss_rate = loss;
    topo.add_duplex_link(a, b, cfg);
    topo.compute_routes();
    topo.node(b).attach_agent(5, &agent);
  }
  Simulator sim;
  Topology topo;
  RecordingAgent agent;
  NodeId a{}, b{};
};

TEST(Link, DeliversAfterTransmissionPlusPropagation) {
  TwoNodeFixture f{8e6, 10_ms};  // 8 Mbit/s, 10 ms
  // 1000 bytes at 8 Mbit/s = 1 ms serialisation; total 11 ms.
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  f.sim.run();
  ASSERT_EQ(f.agent.uids.size(), 1u);
  EXPECT_EQ(f.agent.times[0], 11_ms);
}

TEST(Link, SerialisesBackToBackPackets) {
  TwoNodeFixture f{8e6, 10_ms};
  for (int i = 0; i < 3; ++i) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  }
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 3u);
  EXPECT_EQ(f.agent.times[0], 11_ms);  // 1 ms tx + 10 ms prop
  EXPECT_EQ(f.agent.times[1], 12_ms);  // queued behind first
  EXPECT_EQ(f.agent.times[2], 13_ms);
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.delay = 1_ms;
  cfg.queue_limit_packets = 2;
  auto [ab, ba] = topo.add_duplex_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  // Burst of 10: 1 in transmission + 2 queued survive.
  for (int i = 0; i < 10; ++i) {
    topo.node(a).send(make_unicast(sim, a, b, 5, 1000));
  }
  sim.run();
  EXPECT_EQ(agent.uids.size(), 3u);
  EXPECT_EQ(ab->queue_drops(), 7);
  EXPECT_EQ(ab->queue().accepted(), 3);
  EXPECT_EQ(ab->delivered_packets(), 3);
  EXPECT_EQ(ab->in_link_packets(), 0);
}

TEST(Link, SendAtACompletionTimeFindsTheNextPacketTransmitting) {
  // Tie rule: at `now`, a packet with start <= now is in transmission and
  // one with done <= now has completed.  Limit 1, 1 ms per packet: p1
  // transmits over [0, 1) ms, p2 waits and starts at 1 ms.  p3 sent at
  // exactly 1 ms finds no backlog (p2 is transmitting), so it is accepted,
  // and p1 already counts as delivered.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.delay = 1_ms;
  cfg.queue_limit_packets = 1;
  Link& l = topo.add_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  l.send(make_unicast(sim, a, b, 5, 1000));
  sim.at(500_us, [&] { l.send(make_unicast(sim, a, b, 5, 1000)); });
  std::int64_t delivered_at_tie = -1;
  std::int64_t in_link_at_tie = -1;
  sim.at(1_ms, [&] {
    l.send(make_unicast(sim, a, b, 5, 1000));
    delivered_at_tie = l.delivered_packets();
    in_link_at_tie = l.in_link_packets();
  });
  sim.run();
  EXPECT_EQ(l.queue_drops(), 0);
  EXPECT_EQ(delivered_at_tie, 1);
  EXPECT_EQ(in_link_at_tie, 2);
  ASSERT_EQ(agent.times.size(), 3u);
  EXPECT_EQ(agent.times[2], 4_ms);  // starts at 2 ms, done at 3 ms
  EXPECT_EQ(l.in_link_packets(), 0);
}

TEST(Link, BernoulliLossDropsApproximatelyPFraction) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 1_ms;
  cfg.loss_rate = 0.25;
  cfg.queue_limit_packets = 100000;  // isolate the loss model from the queue
  topo.add_duplex_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    topo.node(a).send(make_unicast(sim, a, b, 5, 100));
  }
  sim.run();
  const double received = static_cast<double>(agent.uids.size());
  EXPECT_NEAR(received / n, 0.75, 0.03);
}

TEST(Link, SetLossRateTakesEffect) {
  TwoNodeFixture f{1e9, 1_ms, 0.0};
  Link* l = f.topo.link_between(f.a, f.b);
  ASSERT_NE(l, nullptr);
  l->set_loss_rate(1.0);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
  EXPECT_EQ(l->loss_model_drops(), 1);
}

TEST(Link, SetDelayAffectsSubsequentPackets) {
  TwoNodeFixture f{1e9, 1_ms};
  Link* l = f.topo.link_between(f.a, f.b);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  l->set_delay(50_ms);
  const SimTime before = f.sim.now();
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 2u);
  EXPECT_GE(f.agent.times[1] - before, 50_ms);
}

TEST(Link, SetDelayReachesThePacketInTransmissionAndTheQueue) {
  // 1000 bytes at 8 Mbit/s = 1 ms serialisation.  Three packets sent at 0
  // finish transmitting at 1, 2 and 3 ms; at 0.5 ms the first is mid-
  // transmission and two wait, so the new delay applies to all three.
  TwoNodeFixture f{8e6, 10_ms};
  Link* l = f.topo.link_between(f.a, f.b);
  for (int i = 0; i < 3; ++i) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  }
  f.sim.at(500_us, [l] { l->set_delay(20_ms); });
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 3u);
  EXPECT_EQ(f.agent.times[0], 21_ms);
  EXPECT_EQ(f.agent.times[1], 22_ms);
  EXPECT_EQ(f.agent.times[2], 23_ms);
}

TEST(Link, SetDelaySparesCompletedPacketsAndKeepsFifo) {
  // At 1.5 ms the first packet has finished transmitting (arrival 11 ms)
  // and keeps its delay; the second (mid-transmission) and third take the
  // shorter one but may not overtake the first: the FIFO guard holds them
  // at 11 ms, in send order.
  TwoNodeFixture f{8e6, 10_ms};
  Link* l = f.topo.link_between(f.a, f.b);
  for (int i = 0; i < 3; ++i) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  }
  f.sim.at(1500_us, [l] { l->set_delay(1_ms); });
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 3u);
  EXPECT_EQ(f.agent.times[0], 11_ms);
  EXPECT_EQ(f.agent.times[1], 11_ms);
  EXPECT_EQ(f.agent.times[2], 11_ms);
  EXPECT_LT(f.agent.uids[0], f.agent.uids[1]);
  EXPECT_LT(f.agent.uids[1], f.agent.uids[2]);
}

TEST(Link, DeliveredCountsCompletedTransmissionsOnly) {
  // delivered_packets() counts transmissions completed by now, not packets
  // accepted and not packets that reached the far node.
  TwoNodeFixture f{8e6, 10_ms};
  Link* l = f.topo.link_between(f.a, f.b);
  for (int i = 0; i < 3; ++i) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000 + 100 * i));
  }
  // Completions at 1, 2.1 and 3.3 ms; one query falls exactly on the first.
  std::vector<std::int64_t> packets, bytes;
  for (const SimTime t : {500_us, 1_ms, 1500_us, 2500_us, 5_ms}) {
    f.sim.at(t, [&packets, &bytes, l] {
      packets.push_back(l->delivered_packets());
      bytes.push_back(l->delivered_bytes());
    });
  }
  f.sim.run();
  EXPECT_EQ(packets, (std::vector<std::int64_t>{0, 1, 1, 2, 3}));
  EXPECT_EQ(bytes, (std::vector<std::int64_t>{0, 1000, 1000, 2100, 3300}));
  EXPECT_EQ(f.agent.uids.size(), 3u);
}

TEST(Link, JitterNeverReordersArrivals) {
  // Jitter far larger than the spacing of the packets: without the FIFO
  // guard arrivals would shuffle.
  Simulator sim{3};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 5_ms;
  cfg.jitter = 20_ms;
  cfg.queue_limit_packets = 1000;
  Link& l = topo.add_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 300; ++i) {
    // Bursts of three every 0.1 ms: queueing and idle gaps both occur.
    sim.at(SimTime::micros(100 * (i / 3)), [&, i] {
      PacketPtr p = make_unicast(sim, a, b, 5, 100 + i);
      sent.push_back(p->uid);
      l.send(p);
    });
  }
  sim.run();
  EXPECT_EQ(agent.uids, sent);
  for (std::size_t i = 1; i < agent.times.size(); ++i) {
    EXPECT_LE(agent.times[i - 1], agent.times[i]);
  }
  // The jitter really spread the arrivals beyond the bare delay.
  EXPECT_GT(agent.times.back(), 5_ms + SimTime::micros(100 * 99) + 1_ms);
}

TEST(Node, DeliversOnlyToMatchingPort) {
  TwoNodeFixture f{1e9, 1_ms};
  RecordingAgent other{f.sim};
  f.topo.node(f.b).attach_agent(6, &other);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_EQ(f.agent.uids.size(), 1u);
  EXPECT_TRUE(other.uids.empty());
}

TEST(Node, LocalDeliveryWithoutNetwork) {
  TwoNodeFixture f{1e9, 1_ms};
  RecordingAgent local{f.sim};
  f.topo.node(f.a).attach_agent(9, &local);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.a, 9, 100));
  f.sim.run();
  EXPECT_EQ(local.uids.size(), 1u);
}

TEST(Node, DetachStopsDelivery) {
  TwoNodeFixture f{1e9, 1_ms};
  f.topo.node(f.b).detach_agent(5);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
}

TEST(Node, ForwardsThroughIntermediateNode) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId mid = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 2_ms;
  topo.add_duplex_link(a, mid, cfg);
  topo.add_duplex_link(mid, c, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(c).attach_agent(5, &agent);
  topo.node(a).send(make_unicast(sim, a, c, 5, 100));
  sim.run();
  ASSERT_EQ(agent.uids.size(), 1u);
  EXPECT_GT(topo.node(mid).forwarded(), 0);
  EXPECT_GE(agent.times[0], 4_ms);  // two propagation hops
}

}  // namespace
}  // namespace tfmcc
