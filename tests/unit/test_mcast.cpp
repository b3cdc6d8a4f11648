#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mcast/session.hpp"
#include "net/builders.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

class CountingAgent final : public Agent {
 public:
  void handle_packet(const Packet& p) override {
    ++count;
    last_uid = p.uid;
  }
  int count{0};
  std::uint64_t last_uid{0};
};

PacketPtr make_mcast(Simulator& sim, NodeId src, GroupId g, PortId dport) {
  auto p = make_heap_packet();
  p->uid = sim.next_uid();
  p->src = src;
  p->group = g;
  p->dport = dport;
  p->size_bytes = 100;
  return p;
}

struct StarFixture {
  StarFixture() : sim{1}, topo{sim} {
    LinkConfig cfg;
    cfg.rate_bps = 1e9;
    cfg.delay = 1_ms;
    star = make_star(topo, cfg, std::vector<LinkConfig>(4, cfg));
  }
  Simulator sim;
  Topology topo;
  Star star;
};

/// Packet conservation once the run has drained: every packet a link
/// accepted has completed transmission and none is left in the link.
void expect_links_drained(StarFixture& f) {
  Link* trunk = f.topo.link_between(f.star.sender, f.star.hub);
  EXPECT_EQ(trunk->in_link_packets(), 0);
  EXPECT_EQ(trunk->delivered_packets(), trunk->queue().accepted());
  for (const auto& [down, up] : f.star.leaf_links) {
    EXPECT_EQ(down->in_link_packets(), 0);
    EXPECT_EQ(down->delivered_packets(), down->queue().accepted());
    EXPECT_EQ(up->in_link_packets(), 0);
  }
}

TEST(Mcast, DeliversToAllMembers) {
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  std::vector<CountingAgent> agents(4);
  for (int i = 0; i < 4; ++i) {
    f.topo.node(f.star.leaves[static_cast<size_t>(i)]).attach_agent(7, &agents[static_cast<size_t>(i)]);
    sess.join(f.star.leaves[static_cast<size_t>(i)]);
  }
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  for (const auto& a : agents) EXPECT_EQ(a.count, 1);
  expect_links_drained(f);
}

TEST(Mcast, NonMembersGetNothing) {
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  CountingAgent member, bystander;
  f.topo.node(f.star.leaves[0]).attach_agent(7, &member);
  f.topo.node(f.star.leaves[1]).attach_agent(7, &bystander);
  sess.join(f.star.leaves[0]);  // leaf 1 never joins
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  EXPECT_EQ(member.count, 1);
  EXPECT_EQ(bystander.count, 0);
}

TEST(Mcast, NoDuplicateDeliveryOnSharedTrunk) {
  // Chain: sender - r1 - r2, members at r2 and a leaf behind r2; the trunk
  // link sender->r1->r2 must carry each packet once.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId r1 = topo.add_node();
  const NodeId r2 = topo.add_node();
  const NodeId leaf = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 1_ms;
  topo.add_duplex_link(s, r1, cfg);
  topo.add_duplex_link(r1, r2, cfg);
  topo.add_duplex_link(r2, leaf, cfg);
  topo.compute_routes();

  MulticastSession sess{topo, s, 7};
  CountingAgent at_r2, at_leaf;
  topo.node(r2).attach_agent(7, &at_r2);
  topo.node(leaf).attach_agent(7, &at_leaf);
  sess.join(r2);
  sess.join(leaf);
  sess.send_from_source(make_mcast(sim, s, sess.group(), 7));
  sim.run();
  EXPECT_EQ(at_r2.count, 1);
  EXPECT_EQ(at_leaf.count, 1);
  // The trunk carried the packet exactly once per link.
  EXPECT_EQ(topo.link_between(s, r1)->delivered_packets(), 1);
  EXPECT_EQ(topo.link_between(r1, r2)->delivered_packets(), 1);
}

TEST(Mcast, LeavePrunesDelivery) {
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  CountingAgent a0, a1;
  f.topo.node(f.star.leaves[0]).attach_agent(7, &a0);
  f.topo.node(f.star.leaves[1]).attach_agent(7, &a1);
  sess.join(f.star.leaves[0]);
  sess.join(f.star.leaves[1]);
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  sess.leave(f.star.leaves[1]);
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  EXPECT_EQ(a0.count, 2);
  EXPECT_EQ(a1.count, 1);
  expect_links_drained(f);
}

TEST(Mcast, MembershipQueries) {
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  EXPECT_EQ(sess.member_count(), 0);
  sess.join(f.star.leaves[0]);
  EXPECT_TRUE(sess.is_member(f.star.leaves[0]));
  EXPECT_FALSE(sess.is_member(f.star.leaves[1]));
  EXPECT_EQ(sess.member_count(), 1);
  sess.leave(f.star.leaves[0]);
  EXPECT_EQ(sess.member_count(), 0);
}

TEST(Mcast, DynamicJoinMidStream) {
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  CountingAgent late;
  f.topo.node(f.star.leaves[2]).attach_agent(7, &late);
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  EXPECT_EQ(late.count, 0);
  sess.join(f.star.leaves[2]);
  sess.send_from_source(make_mcast(f.sim, f.star.sender, sess.group(), 7));
  f.sim.run();
  EXPECT_EQ(late.count, 1);
  expect_links_drained(f);
}

TEST(Mcast, TwoIndependentGroups) {
  StarFixture f;
  MulticastSession s1{f.topo, f.star.sender, 7};
  MulticastSession s2{f.topo, f.star.sender, 8};
  CountingAgent a7, a8;
  f.topo.node(f.star.leaves[0]).attach_agent(7, &a7);
  f.topo.node(f.star.leaves[0]).attach_agent(8, &a8);
  s1.join(f.star.leaves[0]);
  s2.join(f.star.leaves[0]);
  s1.send_from_source(make_mcast(f.sim, f.star.sender, s1.group(), 7));
  f.sim.run();
  EXPECT_EQ(a7.count, 1);
  EXPECT_EQ(a8.count, 0);
}

TEST(Mcast, RemoveModeledClampsAtZero) {
  // A mismatched remove (more modeled receivers than were added) must not
  // drive the endpoint accounting negative.
  StarFixture f;
  MulticastSession sess{f.topo, f.star.sender, 7};
  sess.join(f.star.leaves[0]);
  sess.add_modeled(10);
  EXPECT_EQ(sess.total_endpoint_count(), 10);  // 1 member - 1 tap + 10
  sess.remove_modeled(25);                     // buggy caller over-removes
  EXPECT_EQ(sess.modeled_count(), 0);
  EXPECT_EQ(sess.modeled_taps(), 0);
  EXPECT_EQ(sess.total_endpoint_count(), 1);
  sess.remove_modeled(5);  // double remove: still clamped
  EXPECT_EQ(sess.modeled_count(), 0);
  EXPECT_EQ(sess.modeled_taps(), 0);
  EXPECT_EQ(sess.total_endpoint_count(), 1);
}

TEST(Mcast, SessionsWithDistinctPortPairsShareANode) {
  // Two sessions on the same topology with disjoint (data, control) port
  // pairs: a node subscribed to both receives each session's data on the
  // right port only — the multiplexing contract SessionManager relies on.
  StarFixture f;
  MulticastSession s1{f.topo, f.star.sender, 100, 101};
  MulticastSession s2{f.topo, f.star.sender, 102, 103};
  EXPECT_EQ(s1.control_port(), 101);
  EXPECT_EQ(s2.control_port(), 103);
  CountingAgent rx1, rx2;
  f.topo.node(f.star.leaves[0]).attach_agent(100, &rx1);
  f.topo.node(f.star.leaves[0]).attach_agent(102, &rx2);
  s1.join(f.star.leaves[0]);
  s2.join(f.star.leaves[0]);
  s1.send_from_source(make_mcast(f.sim, f.star.sender, s1.group(), 100));
  s2.send_from_source(make_mcast(f.sim, f.star.sender, s2.group(), 102));
  s2.send_from_source(make_mcast(f.sim, f.star.sender, s2.group(), 102));
  f.sim.run();
  EXPECT_EQ(rx1.count, 1);
  EXPECT_EQ(rx2.count, 2);
}

TEST(Mcast, UnreachableMemberThrows) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId isolated = topo.add_node();
  topo.compute_routes();
  MulticastSession sess{topo, s, 7};
  EXPECT_THROW(sess.join(isolated), std::logic_error);
}

}  // namespace
}  // namespace tfmcc
