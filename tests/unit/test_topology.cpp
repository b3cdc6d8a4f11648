#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/builders.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(Topology, AddNodesAssignsSequentialIds) {
  Simulator sim{1};
  Topology topo{sim};
  EXPECT_EQ(topo.add_node(), 0);
  EXPECT_EQ(topo.add_node(), 1);
  EXPECT_EQ(topo.add_nodes(3), 2);
  EXPECT_EQ(topo.node_count(), 5);
}

TEST(Topology, RoutesPreferLowerDelay) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig slow;
  slow.delay = 100_ms;
  LinkConfig fast;
  fast.delay = 1_ms;
  // Direct a->b is slow; a->c->b is fast.
  topo.add_duplex_link(a, b, slow);
  topo.add_duplex_link(a, c, fast);
  topo.add_duplex_link(c, b, fast);
  topo.compute_routes();
  Link* next = topo.node(a).route(b);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->destination().id(), c);
  EXPECT_EQ(topo.path_delay(a, b), 2_ms);
}

TEST(Topology, TieBreaksByHopCount) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig two_ms;
  two_ms.delay = 2_ms;
  LinkConfig one_ms;
  one_ms.delay = 1_ms;
  topo.add_duplex_link(a, b, two_ms);       // direct: 2 ms, 1 hop
  topo.add_duplex_link(a, c, one_ms);       // via c: 2 ms, 2 hops
  topo.add_duplex_link(c, b, one_ms);
  topo.compute_routes();
  EXPECT_EQ(topo.node(a).route(b)->destination().id(), b);
}

TEST(Topology, EqualCostTieGoesToNeighbourNearestDestination) {
  // Diamond s -> {a, b} -> d, both ways 3 ms over 2 hops.  Via a the first
  // hop is short (1 + 2 ms); via b it is long (2 + 1 ms).  The route takes
  // the neighbour with the least remaining delay to d, so s goes via b and
  // d goes back via a.  A source-rooted search would have picked a.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId d = topo.add_node();
  LinkConfig one_ms;
  one_ms.delay = 1_ms;
  LinkConfig two_ms;
  two_ms.delay = 2_ms;
  topo.add_duplex_link(s, a, one_ms);
  topo.add_duplex_link(a, d, two_ms);
  Link* sb = topo.add_duplex_link(s, b, two_ms).first;
  topo.add_duplex_link(b, d, one_ms);
  topo.compute_routes();
  EXPECT_EQ(topo.route(s, d), sb);
  EXPECT_EQ(topo.route(d, s)->destination().id(), a);
  EXPECT_EQ(topo.path_delay(s, d), 3_ms);

  // Equal remaining delay too: the lower neighbour id wins, and among
  // parallel links to it the first one added.
  Simulator sim2{1};
  Topology sym{sim2};
  const NodeId s2 = sym.add_node();
  const NodeId low = sym.add_node();
  const NodeId high = sym.add_node();
  const NodeId d2 = sym.add_node();
  sym.add_duplex_link(s2, high, one_ms);
  sym.add_duplex_link(high, d2, one_ms);
  Link* to_low = sym.add_duplex_link(s2, low, one_ms).first;
  sym.add_duplex_link(low, d2, one_ms);
  sym.add_link(s2, low, one_ms);  // parallel to to_low, added later
  sym.compute_routes();
  EXPECT_EQ(sym.route(s2, d2), to_low);
}

TEST(Topology, RoutesUseTheDelaysOfTheLastComputeRoutes) {
  // a - b direct at 10 ms, a - c - b at 3 + 3 ms.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig slow;
  slow.delay = 10_ms;
  LinkConfig fast;
  fast.delay = 3_ms;
  auto [ab, ba] = topo.add_duplex_link(a, b, slow);
  auto [ac, ca] = topo.add_duplex_link(a, c, fast);
  topo.add_duplex_link(c, b, fast);
  topo.compute_routes();

  // The first query for b comes after the delay change: still via c.
  ac->set_delay(50_ms);
  EXPECT_EQ(topo.route(a, b), ac);
  topo.compute_routes();
  EXPECT_EQ(topo.route(a, b), ab);

  // A query before the change caches the column; the change does not touch
  // it, the next compute_routes() does.
  EXPECT_EQ(topo.route(b, a)->destination().id(), c);
  ca->set_delay(50_ms);
  EXPECT_EQ(topo.route(b, a)->destination().id(), c);
  topo.compute_routes();
  EXPECT_EQ(topo.route(b, a), ba);
}

TEST(Topology, LinksAndNodesAddedLaterRouteAfterComputeRoutes) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig slow;
  slow.delay = 10_ms;
  topo.add_duplex_link(a, c, slow);
  topo.add_duplex_link(c, b, slow);
  topo.compute_routes();
  EXPECT_EQ(topo.route(a, b)->destination().id(), c);

  // A faster direct link is ignored until routes are recomputed.
  LinkConfig fast;
  fast.delay = 1_ms;
  Link& direct = topo.add_link(a, b, fast);
  EXPECT_EQ(topo.route(a, b)->destination().id(), c);
  EXPECT_EQ(topo.path_delay(a, b), 20_ms);

  // A late node has no routes either way until then.
  const NodeId late = topo.add_node();
  topo.add_duplex_link(b, late, fast);
  EXPECT_EQ(topo.route(a, late), nullptr);
  EXPECT_EQ(topo.route(late, a), nullptr);
  EXPECT_EQ(topo.node(late).route(b), nullptr);
  EXPECT_TRUE(topo.path_delay(a, late).is_infinite());

  topo.compute_routes();
  EXPECT_EQ(topo.route(a, b), &direct);
  EXPECT_EQ(topo.route(a, late), &direct);
  EXPECT_EQ(topo.path_delay(a, late), 2_ms);
}

TEST(Topology, RouteIsNullForSelfUnreachableAndOutOfRange) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  const NodeId island = topo.add_node();
  auto [ab, ba] = topo.add_duplex_link(a, b, LinkConfig{});
  // Before the first compute_routes() nothing is routed.
  EXPECT_EQ(topo.route(a, b), nullptr);
  topo.compute_routes();
  EXPECT_EQ(topo.route(a, b), ab);
  EXPECT_EQ(topo.node(b).route(a), ba);
  EXPECT_EQ(topo.route(a, a), nullptr);
  EXPECT_EQ(topo.node(b).route(b), nullptr);
  EXPECT_EQ(topo.route(a, island), nullptr);
  EXPECT_EQ(topo.route(island, a), nullptr);
  EXPECT_EQ(topo.route(a, topo.node_count()), nullptr);
  EXPECT_EQ(topo.route(topo.node_count(), a), nullptr);
  EXPECT_EQ(topo.route(a, kInvalidNode), nullptr);
  EXPECT_EQ(topo.route(kInvalidNode, b), nullptr);
  EXPECT_EQ(topo.node(a).route(kInvalidNode), nullptr);
}

TEST(Topology, PathDelayUnreachableIsInfinite) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  topo.compute_routes();
  EXPECT_TRUE(topo.path_delay(a, b).is_infinite());
}

TEST(Topology, LinkBetweenFindsAdjacency) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  auto [ab, ba] = topo.add_duplex_link(a, b, LinkConfig{});
  EXPECT_EQ(topo.link_between(a, b), ab);
  EXPECT_EQ(topo.link_between(b, a), ba);
  EXPECT_EQ(topo.link_between(a, a), nullptr);
}

// Count the distribution-tree edges of group g over all nodes.
int tree_edge_count(const Topology& topo, GroupId g) {
  int n = 0;
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    n += static_cast<int>(topo.mcast_out_links(g, node).size());
  }
  return n;
}

TEST(TopologyMembership, GraftAttachesOnlyTheNewBranch) {
  // Chain sender - r - a, plus r - b: joining a attaches {r, a}; joining b
  // afterwards attaches only b (r is shared trunk).
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId r = topo.add_node();
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  topo.add_duplex_link(s, r, LinkConfig{});
  topo.add_duplex_link(r, a, LinkConfig{});
  topo.add_duplex_link(r, b, LinkConfig{});
  topo.compute_routes();
  const GroupId g = topo.create_group(s);
  EXPECT_EQ(topo.membership_mode(), MembershipMode::kIncremental);

  topo.join(g, a);
  EXPECT_TRUE(topo.is_attached(g, r));
  EXPECT_TRUE(topo.is_attached(g, a));
  EXPECT_FALSE(topo.is_attached(g, b));
  EXPECT_EQ(tree_edge_count(topo, g), 2);  // s->r, r->a

  topo.join(g, b);
  EXPECT_TRUE(topo.is_attached(g, b));
  EXPECT_EQ(tree_edge_count(topo, g), 3);  // + r->b
}

TEST(TopologyMembership, PruneStopsAtSharedTrunkAndInteriorMembers) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId r = topo.add_node();
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  topo.add_duplex_link(s, r, LinkConfig{});
  topo.add_duplex_link(r, a, LinkConfig{});
  topo.add_duplex_link(r, b, LinkConfig{});
  topo.compute_routes();
  const GroupId g = topo.create_group(s);
  topo.join(g, a);
  topo.join(g, b);

  // b leaves: only the r->b leaf edge goes; r stays attached for a.
  topo.leave(g, b);
  EXPECT_FALSE(topo.is_attached(g, b));
  EXPECT_TRUE(topo.is_attached(g, r));
  EXPECT_EQ(tree_edge_count(topo, g), 2);

  // r is an interior member: a's leave must not prune r's own membership.
  topo.join(g, r);
  topo.leave(g, a);
  EXPECT_TRUE(topo.is_attached(g, r));
  EXPECT_TRUE(topo.is_member(g, r));
  EXPECT_EQ(tree_edge_count(topo, g), 1);  // s->r only

  // Last member leaves: the tree empties completely.
  topo.leave(g, r);
  EXPECT_FALSE(topo.is_attached(g, r));
  EXPECT_EQ(tree_edge_count(topo, g), 0);
}

TEST(TopologyMembership, RejoinAfterLeaveRebuildsTheBranch) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId r = topo.add_node();
  const NodeId a = topo.add_node();
  topo.add_duplex_link(s, r, LinkConfig{});
  topo.add_duplex_link(r, a, LinkConfig{});
  topo.compute_routes();
  const GroupId g = topo.create_group(s);
  topo.join(g, a);
  topo.leave(g, a);
  topo.join(g, a);
  EXPECT_TRUE(topo.is_member(g, a));
  EXPECT_TRUE(topo.is_attached(g, a));
  EXPECT_EQ(tree_edge_count(topo, g), 2);
}

TEST(TopologyMembership, NodeAddedAfterCreateGroupIsJoinable) {
  // Regression: join() used to grow member_flags for late-added nodes but
  // left out_links at its create_group()-time size, so building the tree
  // through the late node's parent indexed out of bounds.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId s = topo.add_node();
  const NodeId r = topo.add_node();
  topo.add_duplex_link(s, r, LinkConfig{});
  const GroupId g = topo.create_group(s);

  const NodeId late = topo.add_node();
  topo.add_duplex_link(r, late, LinkConfig{});
  topo.compute_routes();

  topo.join(g, late);
  EXPECT_TRUE(topo.is_member(g, late));
  EXPECT_TRUE(topo.is_attached(g, late));
  EXPECT_EQ(tree_edge_count(topo, g), 2);  // s->r, r->late
  topo.leave(g, late);
  EXPECT_EQ(tree_edge_count(topo, g), 0);

  // Same robustness on the full-rebuild oracle path.
  const NodeId later = topo.add_node();
  topo.add_duplex_link(r, later, LinkConfig{});
  topo.compute_routes();
  topo.set_membership_mode(MembershipMode::kFullRebuild);
  topo.join(g, later);
  EXPECT_TRUE(topo.is_attached(g, later));
  EXPECT_EQ(tree_edge_count(topo, g), 2);
}

TEST(TopologyMembership, RebuildOracleMatchesIncrementalTree) {
  // A public rebuild_tree() recomputes from the member set and must land on
  // the same edges (order aside, and in ascending-join order even the order
  // matches) as the incremental maintenance produced.
  Simulator sim{1};
  Topology topo{sim};
  LinkConfig link;
  const Dumbbell d = make_dumbbell(topo, 1, 6, link, link);
  topo.compute_routes();
  const GroupId g = topo.create_group(d.left_hosts[0]);
  for (std::size_t i = 0; i < d.right_hosts.size(); i += 2) {
    topo.join(g, d.right_hosts[i]);
  }
  std::vector<std::vector<Link*>> incremental;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    incremental.push_back(topo.mcast_out_links(g, n));
  }
  topo.rebuild_tree(g);
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_EQ(topo.mcast_out_links(g, n),
              incremental[static_cast<std::size_t>(n)])
        << "fan-out differs at node " << n;
  }
}

TEST(Builders, DumbbellShape) {
  Simulator sim{1};
  Topology topo{sim};
  LinkConfig bn;
  bn.rate_bps = 8e6;
  bn.delay = 20_ms;
  LinkConfig acc;
  acc.rate_bps = 100e6;
  acc.delay = 2_ms;
  const Dumbbell d = make_dumbbell(topo, 3, 4, bn, acc);
  EXPECT_EQ(d.left_hosts.size(), 3u);
  EXPECT_EQ(d.right_hosts.size(), 4u);
  EXPECT_EQ(topo.node_count(), 2 + 3 + 4);
  // All cross traffic passes the bottleneck: path delay = 2+20+2 ms.
  EXPECT_EQ(topo.path_delay(d.left_hosts[0], d.right_hosts[0]), 24_ms);
  ASSERT_NE(d.bottleneck_fwd, nullptr);
  EXPECT_DOUBLE_EQ(d.bottleneck_fwd->config().rate_bps, 8e6);
}

TEST(Builders, StarShapeWithHeterogeneousLeaves) {
  Simulator sim{1};
  Topology topo{sim};
  LinkConfig sender_link;
  sender_link.delay = 5_ms;
  std::vector<LinkConfig> leaves(3);
  leaves[0].delay = 10_ms;
  leaves[1].delay = 20_ms;
  leaves[2].delay = 30_ms;
  const Star s = make_star(topo, sender_link, leaves);
  EXPECT_EQ(s.leaves.size(), 3u);
  EXPECT_EQ(topo.path_delay(s.sender, s.leaves[0]), 15_ms);
  EXPECT_EQ(topo.path_delay(s.sender, s.leaves[2]), 35_ms);
  // Round trips are symmetric.
  EXPECT_EQ(topo.path_delay(s.leaves[2], s.sender), 35_ms);
}

}  // namespace
}  // namespace tfmcc
