// Property tests for unicast routing: Topology::route() computes one
// destination-rooted Dijkstra per destination on demand.  On random graphs
// (duplex, one-way and parallel links; random delays with many equal ones)
// every pair is checked against an all-pairs, source-rooted Dijkstra
// oracle: the walked path has the oracle's (delay, hops) cost, path_delay
// agrees, and wherever the oracle's first-hop neighbour is unique the
// next-hop link is the very same Link.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

struct Edge {
  NodeId to;
  Link* link;
  std::int64_t delay_ns;  // as configured when the graph was built
};

struct Graph {
  // adj[from] in add_link order, mirroring the topology's adjacency.
  std::vector<std::vector<Edge>> adj;
};

struct Cost {
  std::int64_t delay_ns = std::numeric_limits<std::int64_t>::max();
  int hops = std::numeric_limits<int>::max();
  Link* first_link = nullptr;  // first hop on the path src -> node
  bool reachable() const {
    return delay_ns != std::numeric_limits<std::int64_t>::max();
  }
};

/// The all-pairs routing the simulator used before routes became lazy:
/// Dijkstra from every source, cost (delay, hops), heap ties to the lower
/// node id, first hop carried along the source-rooted tree.
std::vector<std::vector<Cost>> all_pairs_oracle(const Graph& g) {
  const auto n = static_cast<NodeId>(g.adj.size());
  std::vector<std::vector<Cost>> table(static_cast<std::size_t>(n));
  using QE = std::tuple<std::int64_t, int, NodeId>;
  std::vector<QE> pq;
  const auto heap_greater = std::greater<>{};
  for (NodeId src = 0; src < n; ++src) {
    auto& dist = table[static_cast<std::size_t>(src)];
    dist.assign(static_cast<std::size_t>(n), Cost{});
    pq.clear();
    dist[static_cast<std::size_t>(src)] = {0, 0, nullptr};
    pq.emplace_back(0, 0, src);
    while (!pq.empty()) {
      std::pop_heap(pq.begin(), pq.end(), heap_greater);
      const auto [d, h, u] = pq.back();
      pq.pop_back();
      auto& du = dist[static_cast<std::size_t>(u)];
      if (d != du.delay_ns || h != du.hops) continue;  // stale entry
      for (const Edge& e : g.adj[static_cast<std::size_t>(u)]) {
        const std::int64_t nd = d + e.delay_ns;
        const int nh = h + 1;
        auto& dv = dist[static_cast<std::size_t>(e.to)];
        if (nd < dv.delay_ns || (nd == dv.delay_ns && nh < dv.hops)) {
          dv.delay_ns = nd;
          dv.hops = nh;
          dv.first_link = (u == src) ? e.link : du.first_link;
          pq.emplace_back(nd, nh, e.to);
          std::push_heap(pq.begin(), pq.end(), heap_greater);
        }
      }
    }
  }
  return table;
}

SimTime random_delay(Rng& rng) {
  // Half the links draw from three values, so equal-cost paths are common.
  if (rng.bernoulli(0.5)) return SimTime::millis(rng.uniform_int(1, 3));
  return SimTime::micros(rng.uniform_int(1, 5000));
}

Graph build_random_graph(Topology& topo, Rng& rng) {
  Graph g;
  const int n = static_cast<int>(rng.uniform_int(2, 60));
  topo.add_nodes(n);
  g.adj.resize(static_cast<std::size_t>(n));
  auto add = [&](NodeId a, NodeId b, SimTime delay) {
    LinkConfig cfg;
    cfg.delay = delay;
    Link& l = topo.add_link(a, b, cfg);
    g.adj[static_cast<std::size_t>(a)].push_back({b, &l, delay.count_nanos()});
  };
  const auto m = rng.uniform_int(0, 3 * n);
  for (std::int64_t i = 0; i < m; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    const auto kind = rng.uniform_int(0, 9);
    const SimTime delay = random_delay(rng);
    if (kind < 6) {  // duplex
      add(a, b, delay);
      add(b, a, delay);
    } else if (kind < 9) {  // one-way
      add(a, b, delay);
    } else {  // parallel to an existing link out of a, equal delay or not
      const auto& out = g.adj[static_cast<std::size_t>(a)];
      if (out.empty()) continue;
      const Edge e = out[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))];
      add(a, e.to, rng.bernoulli(0.5) ? SimTime::nanos(e.delay_ns) : delay);
    }
  }
  return g;
}

TEST(RoutingOracle, RandomGraphsMatchAllPairsDijkstra) {
  int unique_first_hops = 0;
  int tied_first_hops = 0;
  int unreachable_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Simulator sim{seed};
    Topology topo{sim};
    Rng rng{seed};
    const Graph g = build_random_graph(topo, rng);
    topo.compute_routes();
    // Every other graph moves all live delays before the first query: the
    // routes must still follow the compute_routes() snapshot.
    const bool perturbed = seed % 2 == 0;
    if (perturbed) {
      for (const auto& out : g.adj) {
        for (const Edge& e : out) e.link->set_delay(random_delay(rng));
      }
    }
    const auto oracle = all_pairs_oracle(g);
    const auto n = static_cast<NodeId>(g.adj.size());
    for (NodeId src = 0; src < n; ++src) {
      EXPECT_EQ(topo.route(src, src), nullptr);
      for (NodeId dst = 0; dst < n; ++dst) {
        if (dst == src) continue;
        const Cost& want =
            oracle[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
        Link* first = topo.route(src, dst);
        ASSERT_EQ(topo.node(src).route(dst), first);
        if (!want.reachable()) {
          ++unreachable_pairs;
          EXPECT_EQ(first, nullptr) << "seed " << seed << " " << src << "->"
                                    << dst;
          EXPECT_TRUE(topo.path_delay(src, dst).is_infinite());
          continue;
        }
        // Walk the route, costing each hop at its snapshot delay; every
        // next hop must be an out-link of the node it is taken at.
        std::int64_t delay = 0;
        int hops = 0;
        for (NodeId cur = src; cur != dst && hops <= n; ++hops) {
          Link* l = topo.route(cur, dst);
          const auto& out = g.adj[static_cast<std::size_t>(cur)];
          const auto it = std::find_if(out.begin(), out.end(),
                                       [&](const Edge& e) { return e.link == l; });
          ASSERT_NE(it, out.end()) << "seed " << seed << ": node " << cur
                                   << " routes " << src << "->" << dst
                                   << " over a link it does not own";
          delay += it->delay_ns;
          cur = it->to;
        }
        EXPECT_EQ(delay, want.delay_ns) << "seed " << seed << " " << src
                                        << "->" << dst;
        EXPECT_EQ(hops, want.hops) << "seed " << seed << " " << src << "->"
                                   << dst;
        if (!perturbed) {
          EXPECT_EQ(topo.path_delay(src, dst).count_nanos(), want.delay_ns);
        }
        // Optimal first-hop neighbours: those whose own best cost to dst
        // completes an optimal path.
        std::set<NodeId> optimal_next;
        for (const Edge& e : g.adj[static_cast<std::size_t>(src)]) {
          const Cost rest =
              e.to == dst ? Cost{0, 0, nullptr}
                          : oracle[static_cast<std::size_t>(e.to)]
                                  [static_cast<std::size_t>(dst)];
          if (rest.reachable() && rest.delay_ns + e.delay_ns == want.delay_ns &&
              rest.hops + 1 == want.hops) {
            optimal_next.insert(e.to);
          }
        }
        ASSERT_FALSE(optimal_next.empty());
        if (optimal_next.size() == 1) {
          ++unique_first_hops;
          EXPECT_EQ(first, want.first_link)
              << "seed " << seed << " " << src << "->" << dst;
        } else {
          ++tied_first_hops;
        }
      }
    }
  }
  // The generator must exercise every branch above.
  EXPECT_GT(unique_first_hops, 1000);
  EXPECT_GT(tied_first_hops, 100);
  EXPECT_GT(unreachable_pairs, 100);
}

}  // namespace
}  // namespace tfmcc
