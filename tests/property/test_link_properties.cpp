// Property tests for Link, which models transmission analytically (one
// scheduler event per packet: its arrival).  A reference model of the
// two-event link it replaced — a transmit-complete event that draws the
// jitter and schedules the arrival, a packet queue drained one packet per
// completion — runs on its own Scheduler beside a real Link, and both get
// the same random traffic: bursts and idle gaps, random sizes, set_delay
// calls and counter queries at random times.  Required: identical arrivals
// (packet, time, order), identical drop counts and identical counters at
// every query, with packet conservation checked at every query.
//
// A send, query or set_delay at exactly a completion time is the one case
// where the event model's answer depends on event sequence numbers; the
// script nudges such actions by 1 ns (Link's own rule for the tie is pinned
// in test_link_node).  Loss and jitter are not combined: the event model
// draws a packet's jitter at completion and the analytic link at accept,
// which reorders one stream's draws when packets queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

constexpr PortId kPort = 5;

struct Arrival {
  std::uint64_t uid;
  SimTime at;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Counters read at one query time: delivered packets and bytes, in-link,
/// accepted, queue drops and loss-model drops.
using Snapshot = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t>;

std::unique_ptr<Queue> make_queue(const LinkConfig& cfg, const Rng& rng) {
  if (!cfg.use_red) {
    return std::make_unique<DropTailQueue>(cfg.queue_limit_packets);
  }
  RedQueue::Config red;  // as Link configures it
  red.limit_packets = cfg.queue_limit_packets;
  red.max_th = static_cast<double>(cfg.queue_limit_packets) * 0.5;
  red.min_th = red.max_th / 3.0;
  return std::make_unique<RedQueue>(red, rng.substream(1));
}

/// The two-event link: transmission start and completion are events.
class EventLink {
 public:
  EventLink(Scheduler& s, LinkConfig cfg, Rng rng, std::vector<Arrival>& log)
      : s_{s}, cfg_{cfg}, rng_{std::move(rng)}, queue_{make_queue(cfg_, rng_)},
        log_{log} {}

  void send(const PacketPtr& p) {
    if (cfg_.loss_rate > 0.0 && rng_.bernoulli(cfg_.loss_rate)) {
      ++loss_drops_;
      return;
    }
    if (!queue_->admit(waiting_.size())) return;
    waiting_.push_back(p);
    if (!transmitting_) start();
  }
  void set_delay(SimTime d) { cfg_.delay = d; }
  Snapshot snapshot() const {
    return {delivered_, delivered_bytes_, queue_->accepted() - delivered_,
            queue_->accepted(), queue_->drops(), loss_drops_};
  }
  const std::set<SimTime>& completions() const { return completions_; }

 private:
  void start() {
    if (waiting_.empty()) return;
    PacketPtr p = std::move(waiting_.front());
    waiting_.pop_front();
    transmitting_ = true;
    const SimTime tx = SimTime::seconds(
        static_cast<double>(p->size_bytes) * 8.0 / cfg_.rate_bps);
    s_.schedule_in(tx, [this, p] { complete(p); });
  }
  void complete(const PacketPtr& p) {
    completions_.insert(s_.now());
    ++delivered_;
    delivered_bytes_ += p->size_bytes;
    SimTime delay = cfg_.delay;
    if (cfg_.jitter > SimTime::zero()) {
      delay += cfg_.jitter * rng_.uniform(0.0, 1.0);
    }
    const SimTime arrival = std::max(s_.now() + delay, last_arrival_);
    last_arrival_ = arrival;
    s_.schedule_at(arrival, [this, uid = p->uid] {
      log_.push_back({uid, s_.now()});
    });
    transmitting_ = false;
    start();
  }

  Scheduler& s_;
  LinkConfig cfg_;
  Rng rng_;
  std::unique_ptr<Queue> queue_;
  std::vector<Arrival>& log_;
  std::deque<PacketPtr> waiting_;
  bool transmitting_{false};
  SimTime last_arrival_{};
  std::int64_t delivered_{0};
  std::int64_t delivered_bytes_{0};
  std::int64_t loss_drops_{0};
  std::set<SimTime> completions_;
};

struct Action {
  enum Kind { kSend, kSetDelay, kQuery } kind;
  SimTime at;
  std::int32_t bytes{0};     // kSend
  SimTime delay{};           // kSetDelay
};

/// Bursts of back-to-back sends separated by gaps, averaging about the
/// link's capacity, so the queue fills, overflows and drains.
std::vector<Action> make_script(const LinkConfig& cfg, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Action> script;
  SimTime t = SimTime::micros(1);
  for (int i = 0; i < 4000; ++i) {
    const auto bytes = static_cast<std::int32_t>(rng.uniform_int(40, 1500));
    script.push_back({Action::kSend, t, bytes});
    if (rng.bernoulli(0.6)) continue;  // next packet in the same burst
    const double mean_tx = 770.0 * 8.0 / cfg.rate_bps;
    t += SimTime::seconds(rng.exponential(2.5 * mean_tx));
    if (rng.bernoulli(0.02)) {
      const SimTime d = SimTime::micros(rng.uniform_int(100, 30000));
      script.push_back({Action::kSetDelay, t, 0, d});
    }
    if (rng.bernoulli(0.1)) script.push_back({Action::kQuery, t});
    t += SimTime::nanos(rng.uniform_int(1, 999));
  }
  script.push_back({Action::kQuery, t + 10_sec});  // after the drain
  return script;
}

/// Schedules the script; `send`, `set_delay` and `query` act on the link
/// under test.
template <typename Send, typename SetDelay, typename Query>
void schedule_script(Scheduler& s, const std::vector<Action>& script, Send send,
                     SetDelay set_delay, Query query) {
  std::uint64_t uid = 0;
  for (const Action& a : script) {
    switch (a.kind) {
      case Action::kSend: {
        auto p = make_heap_packet();
        p->uid = ++uid;
        p->dst = 1;
        p->dport = kPort;
        p->size_bytes = a.bytes;
        s.schedule_at(a.at, [send, p = PacketPtr{std::move(p)}] { send(p); });
        break;
      }
      case Action::kSetDelay:
        s.schedule_at(a.at, [set_delay, d = a.delay] { set_delay(d); });
        break;
      case Action::kQuery:
        s.schedule_at(a.at, query);
        break;
    }
  }
}

class Recorder final : public Agent {
 public:
  Recorder(Simulator& sim, std::vector<Arrival>& log) : sim_{sim}, log_{log} {}
  void handle_packet(const Packet& p) override {
    log_.push_back({p.uid, sim_.now()});
  }

 private:
  Simulator& sim_;
  std::vector<Arrival>& log_;
};

struct Outcome {
  std::vector<Arrival> arrivals;
  std::vector<Snapshot> queries;
};

Outcome run_event_model(const LinkConfig& cfg, std::uint64_t seed,
                        const std::vector<Action>& script,
                        std::set<SimTime>& completions) {
  Scheduler s;
  Outcome out;
  EventLink link{s, cfg, Rng{seed}, out.arrivals};
  schedule_script(
      s, script, [&link](const PacketPtr& p) { link.send(p); },
      [&link](SimTime d) { link.set_delay(d); },
      [&link, &out] { out.queries.push_back(link.snapshot()); });
  s.run();
  completions = link.completions();
  return out;
}

Outcome run_link(const LinkConfig& cfg, std::uint64_t seed,
                 const std::vector<Action>& script) {
  Simulator sim{1};
  Topology topo{sim};
  topo.add_node();
  const NodeId b = topo.add_node();
  Outcome out;
  Recorder rec{sim, out.arrivals};
  topo.node(b).attach_agent(kPort, &rec);
  Link link{sim, topo.node(b), cfg, Rng{seed}};
  std::int64_t offered = 0;
  schedule_script(
      sim.scheduler(), script,
      [&link, &offered](const PacketPtr& p) {
        ++offered;
        link.send(p);
      },
      [&link](SimTime d) { link.set_delay(d); },
      [&link, &offered, &out] {
        const Snapshot snap{link.delivered_packets(), link.delivered_bytes(),
                            link.in_link_packets(), link.queue().accepted(),
                            link.queue_drops(), link.loss_model_drops()};
        const auto [delivered, bytes, in_link, accepted, drops, lost] = snap;
        // Packet conservation at the query instant.
        EXPECT_EQ(offered, lost + drops + accepted);
        EXPECT_EQ(accepted, delivered + in_link);
        EXPECT_LE(in_link, static_cast<std::int64_t>(
                               link.config().queue_limit_packets) + 1);
        out.queries.push_back(snap);
      });
  sim.run();
  EXPECT_EQ(link.in_link_packets(), 0);
  return out;
}

/// (use_red, jitter in µs, loss rate, seed).
using LinkParam = std::tuple<bool, int, double, int>;

class LinkVsEventModel : public ::testing::TestWithParam<LinkParam> {};

TEST_P(LinkVsEventModel, IdenticalArrivalsDropsAndCounters) {
  const auto [use_red, jitter_us, loss, seed] = GetParam();
  LinkConfig cfg;
  cfg.rate_bps = 2e6;
  cfg.delay = 5_ms;
  cfg.queue_limit_packets = use_red ? 30 : 8;
  cfg.use_red = use_red;
  cfg.loss_rate = loss;
  cfg.jitter = SimTime::micros(jitter_us);
  const auto useed = static_cast<std::uint64_t>(seed);

  std::vector<Action> script = make_script(cfg, useed * 7 + 1);
  Outcome model;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 20) << "could not steer the script off completion ties";
    std::set<SimTime> completions;
    model = run_event_model(cfg, useed, script, completions);
    bool tie = false;
    for (Action& a : script) {
      if (completions.count(a.at) != 0) {
        a.at += SimTime::nanos(1);
        tie = true;
      }
    }
    if (!tie) break;
  }

  const Outcome link = run_link(cfg, useed, script);
  ASSERT_EQ(link.arrivals.size(), model.arrivals.size());
  for (std::size_t i = 0; i < model.arrivals.size(); ++i) {
    ASSERT_EQ(link.arrivals[i], model.arrivals[i]) << "arrival " << i;
  }
  ASSERT_EQ(link.queries.size(), model.queries.size());
  for (std::size_t i = 0; i < model.queries.size(); ++i) {
    ASSERT_EQ(link.queries[i], model.queries[i]) << "query " << i;
  }

  // FIFO and byte accounting at link level: accepted packets arrive in
  // send order at non-decreasing times, and every accepted byte is
  // delivered once.
  for (std::size_t i = 1; i < link.arrivals.size(); ++i) {
    ASSERT_LT(link.arrivals[i - 1].uid, link.arrivals[i].uid);
    ASSERT_LE(link.arrivals[i - 1].at, link.arrivals[i].at);
  }
  std::vector<bool> arrived(script.size() + 1);
  for (const Arrival& r : link.arrivals) arrived[r.uid] = true;
  std::int64_t accepted_bytes = 0;
  std::uint64_t uid = 0;
  for (const Action& a : script) {
    if (a.kind == Action::kSend && arrived[++uid]) accepted_bytes += a.bytes;
  }
  const auto& final_query = link.queries.back();
  EXPECT_EQ(std::get<1>(final_query), accepted_bytes);
  EXPECT_EQ(std::get<0>(final_query),
            static_cast<std::int64_t>(link.arrivals.size()));
  // The traffic really exercised the queue and, with loss, the loss model.
  EXPECT_GT(std::get<4>(final_query), 0);
  if (loss > 0.0) {
    EXPECT_GT(std::get<5>(final_query), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DropTail, LinkVsEventModel,
    ::testing::Values(LinkParam{false, 0, 0.0, 1}, LinkParam{false, 0, 0.0, 2},
                      LinkParam{false, 2000, 0.0, 3},
                      LinkParam{false, 20000, 0.0, 4},
                      LinkParam{false, 0, 0.1, 5},
                      LinkParam{false, 0, 0.3, 6}));
INSTANTIATE_TEST_SUITE_P(
    Red, LinkVsEventModel,
    ::testing::Values(LinkParam{true, 0, 0.0, 7}, LinkParam{true, 2000, 0.0, 8},
                      LinkParam{true, 0, 0.1, 9}));

}  // namespace
}  // namespace tfmcc
