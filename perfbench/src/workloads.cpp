#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/topology.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "sim/sweep.hpp"
#include "tfmcc/flow.hpp"
#include "tracer.hpp"
#include "util/csv.hpp"

namespace perfbench {
namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

// ---------------------------------------------------------------------------
// Input generation.  The generator is the harness's own splitmix64 stream, not
// the simulator's Rng, so a change to the program under test cannot change
// the inputs it is measured on.

class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : s_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(unit() *
                                          static_cast<double>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// One TFMCC session on a single-bottleneck tree: source -> router ->
/// bottleneck -> router -> one access link per full receiver and per
/// modeled-receiver tap.  Times are on the simulated clock.
struct Shape {
  int full{0};     // full receivers, one host each
  int modeled{0};  // modeled receivers, spread over `taps` blocks
  int taps{0};
  double bottleneck_bps{500e3};
  std::size_t queue_packets{20};
  std::int64_t owd_min_ms{8};  // access one-way delay range of full hosts
  std::int64_t owd_max_ms{48};
  SimTime horizon{};
  int slices{1};  // run_until boundaries, evenly spaced over the horizon
  // Flash crowd: receiver 0 joins at set-up, the others at uniform
  // instants in [crowd_begin, crowd_end] (fractions of the horizon).
  bool flash_crowd{false};
  double crowd_begin{0.0};
  double crowd_end{0.0};
  // Random membership toggles in [churn_begin, churn_end].
  int toggles{0};
  double churn_begin{0.0};
  double churn_end{0.0};
  bool check_acquisition{false};  // fig. 12 RTT-acquisition shape
};

struct Toggle {
  SimTime at;
  int receiver;
};

/// Everything the program under test receives, derived from the seed only.
struct Inputs {
  std::uint64_t sim_seed{0};
  std::vector<SimTime> access_owd;  // per full receiver
  std::vector<SimTime> join_at;     // per full receiver; zero: at set-up
  std::vector<Toggle> toggles;
};

Inputs generate(const Shape& s, std::uint64_t seed) {
  SeedStream rng{seed};
  Inputs in;
  in.sim_seed = rng.next();
  const double h = s.horizon.to_seconds();
  for (int i = 0; i < s.full; ++i) {
    in.access_owd.push_back(
        SimTime::millis(rng.between(s.owd_min_ms, s.owd_max_ms)));
    const bool late = s.flash_crowd && i > 0;
    in.join_at.push_back(
        late ? SimTime::seconds(
                   h * (s.crowd_begin +
                        (s.crowd_end - s.crowd_begin) * rng.unit()))
             : SimTime::zero());
  }
  for (int k = 0; k < s.toggles; ++k) {
    const double at =
        h * (s.churn_begin + (s.churn_end - s.churn_begin) * rng.unit());
    in.toggles.push_back(
        {SimTime::seconds(at), static_cast<int>(rng.between(1, s.full - 1))});
  }
  return in;
}

// ---------------------------------------------------------------------------
// One simulation.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void hash_bytes(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
}

template <typename T>
void hash_value(std::uint64_t& h, T v) {
  hash_bytes(h, &v, sizeof v);
}

struct Sample {
  double t_s;
  int with_rtt;
  double send_kbps;
  std::int64_t feedback;
  int members;
};

struct SimRun {
  std::vector<std::string> failures;
  std::int64_t setup_ns{0};
  std::int64_t run_ns{0};
  std::int64_t wall_ns{0};
  std::int64_t deliveries{0};
  std::uint64_t digest{kFnvOffset};
  std::map<std::string, std::int64_t> counts;
  TraceTotals run_trace;  // run phase only
  std::vector<Sample> samples;
};

SimRun run_sim(const Shape& shape, const Inputs& in, bool traced) {
  SimRun out;
  auto fail = [&out](std::string what) { out.failures.push_back(std::move(what)); };
  std::unique_ptr<Tracer> tracer_owner =
      traced ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = tracer_owner.get();

  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_setup;
  Clock::time_point t_run;
  {
    Simulator sim{in.sim_seed};
    Topology topo{sim};
    std::vector<Link*> links;
    auto duplex = [&](NodeId a, NodeId b, const LinkConfig& c) {
      auto [fwd, rev] = topo.add_duplex_link(a, b, c);
      links.push_back(fwd);
      links.push_back(rev);
    };
    LinkConfig acc;
    acc.rate_bps = 1e9;
    acc.delay = 2_ms;
    acc.jitter = 1_ms;  // breaks drop-tail phase locking, as the scenarios do
    LinkConfig bn = acc;
    bn.rate_bps = shape.bottleneck_bps;
    bn.delay = 20_ms;
    bn.queue_limit_packets = shape.queue_packets;
    const NodeId src = topo.add_node();
    const NodeId left = topo.add_node();
    const NodeId right = topo.add_node();
    duplex(src, left, acc);
    duplex(left, right, bn);
    std::vector<NodeId> hosts;
    for (SimTime owd : in.access_owd) {
      hosts.push_back(topo.add_node());
      LinkConfig a = acc;
      a.delay = owd;
      duplex(right, hosts.back(), a);
    }
    std::vector<NodeId> taps;
    for (int t = 0; t < shape.taps; ++t) {
      taps.push_back(topo.add_node());
      LinkConfig a = acc;
      a.delay = 8_ms;  // modeled receivers add 0..40 ms virtual detours
      duplex(right, taps.back(), a);
    }
    topo.compute_routes();

    std::optional<TimedEquation> timed_eq;
    TfmccConfig cfg;
    if (tracer != nullptr) {
      timed_eq.emplace(*tracer, float_equation_backend());
      cfg.equation = &*timed_eq;
    }
    TfmccFlow flow{sim, topo, src, cfg};
    MulticastSession& session = flow.session();

    std::vector<std::unique_ptr<AgentShim>> shims;
    auto shim_for = [&](Layer l, Agent& a) -> AgentShim* {
      if (tracer == nullptr) return nullptr;
      shims.push_back(std::make_unique<AgentShim>(*tracer, l, a));
      return shims.back().get();
    };
    if (AgentShim* tx = shim_for(Layer::kTx, flow.sender())) {
      topo.node(src).attach_agent(session.control_port(), tx);
    }
    std::vector<AgentShim*> rx_shims;
    for (NodeId h : hosts) {
      const int id = flow.add_receiver(h);
      rx_shims.push_back(shim_for(Layer::kRx, flow.receiver(id)));
    }
    std::vector<AgentShim*> block_shims;
    for (int t = 0; t < shape.taps; ++t) {
      const int per = shape.modeled / shape.taps;
      const int extra = t == 0 ? shape.modeled % shape.taps : 0;
      const int b = flow.add_modeled_block(taps[static_cast<std::size_t>(t)],
                                           per + extra, SimTime::zero(), 40_ms);
      block_shims.push_back(shim_for(Layer::kBlock, flow.block(b)));
    }

    // join()/leave() attach and detach the real agent, so the shim goes
    // back on the port after every join.
    std::int64_t membership_calls = 0;
    auto set_member = [&](auto& member, NodeId node, AgentShim* shim,
                          bool join) {
      Span s{tracer, Layer::kMembership};
      if (join) {
        member.join();
        if (shim != nullptr) {
          topo.node(node).attach_agent(session.data_port(), shim);
        }
      } else {
        member.leave();
      }
      ++membership_calls;
    };
    auto set_receiver = [&](std::size_t i, bool join) {
      set_member(flow.receiver(static_cast<int>(i)), hosts[i], rx_shims[i],
                 join);
    };
    auto set_block = [&](std::size_t b, bool join) {
      set_member(flow.block(static_cast<int>(b)), taps[b], block_shims[b],
                 join);
    };

    ScheduleBuilder script{sim, shape.horizon, shape.horizon};
    int applied = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (in.join_at[i] == SimTime::zero()) {
        set_receiver(i, true);
        continue;
      }
      script.at(in.join_at[i], [&, i] {
        if (flow.receiver(static_cast<int>(i)).joined()) return;
        set_receiver(i, true);
        ++applied;
      });
    }
    for (const Toggle& tg : in.toggles) {
      const auto i = static_cast<std::size_t>(tg.receiver);
      script.at(tg.at, [&, i] {
        const bool was = flow.receiver(static_cast<int>(i)).joined();
        set_receiver(i, !was);
        if (flow.receiver(static_cast<int>(i)).joined() != was) ++applied;
      });
    }
    for (std::size_t b = 0; b < taps.size(); ++b) set_block(b, true);
    flow.sender().start(SimTime::zero());

    // --- run phase ---------------------------------------------------------
    t_setup = Clock::now();
    const TraceTotals before = tracer != nullptr ? tracer->totals() : TraceTotals{};
    const std::size_t depth_before = tracer != nullptr ? tracer->depth() : 0;
    std::int64_t pending_peak = 0;
    for (int k = 1; k <= shape.slices; ++k) {
      sim.run_until(shape.horizon * (static_cast<double>(k) / shape.slices));
      pending_peak = std::max(
          pending_peak,
          static_cast<std::int64_t>(sim.scheduler().pending_count()));
      const Sample smp{sim.now().to_seconds(), flow.receivers_with_rtt(),
                       flow.sender().rate_Bps() * 8.0 / 1000.0,
                       flow.sender().feedback_received(),
                       session.total_endpoint_count()};
      out.samples.push_back(smp);
      hash_value(out.digest, smp.with_rtt);
      hash_value(out.digest, smp.send_kbps);
      hash_value(out.digest, smp.feedback);
      hash_value(out.digest, smp.members);
    }
    t_run = Clock::now();

    std::int64_t forwarded = 0;
    std::int64_t local = 0;
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      forwarded += topo.node(n).forwarded();
      local += topo.node(n).delivered_local();
      out.deliveries += topo.node(n).delivered_endpoints();
    }
    std::int64_t link_deliveries = 0;
    std::int64_t drops = 0;
    std::int64_t accepted = 0;
    for (const Link* l : links) {
      link_deliveries += l->delivered_packets();
      drops += l->queue_drops();
      accepted += l->queue().accepted();
    }
    std::int64_t rx_feedback = 0;
    for (int i = 0; i < flow.receiver_count(); ++i) {
      rx_feedback += flow.receiver(i).feedback_sent();
    }
    std::int64_t block_feedback = 0;
    for (int b = 0; b < flow.block_count(); ++b) {
      block_feedback += flow.block(b).feedback_sent();
    }
    const FixedBlockPool& pool = sim.packet_pool();
    const auto pool_used = [&pool] {
      return static_cast<std::int64_t>(pool.heap_allocations()) -
             static_cast<std::int64_t>(pool.free_count());
    };
    const TfmccSender& tx = flow.sender();
    auto& c = out.counts;
    c["sim.events"] = static_cast<std::int64_t>(sim.scheduler().executed());
    c["sim.pending_peak"] = pending_peak;
    c["net.endpoint_deliveries"] = out.deliveries;
    c["net.local_deliveries"] = local;
    c["net.link_deliveries"] = link_deliveries;
    c["net.forwarded"] = forwarded;
    c["net.queue_drops"] = drops;
    c["net.queue_accepted"] = accepted;
    c["pool.heap_allocations"] =
        static_cast<std::int64_t>(pool.heap_allocations());
    c["pool.outstanding_end"] = pool_used();
    c["tfmcc.tx.rounds"] = tx.round();
    c["tfmcc.tx.data_sent"] = tx.data_sent();
    c["tfmcc.tx.feedback_received"] = tx.feedback_received();
    c["tfmcc.tx.known_receivers"] = tx.known_receivers();
    c["tfmcc.rx.feedback_sent"] = rx_feedback;
    c["tfmcc.block.feedback_sent"] = block_feedback;
    c["tfmcc.receivers_with_rtt"] = flow.receivers_with_rtt();
    c["churn.scripted"] = script.scheduled();
    c["churn.applied"] = applied;
    for (const auto& [k, v] : c) hash_value(out.digest, v);

    // --- checks on the run's own outcome ------------------------------------
    if (out.deliveries <= 0) fail("no packet reached a receiver");
    if (script.fired() != script.scheduled() || applied != script.scheduled()) {
      fail("membership script: " + std::to_string(applied) + " of " +
           std::to_string(script.scheduled()) + " scheduled toggles applied (" +
           std::to_string(script.fired()) + " fired)");
    }
    int joined = 0;
    for (int i = 0; i < flow.receiver_count(); ++i) {
      joined += flow.receiver(i).joined() ? 1 : 0;
    }
    if (session.total_endpoint_count() != joined + shape.modeled) {
      fail("endpoint accounting: session counts " +
           std::to_string(session.total_endpoint_count()) + ", expected " +
           std::to_string(joined + shape.modeled));
    }
    if (shape.check_acquisition) {
      // The fig. 12 shape at 10% / 50% / 100% of the horizon.
      const auto& s = out.samples;
      const int early = s[s.size() / 10].with_rtt;
      const int mid = s[s.size() / 2].with_rtt;
      const int end = s.back().with_rtt;
      if (!(early > 0 && mid > early && end >= mid)) {
        fail("RTT acquisition shape: " + std::to_string(early) + " / " +
             std::to_string(mid) + " / " + std::to_string(end));
      }
    }
    if (tracer != nullptr) {
      out.run_trace = tracer->totals() - before;
      const TraceTotals& rt = out.run_trace;
      // Every delivery must have passed through a shim, or the per-layer
      // table silently under-reports.
      const std::int64_t shimmed = rt[Layer::kRx].calls +
                                   rt[Layer::kBlock].calls +
                                   rt[Layer::kTx].calls;
      if (shimmed != local) {
        fail("shims saw " + std::to_string(shimmed) + " of " +
             std::to_string(local) + " deliveries");
      }
      // Spans must all be closed at both snapshots, or a span straddling a
      // snapshot is split between phases; and root spans nest inside the run
      // phase, so they cannot cover more than it.
      if (depth_before != 0 || tracer->depth() != 0) {
        fail("trace spans still open at a run-phase boundary");
      }
      if (rt.root_ns < 0 || rt.root_ns > ns_between(t_setup, t_run)) {
        fail("root spans cover " + std::to_string(rt.root_ns) +
             " ns, outside the run phase of " +
             std::to_string(ns_between(t_setup, t_run)) + " ns");
      }
    }

    // --- teardown: everyone leaves, in-flight packets drain ------------------
    flow.sender().stop();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (flow.receiver(static_cast<int>(i)).joined()) set_receiver(i, false);
    }
    for (std::size_t b = 0; b < taps.size(); ++b) {
      if (flow.block(static_cast<int>(b)).joined()) set_block(b, false);
    }
    sim.run_until(shape.horizon + 10_sec);
    if (pool_used() != 0) {
      fail("packet pool: " + std::to_string(pool_used()) +
           " blocks still checked out after teardown");
    }
    c["net.membership_calls_total"] = membership_calls;
  }
  const Clock::time_point t_end = Clock::now();
  out.setup_ns = ns_between(t0, t_setup);
  out.run_ns = ns_between(t_setup, t_run);
  out.wall_ns = ns_between(t0, t_end);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer table.

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void fill_layers(Result& r, const TraceTotals& t, std::int64_t sim_run_ns) {
  auto& L = r.layers;
  const auto& c = r.counts;
  const auto count = [&c](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto per_call_ns = [](const LayerStats& s) {
    return ratio(static_cast<double>(s.self_ns), static_cast<double>(s.calls));
  };
  L["sim.run_s"] = secs(sim_run_ns);
  L["sim.engine_self_s"] = secs(sim_run_ns - t.root_ns);
  L["sim.events"] = count("sim.events");
  L["sim.events_per_delivery"] =
      ratio(count("sim.events"), count("net.endpoint_deliveries"));
  L["sim.pending_peak"] = count("sim.pending_peak");
  L["net.link_deliveries"] = count("net.link_deliveries");
  L["net.forwarded"] = count("net.forwarded");
  L["net.endpoint_deliveries"] = count("net.endpoint_deliveries");
  L["net.queue_drops"] = count("net.queue_drops");
  L["net.drop_frac"] = ratio(count("net.queue_drops"),
                             count("net.queue_drops") + count("net.queue_accepted"));
  const LayerStats& member = t[Layer::kMembership];
  L["net.membership_calls"] = static_cast<double>(member.calls);
  L["net.membership_s"] = secs(member.self_ns);
  L["pool.heap_allocations"] = count("pool.heap_allocations");
  L["pool.outstanding_end"] = count("pool.outstanding_end");
  const LayerStats& rx = t[Layer::kRx];
  L["tfmcc.rx.calls"] = static_cast<double>(rx.calls);
  L["tfmcc.rx.self_s"] = secs(rx.self_ns);
  L["tfmcc.rx.ns_per_call"] = per_call_ns(rx);
  L["tfmcc.rx.feedback_sent"] = count("tfmcc.rx.feedback_sent");
  const LayerStats& blk = t[Layer::kBlock];
  L["tfmcc.block.calls"] = static_cast<double>(blk.calls);
  L["tfmcc.block.self_s"] = secs(blk.self_ns);
  const LayerStats& tx = t[Layer::kTx];
  L["tfmcc.tx.calls"] = static_cast<double>(tx.calls);
  L["tfmcc.tx.self_s"] = secs(tx.self_ns);
  L["tfmcc.tx.ns_per_report"] = per_call_ns(tx);
  L["tfmcc.tx.known_receivers"] = count("tfmcc.tx.known_receivers");
  L["tfmcc.tx.rounds"] = count("tfmcc.tx.rounds");
  L["tfmcc.feedback_per_round"] =
      ratio(count("tfmcc.tx.feedback_received"), count("tfmcc.tx.rounds"));
  const LayerStats& eq = t[Layer::kEquation];
  L["tfrc.eq.calls"] = static_cast<double>(eq.calls);
  L["tfrc.eq.batch_items"] = static_cast<double>(eq.items);
  L["tfrc.eq.self_s"] = secs(eq.self_ns);
  for (const char* k : {"sweep.runs", "sweep.inner_s", "sweep.self_s",
                        "sweep.worker_busy_frac", "sweep.output_bytes"}) {
    L[k] = 0.0;  // the sweep workload overwrites these
  }
  // Traced-only work counts, compared exactly across traced runs.
  r.counts["net.membership_calls"] = member.calls;
  r.counts["tfmcc.rx.calls"] = rx.calls;
  r.counts["tfmcc.block.calls"] = blk.calls;
  r.counts["tfmcc.tx.calls"] = tx.calls;
  r.counts["tfrc.eq.calls"] = eq.calls;
  r.counts["tfrc.eq.batch_items"] = eq.items;
}

Result simulation_result(const SimRun& run, bool traced) {
  Result r;
  r.failures = run.failures;
  r.wall_s = secs(run.wall_ns);
  r.setup_s = secs(run.setup_ns);
  r.run_s = secs(run.run_ns);
  r.deliveries = run.deliveries;
  r.runs = 1;
  r.digest = run.digest;
  r.counts = run.counts;
  if (traced) fill_layers(r, run.run_trace, run.run_ns);
  return r;
}

int scaled(int n, double k) {
  return std::max(1, static_cast<int>(std::lround(n * k)));
}

// ---------------------------------------------------------------------------
// Workloads.

Shape fanout_shape(Scale k) {
  Shape s;
  s.full = std::max(20, scaled(1000, k.receivers));
  s.bottleneck_bps = 500e3;
  s.queue_packets = 20;
  s.horizon = SimTime::seconds(40.0 * k.horizon);
  s.slices = 40;
  s.check_acquisition = true;
  return s;
}

Shape churn_shape(Scale k) {
  Shape s;
  s.full = std::max(20, scaled(2000, k.receivers));
  s.bottleneck_bps = 1e6;
  s.queue_packets = 50;
  s.owd_min_ms = 2;
  s.owd_max_ms = 20;
  s.horizon = SimTime::seconds(30.0 * k.horizon);
  s.slices = 30;
  s.flash_crowd = true;
  s.crowd_begin = 0.1;
  s.crowd_end = 0.3;
  s.toggles = scaled(4000, k.receivers);
  s.churn_begin = 0.35;
  s.churn_end = 0.95;
  return s;
}

Shape hybrid_shape(Scale k) {
  Shape s;
  s.full = 16;
  s.taps = 8;
  s.modeled = std::max(s.taps, scaled(100000, k.receivers) - s.full);
  s.bottleneck_bps = 500e3;
  s.queue_packets = 20;
  s.horizon = SimTime::seconds(200.0 * k.horizon);
  s.slices = 40;
  return s;
}

// run_sweep takes a plain function pointer, so the sweep's grid runs report
// into this process-wide sink.
struct SweepSink {
  std::mutex mu;
  bool traced{false};
  Shape shape;
  std::int64_t runs{0};
  std::int64_t inner_ns{0};
  std::int64_t setup_ns{0};
  std::int64_t sim_run_ns{0};
  std::int64_t deliveries{0};
  std::int64_t output_bytes{0};
  std::map<std::string, std::int64_t> counts;
  TraceTotals trace;
  std::vector<std::string> failures;
};
SweepSink* g_sweep = nullptr;

int sweep_point(const ScenarioOptions& opts) {
  const Clock::time_point t0 = Clock::now();
  Shape shape = g_sweep->shape;
  shape.full = opts.param_or("n_receivers", 8);
  shape.bottleneck_bps = opts.param_or("bottleneck_kbps", 500.0) * 1e3;
  const SimRun run =
      run_sim(shape, generate(shape, opts.seed_or(0)), g_sweep->traced);
  std::ostringstream text;
  CsvWriter csv(text, {"time_s", "receivers_with_rtt", "send_kbps",
                       "feedback_received", "members"});
  for (const Sample& s : run.samples) {
    csv.row(s.t_s, s.with_rtt, s.send_kbps, s.feedback, s.members);
  }
  const std::string out = text.str();
  opts.out() << out;
  const std::int64_t inner = ns_between(t0, Clock::now());

  std::lock_guard<std::mutex> lock(g_sweep->mu);
  ++g_sweep->runs;
  g_sweep->inner_ns += inner;
  g_sweep->setup_ns += run.setup_ns;
  g_sweep->sim_run_ns += run.run_ns;
  g_sweep->deliveries += run.deliveries;
  g_sweep->output_bytes += static_cast<std::int64_t>(out.size());
  for (const auto& [k, v] : run.counts) g_sweep->counts[k] += v;
  g_sweep->trace += run.run_trace;
  for (const auto& f : run.failures) g_sweep->failures.push_back(f);
  return run.failures.empty() ? 0 : 1;
}

Result run_sweep_workload(std::uint64_t seed, bool traced, Scale k) {
  SweepSink sink;
  sink.traced = traced;
  sink.shape.horizon = SimTime::seconds(60.0 * k.horizon);
  sink.shape.slices = 30;
  g_sweep = &sink;

  const Clock::time_point t0 = Clock::now();
  const Scenario scenario{
      "perfbench_sweep_point",
      "one short TFMCC session on a single bottleneck",
      &sweep_point,
      {param("n_receivers", 8, "full receivers", 1),
       param("bottleneck_kbps", 500.0, "bottleneck rate", 1.0)}};
  SweepOptions so;
  so.axes = {{"n_receivers", {"4", "8", "16"}},
             {"bottleneck_kbps", {"300", "1000"}}};
  // One core stays free for the harness's parent and the host, so a worker
  // is not descheduled in the middle of the fold order.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  so.jobs = std::clamp(hw - 1, 1, 3);
  so.replicate = std::max(2, scaled(24, k.receivers));
  so.base.seed = seed;
  std::ostringstream aggregate;
  std::ostringstream err;
  const Clock::time_point t1 = Clock::now();
  const int rc = run_sweep(scenario, so, aggregate, err);
  const Clock::time_point t2 = Clock::now();
  g_sweep = nullptr;

  Result r;
  r.failures = sink.failures;
  if (rc != 0) {
    r.failures.push_back("run_sweep returned " + std::to_string(rc) + ": " +
                         err.str());
  }
  const std::string agg = aggregate.str();
  const auto lines = std::count(agg.begin(), agg.end(), '\n');
  const std::int64_t points = 6;
  if (lines != points + 1) {
    r.failures.push_back("aggregate has " + std::to_string(lines - 1) +
                         " rows, expected " + std::to_string(points));
  }
  const std::int64_t expected_runs = points * so.replicate;
  if (sink.runs != expected_runs) {
    r.failures.push_back("sweep completed " + std::to_string(sink.runs) +
                         " runs, expected " + std::to_string(expected_runs));
  }
  r.digest = kFnvOffset;
  hash_bytes(r.digest, agg.data(), agg.size());
  r.counts = sink.counts;
  r.counts["sweep.runs"] = sink.runs;
  r.counts["sweep.output_bytes"] = sink.output_bytes;
  r.counts["sweep.aggregate_bytes"] = static_cast<std::int64_t>(agg.size());
  r.counts["sweep.aggregate_rows"] = lines - 1;
  r.deliveries = sink.deliveries;
  r.runs = sink.runs;
  r.setup_s = secs(sink.setup_ns);
  r.run_s = secs(ns_between(t1, t2));
  r.wall_s = secs(ns_between(t0, Clock::now()));
  if (traced) {
    fill_layers(r, sink.trace, sink.sim_run_ns);
    const double capacity = so.jobs * r.run_s;
    r.layers["sweep.runs"] = static_cast<double>(sink.runs);
    r.layers["sweep.inner_s"] = secs(sink.inner_ns);
    r.layers["sweep.self_s"] = capacity - secs(sink.inner_ns);
    r.layers["sweep.worker_busy_frac"] = ratio(secs(sink.inner_ns), capacity);
    r.layers["sweep.output_bytes"] = static_cast<double>(sink.output_bytes);
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fanout_1000rx", "churn_2000rx", "hybrid_100k", "sweep_replicate"};
  return names;
}

Result run_workload(const std::string& name, std::uint64_t seed, bool traced,
                    Scale scale) {
  Shape shape;
  if (name == "fanout_1000rx") {
    shape = fanout_shape(scale);
  } else if (name == "churn_2000rx") {
    shape = churn_shape(scale);
  } else if (name == "hybrid_100k") {
    shape = hybrid_shape(scale);
  } else if (name == "sweep_replicate") {
    return run_sweep_workload(seed, traced, scale);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return simulation_result(run_sim(shape, generate(shape, seed), traced),
                           traced);
}

}  // namespace perfbench
