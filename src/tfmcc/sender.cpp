#include "tfmcc/sender.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "tfrc/equation.hpp"
#include "util/log.hpp"

namespace tfmcc {

TfmccSender::TfmccSender(Simulator& sim, MulticastSession& session,
                         TfmccConfig cfg, Rng rng)
    : sim_{sim},
      session_{session},
      cfg_{cfg},
      rng_{std::move(rng)},
      rate_{static_cast<double>(cfg.packet_bytes) /
            cfg.initial_rtt.to_seconds()} {
  // Initial rate: one packet per (initial) RTT, as in TFRC.
  echo_queue_.reserve(kMaxEchoQueue);
  session_.topology()
      .node(session_.source())
      .attach_agent(session_.control_port(), this);
}

TfmccSender::~TfmccSender() {
  session_.topology().node(session_.source()).detach_agent(session_.control_port());
}

void TfmccSender::start(SimTime at) {
  sim_.at(at, [this] {
    running_ = true;
    start_round();
    send_data();
  });
}

void TfmccSender::stop() {
  running_ = false;
  sim_.cancel(round_timer_);
  sim_.cancel(send_timer_);
}

SimTime TfmccSender::max_rtt_estimate() const {
  // Receivers that have not yet measured their RTT operate with the initial
  // value, so the suppression window must span it (footnote 7 explains the
  // resulting multi-second feedback delay early in a session).
  SimTime mx = SimTime::zero();
  if (!measured_rtts_.empty()) mx = std::max(mx, *measured_rtts_.rbegin());
  if (receivers_.empty() || unmeasured_ > 0) mx = std::max(mx, cfg_.initial_rtt);
  return mx;
}

void TfmccSender::forget_rtt(const ReceiverInfo& info) {
  if (info.has_rtt) {
    measured_rtts_.erase(measured_rtts_.find(info.rtt));
  } else {
    --unmeasured_;
  }
}

void TfmccSender::note_rtt(const ReceiverInfo& info) {
  if (info.has_rtt) {
    measured_rtts_.insert(info.rtt);
  } else {
    ++unmeasured_;
  }
}

void TfmccSender::update_rtt(ReceiverInfo& info, bool has_rtt, SimTime rtt) {
  const bool moved = has_rtt != info.has_rtt || (has_rtt && rtt != info.rtt);
  if (moved) forget_rtt(info);
  info.has_rtt = has_rtt;
  info.rtt = rtt;
  if (moved) note_rtt(info);
}

void TfmccSender::erase_receiver(std::int32_t id) {
  auto it = receivers_.find(id);
  if (it == receivers_.end()) return;
  forget_rtt(it->second);
  receivers_.erase(it);
}

void TfmccSender::start_round() {
  const SimTime now = sim_.now();

  // Commit the slowstart target from the receive rates reported last round
  // (§2.6: the target increases only when feedback from a new round is in).
  if (slowstart_ && round_min_recv_ > 0.0) {
    ss_base_ = rate_;
    ss_target_ = std::max(cfg_.slowstart_mult * round_min_recv_, rate_);
    ss_commit_ = now;
  }
  round_min_recv_ = -1.0;

  if (!round_had_feedback_) {
    ++rounds_without_feedback_;
  } else {
    rounds_without_feedback_ = 0;
  }
  round_had_feedback_ = false;

  // Starvation safety: with no CLR and no receivers reporting at all, decay
  // the rate instead of transmitting open-loop.
  if (cfg_.halve_on_starvation && clr_ == kInvalidReceiver &&
      receivers_.empty() && rounds_without_feedback_ >= 2 && !slowstart_) {
    rate_ = std::max(rate_ * 0.5, min_rate_floor());
  }

  ++round_;
  round_start_ = now;
  round_min_rate_ = -1.0;
  round_min_has_loss_ = false;

  // T = max(t_mult * R_max, (c+1) * s / rate): the low-rate extension of
  // §2.5.3 keeps the suppression signal ahead of the feedback deadline even
  // when data packets (which carry the signal) are far apart.
  const double pkt_interval =
      static_cast<double>(cfg_.packet_bytes) / std::max(rate_, 1.0);
  round_T_ = std::max(cfg_.t_mult * max_rtt_estimate(),
                      SimTime::seconds((cfg_.low_rate_guard + 1) * pkt_interval));

  sim_.cancel(round_timer_);
  round_timer_ = sim_.in(round_T_, [this] {
    if (running_) start_round();
  });

  // CLR liveness: no report for clr_timeout_mult feedback delays means the
  // receiver crashed or became unreachable (§4.2).
  if (clr_ != kInvalidReceiver &&
      now - clr_last_fb_ > cfg_.clr_timeout_mult * round_T_) {
    clr_lost();
  }
}

TfmccEcho TfmccSender::pick_echo(SimTime now) {
  TfmccEcho echo;
  if (!echo_queue_.empty()) {
    // Lowest (priority, rate) wins: new CLRs first, then receivers without
    // an RTT, then other receivers, then the CLR; ties to the lowest rate.
    auto best = echo_queue_.begin();
    for (auto it = echo_queue_.begin(); it != echo_queue_.end(); ++it) {
      if (it->priority < best->priority ||
          (it->priority == best->priority && it->rate_Bps < best->rate_Bps)) {
        best = it;
      }
    }
    echo.receiver = best->receiver;
    echo.ts = best->ts;
    echo.delay = now - best->fb_arrival;
    echo_queue_.erase(best);
    return echo;
  }
  // Default: keep refreshing the CLR's measurement (§2.4.2).
  auto it = receivers_.find(clr_);
  if (it != receivers_.end()) {
    echo.receiver = clr_;
    echo.ts = it->second.last_fb_ts;
    echo.delay = now - it->second.last_fb_arrival;
  }
  return echo;
}

void TfmccSender::send_data() {
  if (!running_) return;
  const SimTime now = sim_.now();

  // Gradual slowstart ramp: interpolate from the committed base to the
  // target over one (maximum) RTT rather than jumping (§2.6).
  if (slowstart_ && ss_target_ > 0.0) {
    const double frac = std::min(
        1.0, (now - ss_commit_) / std::max(max_rtt_estimate(), SimTime::millis(1)));
    rate_ = ss_base_ + (ss_target_ - ss_base_) * frac;
  }
  if (slowstart_) peak_ss_rate_ = std::max(peak_ss_rate_, rate_);

  auto pkt = sim_.make_packet();
  pkt->src = session_.source();
  pkt->sport = session_.control_port();
  pkt->dport = session_.data_port();
  pkt->group = session_.group();
  pkt->size_bytes = cfg_.packet_bytes;

  TfmccDataHeader h;
  h.seqno = seqno_++;
  h.send_ts = now;
  h.send_rate_Bps = rate_;
  h.clr = clr_;
  h.slowstart = slowstart_;
  h.round = round_;
  h.fb_deadline = round_T_;
  h.supp_rate_Bps = round_min_rate_;
  h.supp_has_loss = round_min_has_loss_;
  h.echo = pick_echo(now);
  pkt->header = h;

  session_.send_from_source(std::move(pkt));
  ++data_sent_;

  const double gap_sec =
      static_cast<double>(cfg_.packet_bytes) / std::max(rate_, min_rate_floor());
  send_timer_ = sim_.in(SimTime::seconds(gap_sec), [this] { send_data(); });
}

void TfmccSender::handle_packet(const Packet& p) {
  if (const auto* f = p.tfmcc_feedback()) {
    ++feedback_received_;
    on_feedback(*f);
  }
}

void TfmccSender::set_clr(std::int32_t id, double rate, bool ramp) {
  if (cfg_.remember_previous_clr && clr_ != kInvalidReceiver && clr_ != id) {
    prev_clr_ = clr_;
    prev_clr_rate_ = clr_rate_;
    prev_clr_since_ = sim_.now();
  }
  clr_ = id;
  clr_rate_ = rate;
  clr_last_fb_ = sim_.now();
  ramp_ = ramp;
  auto it = receivers_.find(id);
  clr_rtt_ = (it != receivers_.end() && it->second.has_rtt) ? it->second.rtt
                                                            : cfg_.initial_rtt;
  clr_history_.emplace_back(sim_.now(), id);
}

void TfmccSender::clr_lost() {
  erase_receiver(clr_);
  clr_ = kInvalidReceiver;
  // Select the lowest-rate receiver we know of; ramp to its rate gradually
  // (one packet per RTT) since the loss estimate at the new, higher rate is
  // not yet meaningful (§2.2).
  std::int32_t best = kInvalidReceiver;
  double best_rate = std::numeric_limits<double>::infinity();
  for (const auto& [id, info] : receivers_) {
    if (info.rate_Bps >= 0.0 && info.rate_Bps < best_rate) {
      best = id;
      best_rate = info.rate_Bps;
    }
  }
  if (best != kInvalidReceiver) {
    set_clr(best, best_rate, /*ramp=*/true);
  } else {
    // No remaining receiver has a usable rate estimate (e.g. the only
    // congested receiver left and the others have never seen loss, so they
    // never report in steady state).  Fall back to the conservative
    // slowstart probe: receivers answer with receive rates, the rate ramps
    // bounded by 2x the minimum receive rate, and the first loss event
    // produces a fresh CLR (§2.6 semantics, re-applied mid-session).
    slowstart_ = true;
    ss_target_ = -1.0;
    round_min_recv_ = -1.0;
  }
}

void TfmccSender::apply_clr_report(const ReceiverInfo& info, double eff,
                                   std::int32_t from) {
  clr_last_fb_ = sim_.now();
  if (info.has_rtt) clr_rtt_ = info.rtt;
  if (eff < 0.0) return;  // keepalive without a rate estimate
  clr_rate_ = eff;

  // Appendix C: if the new CLR's rate rises back above the previous CLR's
  // stored rate shortly after a switch, switch back instead of increasing.
  if (cfg_.remember_previous_clr && prev_clr_ != kInvalidReceiver &&
      prev_clr_ != from &&
      sim_.now() - prev_clr_since_ <= cfg_.previous_clr_hold &&
      eff > prev_clr_rate_ && receivers_.count(prev_clr_) > 0) {
    const double back_rate = std::min(prev_clr_rate_, rate_);
    set_clr(prev_clr_, back_rate, /*ramp=*/false);
    prev_clr_ = kInvalidReceiver;
    return;
  }

  double new_rate;
  if (eff <= rate_) {
    new_rate = eff;  // decreases take effect immediately (§2.2)
    ramp_ = false;
  } else if (ramp_) {
    // After a CLR change the increase is limited to one packet per RTT
    // (TCP's additive-increase constant, §2.2).
    const double step = cfg_.increase_limit_pkts *
                        static_cast<double>(cfg_.packet_bytes) /
                        std::max(clr_rtt_.to_seconds(), 1e-3);
    new_rate = std::min(eff, rate_ + step);
    if (new_rate >= eff) ramp_ = false;
  } else {
    new_rate = eff;
  }
  // Never send at more than recv_rate_cap_mult times what the CLR actually
  // receives (TFRC's receive-rate cap; bounds overshoot after estimation
  // glitches).
  if (info.recv_rate_Bps > 0.0) {
    new_rate = std::min(new_rate, cfg_.recv_rate_cap_mult * info.recv_rate_Bps);
  }
  rate_ = std::max(new_rate, min_rate_floor());
}

void TfmccSender::on_feedback(const TfmccFeedbackHeader& f) {
  const SimTime now = sim_.now();
  round_had_feedback_ = true;

  if (f.leaving) {
    erase_receiver(f.receiver);
    echo_queue_.erase(
        std::remove_if(echo_queue_.begin(), echo_queue_.end(),
                       [&](const PendingEcho& e) { return e.receiver == f.receiver; }),
        echo_queue_.end());
    if (f.receiver == clr_) clr_lost();
    if (f.receiver == prev_clr_) prev_clr_ = kInvalidReceiver;
    return;
  }

  // Sender-side RTT measurement (§2.4.4): echo of our data timestamp minus
  // the receiver's hold time.
  SimTime sender_rtt = SimTime::zero();
  if (f.echo_ts > SimTime::zero()) {
    const SimTime sample = now - f.echo_ts - f.echo_delay;
    if (sample > SimTime::zero()) sender_rtt = sample;
  }

  // Effective calculated rate: reports computed with the initial RTT are
  // recomputed with the sender-side measurement before being acted upon.
  double eff = f.calc_rate_Bps;
  if (!f.has_rtt && f.loss_event_rate > 0.0 && sender_rtt > SimTime::zero()) {
    eff = cfg_.equation->throughput_Bps(cfg_.packet_bytes, sender_rtt,
                                        f.loss_event_rate);
  }

  auto [slot, inserted] = receivers_.try_emplace(f.receiver);
  auto& info = slot->second;
  if (inserted) note_rtt(info);  // a fresh entry has no RTT yet
  const bool causes_clr_switch =
      !slowstart_ && eff >= 0.0 &&
      (clr_ == kInvalidReceiver || (f.receiver != clr_ && eff < rate_)) &&
      f.receiver != clr_;
  info.rate_Bps = eff;
  info.recv_rate_Bps = f.recv_rate_Bps;
  info.loss_event_rate = f.loss_event_rate;
  update_rtt(info, f.has_rtt,
             f.has_rtt ? f.rtt
             : sender_rtt > SimTime::zero() ? sender_rtt
                                            : cfg_.initial_rtt);
  info.has_loss = f.has_loss;
  info.last_fb = now;
  info.last_fb_ts = f.ts;
  info.last_fb_arrival = now;

  // Echo-slot queue (§2.4.2 priority order).
  int prio;
  if (causes_clr_switch) {
    prio = 0;
  } else if (!f.has_rtt) {
    prio = 1;
  } else if (f.receiver != clr_) {
    prio = 2;
  } else {
    prio = 3;
  }
  auto it = std::find_if(echo_queue_.begin(), echo_queue_.end(),
                         [&](const PendingEcho& e) { return e.receiver == f.receiver; });
  const PendingEcho pe{prio, eff < 0.0 ? f.recv_rate_Bps : eff, f.receiver,
                       f.ts, now};
  if (it != echo_queue_.end()) {
    *it = pe;
  } else if (echo_queue_.size() < kMaxEchoQueue) {
    echo_queue_.push_back(pe);
  } else {
    // Queue full: replace the worst entry if we beat it.
    auto worst = std::max_element(
        echo_queue_.begin(), echo_queue_.end(),
        [](const PendingEcho& a, const PendingEcho& b) {
          return std::tie(a.priority, a.rate_Bps) < std::tie(b.priority, b.rate_Bps);
        });
    if (std::tie(pe.priority, pe.rate_Bps) <
        std::tie(worst->priority, worst->rate_Bps)) {
      *worst = pe;
    }
  }

  // Suppression echo: track this round's lowest useful report (§2.5.2).  In
  // slowstart the comparison value is the receive rate and loss reports
  // dominate no-loss reports (§2.6).
  if (f.round == round_) {
    const double value = slowstart_ ? f.recv_rate_Bps : eff;
    if (value >= 0.0) {
      bool replace;
      if (round_min_rate_ < 0.0) {
        replace = true;
      } else if (slowstart_ && f.has_loss != round_min_has_loss_) {
        replace = f.has_loss;  // loss reports dominate
      } else {
        replace = value < round_min_rate_;
      }
      if (replace) {
        round_min_rate_ = value;
        round_min_has_loss_ = f.has_loss;
      }
    }
  }

  if (slowstart_) {
    if (f.has_loss) {
      // First loss anywhere in the group terminates slowstart (§2.6).
      slowstart_ = false;
      ss_target_ = -1.0;
      ss_exit_time_ = now;
      if (eff >= 0.0) {
        set_clr(f.receiver, eff, /*ramp=*/false);
        rate_ = std::max(std::min(rate_, eff), min_rate_floor());
      } else {
        set_clr(f.receiver, rate_, /*ramp=*/false);
      }
    } else if (f.recv_rate_Bps > 0.0) {
      round_min_recv_ = round_min_recv_ < 0.0
                            ? f.recv_rate_Bps
                            : std::min(round_min_recv_, f.recv_rate_Bps);
    }
    return;
  }

  // Steady state.
  if (clr_ == kInvalidReceiver) {
    if (eff >= 0.0) {
      set_clr(f.receiver, eff, /*ramp=*/false);
      rate_ = std::max(std::min(rate_, eff), min_rate_floor());
    }
    return;
  }
  if (f.receiver == clr_) {
    apply_clr_report(info, eff, f.receiver);
    return;
  }
  if (eff >= 0.0 && eff < rate_) {
    // A receiver reports a lower acceptable rate: it becomes the CLR and the
    // rate drops immediately (§2.2).
    set_clr(f.receiver, eff, /*ramp=*/false);
    rate_ = std::max(eff, min_rate_floor());
  }
}

}  // namespace tfmcc
