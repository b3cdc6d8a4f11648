#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

/// The TFMCC sender (§2.2, §2.4.4, §2.5, §2.6).
///
/// Runs the rate-control loop driven by receiver reports: tracks the current
/// limiting receiver (CLR), manages feedback rounds and the suppression echo,
/// prioritises RTT-measurement echoes, and performs the conservative
/// multicast slowstart.
class TfmccSender final : public Agent {
 public:
  TfmccSender(Simulator& sim, MulticastSession& session, TfmccConfig cfg,
              Rng rng);
  ~TfmccSender() override;

  TfmccSender(const TfmccSender&) = delete;
  TfmccSender& operator=(const TfmccSender&) = delete;

  void start(SimTime at);
  void stop();

  void handle_packet(const Packet& p) override;  // receiver reports

  // --- state inspection ----------------------------------------------------
  double rate_Bps() const { return rate_; }
  bool in_slowstart() const { return slowstart_; }
  std::int32_t clr() const { return clr_; }
  std::int32_t round() const { return round_; }
  SimTime round_duration() const { return round_T_; }
  std::int64_t data_sent() const { return data_sent_; }
  std::int64_t feedback_received() const { return feedback_received_; }
  int known_receivers() const { return static_cast<int>(receivers_.size()); }
  int known_receivers_with_rtt() const {
    return known_receivers() - unmeasured_;
  }
  /// Highest rate reached before slowstart terminated (fig. 14).
  double peak_slowstart_rate_Bps() const { return peak_ss_rate_; }
  SimTime slowstart_exit_time() const { return ss_exit_time_; }
  /// Times at which the CLR changed (responsiveness figures).
  const std::vector<std::pair<SimTime, std::int32_t>>& clr_history() const {
    return clr_history_;
  }

 private:
  struct ReceiverInfo {
    double rate_Bps{-1.0};  // RTT-adjusted calculated rate; < 0: no estimate
    double recv_rate_Bps{0.0};
    double loss_event_rate{0.0};
    bool has_rtt{false};
    SimTime rtt{};
    bool has_loss{false};
    SimTime last_fb{};
    SimTime last_fb_ts{};       // receiver timestamp (echo source)
    SimTime last_fb_arrival{};  // our arrival time (echo hold computation)
  };

  struct PendingEcho {
    int priority{3};  // 0: new CLR, 1: no RTT yet, 2: non-CLR, 3: CLR
    double rate_Bps{0.0};
    std::int32_t receiver{kInvalidReceiver};
    SimTime ts{};
    SimTime fb_arrival{};
  };

  void send_data();
  void on_feedback(const TfmccFeedbackHeader& f);
  void start_round();
  void set_clr(std::int32_t id, double rate, bool ramp);
  void clr_lost();
  void erase_receiver(std::int32_t id);
  /// Remove / add one entry's contribution to the max-RTT aggregates.
  void forget_rtt(const ReceiverInfo& info);
  void note_rtt(const ReceiverInfo& info);
  void update_rtt(ReceiverInfo& info, bool has_rtt, SimTime rtt);
  void apply_clr_report(const ReceiverInfo& info, double eff,
                        std::int32_t from);
  SimTime max_rtt_estimate() const;
  TfmccEcho pick_echo(SimTime now);
  double min_rate_floor() const {
    return static_cast<double>(cfg_.packet_bytes) /
           cfg_.initial_rtt.to_seconds() * 0.5;
  }

  Simulator& sim_;
  MulticastSession& session_;
  TfmccConfig cfg_;
  Rng rng_;

  bool running_{false};
  double rate_;  // bytes/second
  std::int64_t seqno_{0};

  // Slowstart (§2.6).
  bool slowstart_{true};
  double ss_target_{-1.0};       // committed target rate for this round
  double ss_base_{0.0};          // rate when the target was committed
  SimTime ss_commit_{};
  double round_min_recv_{-1.0};  // min receive rate reported this round
  double peak_ss_rate_{0.0};
  SimTime ss_exit_time_{SimTime::infinity()};

  // CLR state (§2.2).
  std::int32_t clr_{kInvalidReceiver};
  double clr_rate_{0.0};
  SimTime clr_rtt_{};
  SimTime clr_last_fb_{};
  bool ramp_{false};  // increase limited to 1 pkt/RTT after CLR change
  std::vector<std::pair<SimTime, std::int32_t>> clr_history_;

  // Appendix C: previous-CLR memory.
  std::int32_t prev_clr_{kInvalidReceiver};
  double prev_clr_rate_{0.0};
  SimTime prev_clr_since_{};

  // Feedback round state (§2.5).
  std::int32_t round_{0};
  SimTime round_T_{};
  SimTime round_start_{};
  double round_min_rate_{-1.0};  // suppression echo value
  bool round_min_has_loss_{false};
  std::int32_t rounds_without_feedback_{0};
  bool round_had_feedback_{false};
  EventId round_timer_{};
  EventId send_timer_{};

  std::map<std::int32_t, ReceiverInfo> receivers_;
  // Exact aggregates over receivers_ for max_rtt_estimate(), updated on
  // every insert, update and erase: the measured RTTs (entries with
  // has_rtt) and the number of entries still without one.
  std::multiset<SimTime> measured_rtts_;
  int unmeasured_{0};
  std::vector<PendingEcho> echo_queue_;
  static constexpr std::size_t kMaxEchoQueue = 64;

  std::int64_t data_sent_{0};
  std::int64_t feedback_received_{0};
};

}  // namespace tfmcc
