#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "sim/sweep_state.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace tfmcc {

namespace {

/// Set by request_sweep_interrupt (and the SIGTERM/SIGINT handlers
/// sweep_main installs while checkpointing): workers stop claiming tasks
/// and run_sweep flushes a final checkpoint.  Cleared at run_sweep entry.
std::atomic<bool> g_sweep_interrupt{false};

/// Cap on scheduled scenario runs (grid points times replicates).  Purely a
/// task-count guard against typo-sized grids: replicated sweeps stream each
/// run's output into the statistics accumulators as it completes, so peak
/// memory holds the in-flight runs and the accumulated data rows, not all
/// grid x N outputs.
constexpr std::size_t kMaxGridPoints = 1'000'000;

std::string format_value(double v, bool integral) {
  if (integral) return std::to_string(std::llround(v));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The base options with one grid point's axis values applied.
ScenarioOptions point_options(const SweepOptions& sweep,
                              const std::vector<std::string>& point) {
  ScenarioOptions opts = sweep.base;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    opts.set_param(sweep.axes[a].key, point[a]);
  }
  return opts;
}

struct PointResult {
  int rc{0};
  /// The run's CSV content, parsed by the worker thread; the fold moves
  /// its rows into the grid point's accumulator.
  RunOutput output;
  std::string error;
};

/// "replicate 2/5 (seed 1234...)" when replicating, "" otherwise; names the
/// exact run a diagnostic is about and the seed to reproduce it standalone.
std::string replicate_label(const SweepOptions& sweep, std::uint64_t rep,
                            int n_rep) {
  if (n_rep <= 1) return {};
  return " replicate " + std::to_string(rep + 1) + "/" +
         std::to_string(n_rep) + " (seed " +
         std::to_string(
             derive_replicate_seed(sweep.base.seed.value_or(0), rep)) +
         ")";
}

bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stderr)) != 0;
#else
  return false;
#endif
}

/// Throttled completed/total + elapsed/ETA line on `err`.  On a TTY the
/// line rewrites itself in place; when forced onto a non-TTY stream
/// (`--progress` under redirection) each update is its own line.  Uses the
/// monotonic clock so wall-clock adjustments cannot yield negative ETAs.
///
/// Counts are shard-local (`label` carries the "sweep shard i/n" prefix);
/// percent and ETA weight each run by its cost hint, so a ladder grid that
/// finished its cheap half does not claim to be half done.  Tasks restored
/// from a checkpoint count toward the totals but not toward the observed
/// rate — they cost this session nothing.
class ProgressReporter {
 public:
  ProgressReporter(std::string label, std::size_t total, double total_weight,
                   std::size_t restored, double restored_weight, bool enabled,
                   bool tty, std::ostream& err)
      : label_{std::move(label)},
        total_{total},
        total_weight_{total_weight},
        restored_weight_{restored_weight},
        enabled_{enabled},
        tty_{tty},
        err_{err},
        start_{std::chrono::steady_clock::now()},
        done_{restored},
        weight_done_{restored_weight} {}

  /// Thread-safe; called by workers after each completed run.
  void task_done(double weight) {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    weight_done_ += weight;
    if (!enabled_) return;
    const auto now = std::chrono::steady_clock::now();
    if (done_ != total_ &&
        now - last_print_ < std::chrono::milliseconds(200)) {
      return;
    }
    printed_ = true;
    last_print_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double eta = weighted_eta_seconds(
        elapsed, weight_done_ - restored_weight_,
        total_weight_ - restored_weight_);
    const double pct =
        total_weight_ > 0.0 ? 100.0 * weight_done_ / total_weight_ : 100.0;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu/%zu runs (%.0f%%) elapsed %.1fs eta %.1fs",
                  label_.c_str(), done_, total_, pct, elapsed, eta);
    if (tty_) {
      err_ << '\r' << buf << "  " << std::flush;
    } else {
      err_ << buf << '\n';
    }
  }

  /// Terminates the in-place TTY line so later diagnostics start clean.
  void finish() {
    if (enabled_ && tty_ && printed_) err_ << '\n';
  }

 private:
  const std::string label_;
  const std::size_t total_;
  const double total_weight_;
  const double restored_weight_;
  const bool enabled_;
  const bool tty_;
  std::ostream& err_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::size_t done_;
  double weight_done_;
  bool printed_{false};
  std::chrono::steady_clock::time_point last_print_{};
};

}  // namespace

bool parse_sweep_axis(std::string_view text, const ParamSpec* spec,
                      SweepAxis& axis, std::ostream& err) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == text.size()) {
    err << "error: --sweep expects key=v1,v2,... or key=lo:hi:linN|logN, got '"
        << text << "'\n";
    return false;
  }
  axis.key = std::string{text.substr(0, eq)};
  axis.values.clear();
  const std::string_view body = text.substr(eq + 1);

  if (body.find(':') == std::string_view::npos) {
    // split_csv keeps empty fields, so "1,,2" is diagnosable.
    for (std::string& v : summary::split_csv(body)) {
      if (v.empty()) {
        err << "error: empty value in --sweep list '" << text << "'\n";
        return false;
      }
      axis.values.push_back(std::move(v));
    }
    return true;
  }

  // A range is exactly lo:hi:stepN.  Read as commas, its colons split it
  // into three parts; a stray comma makes a fourth and fails the parse.
  std::string range{body};
  std::replace(range.begin(), range.end(), ':', ',');
  const auto parts = summary::split_csv(range);
  double lo = 0, hi = 0;
  const std::string kind = parts.size() == 3 ? parts[2].substr(0, 3) : "";
  std::int64_t n_points = 0;
  // An overflowing bound ("1e400") can never expand to a usable range.
  if (parts.size() != 3 || !parse_f64(parts[0], lo) || !std::isfinite(lo) ||
      !parse_f64(parts[1], hi) || !std::isfinite(hi) ||
      (kind != "lin" && kind != "log") ||
      !parse_i64(std::string_view{parts[2]}.substr(3), n_points)) {
    err << "error: malformed --sweep range '" << text
        << "' (expected key=lo:hi:linN or key=lo:hi:logN)\n";
    return false;
  }
  if (n_points < 2 || n_points > 1'000'000) {
    err << "error: --sweep range '" << text
        << "' needs between 2 and 1e6 points\n";
    return false;
  }
  if (kind == "log" && (lo <= 0.0 || hi <= 0.0)) {
    err << "error: --sweep log range '" << text
        << "' requires positive bounds\n";
    return false;
  }

  const bool integral =
      spec != nullptr &&
      (spec->type == ParamType::kInt64 || spec->type == ParamType::kUint64);
  const double steps = static_cast<double>(n_points - 1);
  for (std::int64_t i = 0; i < n_points; ++i) {
    double v;
    if (i == n_points - 1) {
      v = hi;  // land exactly on the bound, no accumulated rounding
    } else if (kind == "log") {
      v = lo * std::pow(hi / lo, static_cast<double>(i) / steps);
    } else {
      v = lo + (hi - lo) * static_cast<double>(i) / steps;
    }
    std::string formatted = format_value(v, integral);
    // Integer rounding can collapse neighbouring points (1:10:log20);
    // keep each resulting value once.
    if (axis.values.empty() || axis.values.back() != formatted) {
      axis.values.push_back(std::move(formatted));
    }
  }
  return true;
}

std::vector<std::vector<std::string>> expand_grid(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::string>> grid{{}};
  for (const auto& axis : axes) {
    std::vector<std::vector<std::string>> next;
    next.reserve(grid.size() * axis.values.size());
    for (const auto& prefix : grid) {
      for (const auto& value : axis.values) {
        auto point = prefix;
        point.push_back(value);
        next.push_back(std::move(point));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

std::string point_label(const std::vector<SweepAxis>& axes,
                        const std::vector<std::string>& point) {
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a != 0) label += ',';
    label += axes[a].key + '=' + point[a];
  }
  return label;
}

double sweep_point_cost(const std::vector<std::string>& point) {
  double cost = 1.0;
  for (const auto& value : point) {
    double v = 0.0;
    if (summary::parse_number(value, v) && v > 1.0) cost *= v;
  }
  return cost;
}

double weighted_eta_seconds(double elapsed_s, double weight_done,
                            double weight_total) {
  if (weight_done <= 0.0) return 0.0;
  return elapsed_s / weight_done * std::max(0.0, weight_total - weight_done);
}

bool is_commentary(std::string_view line) {
  return line.empty() || line.front() == '#' ||
         line.substr(0, 6) == "CHECK " || line.substr(0, 5) == "NOTE:";
}

RunOutput parse_run_output(std::string_view text) {
  RunOutput run;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = std::min(text.find('\n', start), text.size());
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    if (is_commentary(line)) continue;
    if (run.header.empty()) {
      run.header = line;
    } else {
      run.rows.push_back(summary::split_csv(line));
    }
  }
  return run;
}

void request_sweep_interrupt() {
  g_sweep_interrupt.store(true, std::memory_order_relaxed);
}

bool plan_sweep(const Scenario& scenario, const SweepOptions& sweep,
                SweepPlan& plan, std::ostream& err) {
  auto fail = [&err](const std::string& why) {
    err << "error: " << why << '\n';
    return false;
  };
  if (sweep.axes.empty()) {
    return fail("sweep needs at least one --sweep key=... axis");
  }
  std::size_t n_points = 1;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    const SweepAxis& axis = sweep.axes[a];
    if (axis.values.empty()) {
      return fail("--sweep axis '" + axis.key + "' has no values");
    }
    for (std::size_t b = 0; b < a; ++b) {
      // A second axis for the same key would silently lose: set_param is
      // last-write-wins, so the first axis' column would mislabel what ran.
      if (sweep.axes[b].key == axis.key) {
        return fail("duplicate --sweep axis for key '" + axis.key +
                    "' (combine the values into one axis)");
      }
    }
    // Cap the product before expanding it: three 1e6-value axes are each
    // legal on their own.
    if (axis.values.size() > kMaxGridPoints / n_points) {
      return fail("sweep grid exceeds " + std::to_string(kMaxGridPoints) +
                  " points");
    }
    n_points *= axis.values.size();
  }
  const auto n_rep = static_cast<std::size_t>(sweep.replicate);
  if (sweep.replicate < 1) return fail("--replicate must be at least 1");
  if (n_rep > kMaxGridPoints / n_points) {
    return fail("sweep grid times --replicate exceeds " +
                std::to_string(kMaxGridPoints) + " runs");
  }
  if (n_rep > 1 && sweep.stats.empty()) {
    return fail("--replicate needs at least one statistic");
  }
  if (sweep.shard_count < 1 || sweep.shard_index < 0 ||
      sweep.shard_index >= sweep.shard_count) {
    return fail("shard index " + std::to_string(sweep.shard_index) +
                " is out of range for " + std::to_string(sweep.shard_count) +
                " shard(s) (need 0 <= i < n)");
  }
  if (sweep.checkpoint_every < 1) {
    return fail("--checkpoint-every must be at least 1");
  }
  if (sweep.max_point_failures < 0) {
    return fail("--max-point-failures must be non-negative");
  }
  plan.manifest = SweepManifest::from(scenario, sweep);
  plan.grid = expand_grid(sweep.axes);
  // Validate every point before running anything, so a bad axis value is
  // one clean diagnostic instead of a mid-sweep failure.
  for (const auto& point : plan.grid) {
    if (!validate_scenario_params(scenario, point_options(sweep, point),
                                  err)) {
      err << "  (sweep point " << point_label(sweep.axes, point) << ")\n";
      return false;
    }
  }
  for (std::size_t t = 0; t < n_points * n_rep; ++t) {
    if (shard_owns_point(plan.manifest, plan.point_of(t))) {
      plan.owned_tasks.push_back(t);
    }
  }
  return true;
}

namespace {

/// One run_sweep after planning: resume restores a checkpoint, execute runs
/// the pending tasks and folds their output (the fold state is guarded by
/// its fold mutex while workers run), emit reports and writes the result.
struct SweepRun {
  SweepRun(const SweepOptions& s, const SweepPlan& p)
      : sweep{s},
        plan{p},
        folded(p.manifest.n_tasks(), 0),
        point_failed(p.grid.size(), 0) {}

  const SweepOptions& sweep;
  const SweepPlan& plan;
  /// folded[t] != 0 once task t's output is in its point's accumulator.
  std::vector<char> folded;
  std::string header;
  std::vector<summary::ColumnSummary> per_point;
  /// Monotone across resumes: every checkpoint write bumps it, so a
  /// supervisor polling read_checkpoint_progress sees strictly increasing
  /// heartbeats from a live shard even when no new task folded.
  std::uint64_t heartbeat{0};
  std::size_t fold_cursor{0};  // index into plan.owned_tasks
  std::size_t folds_since_ckpt{0};
  /// Point-granularity failure tolerance: one failed replicate fails its
  /// whole grid point (the point's statistics would be over a different
  /// replicate set than its neighbours').  Within --max-point-failures the
  /// sweep keeps running and masks the failed points out of the aggregate.
  std::vector<char> point_failed;
  int n_failed_points{0};
  bool any_failed{false};
  bool merge_failed{false};
  bool checkpoint_failed{false};
  /// Diagnostics produced mid-sweep are buffered and replayed after the
  /// progress line finishes: run failures separately from the first merge
  /// error (reported only when every run succeeded), checkpoint-write
  /// failures last.
  std::ostringstream failure_log;
  std::ostringstream merge_log;
  std::ostringstream ckpt_log;

  bool resume(std::ostream& err);
  void execute(const Scenario& scenario, std::ostream& err);
  int emit(std::ostream& out, std::ostream& err);
  void fold_task(std::size_t t, PointResult& res);
  void checkpoint(bool force);
  SweepStateFile snapshot(SweepStateFile::Kind kind) const;
};

/// Restores the fold state from the `--resume` checkpoint, if one is given.
bool SweepRun::resume(std::ostream& err) {
  if (sweep.resume_path.empty()) return true;
  SweepStateFile ckpt;
  if (!load_state_file(sweep.resume_path, ckpt, err,
                       SweepStateFile::Kind::kCheckpoint) ||
      !ckpt.manifest.matches(plan.manifest, /*ignore_shard_index=*/false,
                             "checkpoint '" + sweep.resume_path + "'", err)) {
    return false;
  }
  if (ckpt.header.empty() && !ckpt.points.empty()) {
    err << "error: cannot load '" << sweep.resume_path
        << "': point state without a CSV header\n";
    return false;
  }
  folded = std::move(ckpt.folded);
  header = std::move(ckpt.header);
  heartbeat = ckpt.heartbeat;
  if (!header.empty()) {
    per_point.assign(plan.grid.size(),
                     summary::ColumnSummary{summary::split_csv(header)});
    for (auto& [idx, state] : ckpt.points) per_point[idx] = std::move(state);
  }
  return true;
}

/// Folds one completed task (caller holds the fold mutex; called in task
/// order) and releases its capture.
void SweepRun::fold_task(std::size_t t, PointResult& res) {
  const std::size_t p = plan.point_of(t);
  const int n_rep = sweep.replicate;
  const int max_pf = sweep.max_point_failures;
  RunOutput output = std::move(res.output);
  auto where = [&] {
    return point_label(sweep.axes, plan.grid[p]) +
           replicate_label(sweep, t % static_cast<std::size_t>(n_rep), n_rep);
  };
  if (res.rc != 0) {
    failure_log << "error: sweep point " << where() << " failed";
    if (!res.error.empty()) {
      failure_log << " with exception: " << res.error << '\n';
    } else {
      failure_log << " (exit code " << res.rc << ")\n";
    }
    any_failed = true;
    if (point_failed[p] == 0) {
      point_failed[p] = 1;
      ++n_failed_points;
    }
    return;
  }
  if (merge_failed || point_failed[p] != 0 || output.header.empty() ||
      (max_pf == 0 ? any_failed : n_failed_points > max_pf)) {
    return;
  }
  if (header.empty()) {
    header = output.header;
    per_point.assign(plan.grid.size(),
                     summary::ColumnSummary{summary::split_csv(header)});
  } else if (output.header != header) {
    merge_log << "error: sweep point " << where() << " emitted CSV header '"
              << output.header << "' but earlier points emitted '" << header
              << "'\n";
    merge_failed = true;
    return;
  }
  for (auto& cells : output.rows) {
    if (n_rep == 1) {
      // The raw aggregate passes ragged rows through verbatim.
      per_point[p].add_row_unchecked(std::move(cells));
    } else if (!per_point[p].add_row(std::move(cells), merge_log)) {
      merge_log << "  (sweep point " << where() << ")\n";
      merge_failed = true;
      return;
    }
  }
}

/// Snapshots the fold state to the checkpoint file (caller holds the fold
/// mutex while workers run).  Checkpoints stop once a failure is recorded:
/// persisting a failed task as folded would let a resume skip it silently.
/// `force` bypasses the checkpoint-every gate (but never the failure
/// disarm) for the interrupt flush.
void SweepRun::checkpoint(bool force) {
  if (sweep.checkpoint_path.empty() || checkpoint_failed || any_failed ||
      merge_failed) {
    return;
  }
  const bool all_done = fold_cursor == plan.owned_tasks.size();
  if (!force &&
      folds_since_ckpt < static_cast<std::size_t>(sweep.checkpoint_every) &&
      !all_done) {
    return;
  }
  folds_since_ckpt = 0;
  ++heartbeat;
  const SweepStateFile ck = snapshot(SweepStateFile::Kind::kCheckpoint);
  if (!save_state_file_atomic(ck, sweep.checkpoint_path, ckpt_log)) {
    checkpoint_failed = true;
  }
}

/// The checkpoint or shard partial of the fold so far: the state of every
/// owned point with rows.  Failed (masked) points are left out entirely —
/// their accumulators may hold a partial replicate set.
SweepStateFile SweepRun::snapshot(SweepStateFile::Kind kind) const {
  SweepStateFile state;
  state.kind = kind;
  state.manifest = plan.manifest;
  state.header = header;
  if (kind == SweepStateFile::Kind::kCheckpoint) {
    state.heartbeat = heartbeat;
    state.folded = folded;
  }
  for (std::size_t p = 0; p < plan.grid.size(); ++p) {
    if (shard_owns_point(plan.manifest, p) && point_failed[p] == 0 &&
        !per_point.empty() && per_point[p].row_count() > 0) {
      state.points.emplace_back(p, per_point[p]);
    }
  }
  return state;
}

/// Runs the shard's pending tasks on a fixed-size pool of `jobs`
/// workers.  One task is one scenario run.  Completed tasks stream:
/// whenever the next owned task *in task order* has completed, it is folded
/// into its grid point's accumulator and its capture released, so the
/// accumulators see rows in exactly the order a serial unsharded sweep
/// would feed them — byte-identical output, independent of completion
/// order and of the cost-ordered scheduling below — while peak memory holds
/// only the in-flight window.
void SweepRun::execute(const Scenario& scenario, std::ostream& err) {
  std::vector<double> point_cost(plan.grid.size());
  for (std::size_t p = 0; p < plan.grid.size(); ++p) {
    point_cost[p] = sweep_point_cost(plan.grid[p]);
  }
  std::size_t restored = 0;
  double restored_weight = 0.0;
  double owned_weight = 0.0;
  std::vector<std::size_t> schedule;
  for (std::size_t t : plan.owned_tasks) {
    const double w = point_cost[plan.point_of(t)];
    owned_weight += w;
    if (folded[t] != 0) {
      ++restored;
      restored_weight += w;
    } else {
      schedule.push_back(t);
    }
  }

  // Longest-expected-first scheduling over the still-pending owned tasks:
  // starting the expensive points early keeps an uneven grid from stalling
  // the pool on one giant tail run.  The reorder is bounded to blocks of
  // consecutive tasks — folds (and therefore checkpoints and capture
  // release) advance strictly in task order, so a global sort would hold
  // every fold hostage to the cheapest task it scheduled last.  This
  // permutes only which worker picks what, never the fold order, so output
  // bytes are unaffected.
  const std::size_t window = std::max<std::size_t>(
      8, 4 * static_cast<std::size_t>(std::max(sweep.jobs, 1)));
  for (std::size_t b = 0; b < schedule.size(); b += window) {
    const auto first = schedule.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last =
        schedule.begin() +
        static_cast<std::ptrdiff_t>(std::min(b + window, schedule.size()));
    std::stable_sort(first, last, [&](std::size_t a, std::size_t c) {
      return point_cost[plan.point_of(a)] > point_cost[plan.point_of(c)];
    });
  }

  const std::string progress_label =
      sweep.shard_count == 1
          ? "sweep"
          : "sweep shard " + std::to_string(sweep.shard_index) + "/" +
                std::to_string(sweep.shard_count);
  const bool err_is_stderr_tty = &err == &std::cerr && stderr_is_tty();
  ProgressReporter progress(progress_label,
                            plan.owned_tasks.size(), owned_weight, restored,
                            restored_weight,
                            sweep.progress || err_is_stderr_tty,
                            err_is_stderr_tty, err);

  std::vector<PointResult> results(folded.size());
  std::vector<char> task_ready(results.size(), 0);
  std::atomic<std::size_t> next_slot{0};
  std::mutex fold_mu;
  auto worker = [&] {
    for (;;) {
      // An interrupt lets the in-flight run finish (its result still folds
      // and checkpoints) but claims nothing further.
      if (g_sweep_interrupt.load(std::memory_order_relaxed)) return;
      const std::size_t slot = next_slot.fetch_add(1);
      if (slot >= schedule.size()) return;
      const std::size_t t = schedule[slot];
      std::ostringstream sink;
      ScenarioOptions opts = point_options(sweep, plan.grid[plan.point_of(t)]);
      // When replicating, every replicate's seed — including replicate 0 —
      // derives from the same effective base (`--seed`, defaulting to 0),
      // so the replicate set is a pure function of the base seed and does
      // not half-overlap between a bare sweep and `--seed 0`.  A single
      // replicate keeps the base options untouched (seed unset means the
      // scenario default), reproducing a plain sweep byte-for-byte.
      if (sweep.replicate > 1) {
        opts.seed = derive_replicate_seed(
            sweep.base.seed.value_or(0),
            t % static_cast<std::size_t>(sweep.replicate));
      }
      opts.set_output(sink);
      opts.bind_specs(&scenario.params);
      try {
        results[t].rc = scenario.fn(opts);
      } catch (const std::exception& e) {
        results[t].rc = -1;
        results[t].error = e.what();
      } catch (...) {
        // Anything escaping the thread body would std::terminate the whole
        // sweep; degrade to a labelled per-point failure instead.
        results[t].rc = -1;
        results[t].error = "unknown exception";
      }
      // Strip commentary and split cells here, in the worker, so the fold
      // (serialized behind fold_mu) only moves pre-parsed rows.
      results[t].output = parse_run_output(sink.str());
      {
        std::lock_guard<std::mutex> lock(fold_mu);
        task_ready[t] = 1;
        while (fold_cursor < plan.owned_tasks.size()) {
          const std::size_t next = plan.owned_tasks[fold_cursor];
          if (folded[next] != 0) {  // restored from the checkpoint
            ++fold_cursor;
            continue;
          }
          if (task_ready[next] == 0) break;
          fold_task(next, results[next]);
          folded[next] = 1;
          ++fold_cursor;
          ++folds_since_ckpt;
          checkpoint(/*force=*/false);
        }
      }
      progress.task_done(point_cost[plan.point_of(t)]);
    }
  };
  const std::size_t n_workers = std::min<std::size_t>(
      schedule.size(), static_cast<std::size_t>(std::max(sweep.jobs, 1)));
  if (n_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t i = 0; i < n_workers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  progress.finish();
  // A fully restored resume folds nothing, so no fold wrote the end-of-sweep
  // checkpoint: refresh it here (a no-op rewrite).
  if (schedule.empty() && !g_sweep_interrupt.load(std::memory_order_relaxed)) {
    fold_cursor = plan.owned_tasks.size();
    checkpoint(/*force=*/false);
  }
}

/// Reports interrupts and failures, then writes the shard partial or
/// the aggregate CSV.  Returns the exit code.
int SweepRun::emit(std::ostream& out, std::ostream& err) {
  const int max_pf = sweep.max_point_failures;
  const bool tolerated = any_failed && !merge_failed &&
                         max_pf > 0 && n_failed_points <= max_pf;
  if (g_sweep_interrupt.load(std::memory_order_relaxed)) {
    // Best-effort final flush: capture whatever folded past the last
    // periodic write, so a --resume continues from the interrupt point
    // instead of the last checkpoint-every boundary.
    checkpoint(/*force=*/true);
    err << failure_log.str() << merge_log.str()
        << ckpt_log.str();
    if (!sweep.checkpoint_path.empty() && !checkpoint_failed &&
        !any_failed && !merge_failed) {
      err << "sweep: interrupted; checkpoint flushed to '"
          << sweep.checkpoint_path << "' (continue with --resume)\n";
    } else {
      err << "sweep: interrupted\n";
    }
    return 1;
  }
  if (any_failed && !tolerated) {
    err << failure_log.str();
    if (max_pf > 0) {
      err << "error: " << n_failed_points
          << " grid point(s) failed, exceeding --max-point-failures "
          << max_pf << '\n';
    }
    return 1;
  }
  if (merge_failed) {
    err << merge_log.str();
    return 1;
  }
  if (checkpoint_failed) {
    err << ckpt_log.str();
    return 2;
  }
  if (tolerated) {
    // Replay every failure and name every masked point, so the degraded
    // aggregate can never be mistaken for a complete one.
    err << failure_log.str();
    err << "sweep: " << n_failed_points << " of " << plan.grid.size()
        << " grid point(s) failed (within --max-point-failures " << max_pf
        << "); missing from the aggregate:\n";
    for (std::size_t p = 0; p < plan.grid.size(); ++p) {
      if (point_failed[p] != 0) {
        err << "  " << point_label(sweep.axes, plan.grid[p]) << '\n';
      }
    }
  }

  if (sweep.shard_count > 1) {
    // Shards do not emit CSV: the partial artifact carries each owned
    // point's accumulator bitwise, for `tfmcc_sim merge` to place into the
    // full grid.
    snapshot(SweepStateFile::Kind::kPartial).save(out);
    return tolerated ? 1 : 0;
  }

  if (per_point.empty()) {
    // No point produced CSV; emit_sweep_aggregate diagnoses via the empty
    // header, but needs the vector shaped to the grid.
    per_point.assign(plan.grid.size(), summary::ColumnSummary{{}});
  }
  const int rc = emit_sweep_aggregate(plan.manifest, plan.grid, per_point,
                                      header, out, err,
                                      tolerated ? &point_failed : nullptr);
  return rc != 0 ? rc : tolerated ? 1 : 0;
}

}  // namespace

int run_sweep(const Scenario& scenario, const SweepOptions& sweep,
              std::ostream& out, std::ostream& err) {
  SweepPlan plan;
  if (!plan_sweep(scenario, sweep, plan, err)) return 2;
  g_sweep_interrupt.store(false, std::memory_order_relaxed);
  SweepRun run{sweep, plan};
  if (!run.resume(err)) return 2;
  run.execute(scenario, err);
  return run.emit(out, err);
}

const Scenario* parse_sweep_command(std::string_view command, int argc,
                                    char** argv, FlagTable flags,
                                    SweepOptions& sweep,
                                    std::vector<std::string>* forwarded,
                                    std::ostream& err) {
  const Scenario* scenario = nullptr;
  bool stats_given = false;
  FlagTable table = {
      {"--sweep", "key=v1,v2,...|lo:hi:linN|logN",
       "key=v1,v2,... or key=lo:hi:linN|logN",
       [&](std::string_view v, std::ostream& e) {
         SweepAxis axis;
         const std::string_view key = v.substr(0, v.find('='));
         if (!parse_sweep_axis(v, scenario->find_param(key), axis, e)) {
           return false;
         }
         sweep.axes.push_back(std::move(axis));
         return true;
       },
       true, true},
      int_flag("--replicate", sweep.replicate, 1, 100'000),
      {"--stats", "mean,stddev,cov,min,max",
       "a comma-separated subset of mean,stddev,cov,min,max",
       [&](std::string_view v, std::ostream& e) {
         return stats_given = summary::parse_stats(v, sweep.stats, e);
       },
       false, true},
  };
  table[1].forward = true;
  table.insert(table.end(), flags.begin(), flags.end());
  for (Flag& f : scenario_flags(sweep.base)) table.push_back(std::move(f));
  if (argc < 1 || std::string_view{argv[0]}.substr(0, 2) == "--") {
    err << "usage: tfmcc_sim " << command << " <scenario>"
        << flag_usage(table) << '\n';
    return nullptr;
  }
  scenario = ScenarioRegistry::instance().find_or_diagnose(argv[0], err);
  if (scenario == nullptr ||
      !parse_flags(argc - 1, argv + 1, table, err, nullptr, forwarded)) {
    return nullptr;
  }
  if (stats_given && sweep.replicate == 1) {
    // A single replicate emits raw rows, so a stats selection would be
    // silently dead; make the contradiction loud.
    err << "error: --stats requires --replicate greater than 1\n";
    return nullptr;
  }
  return scenario;
}

const Scenario* parse_sweep_cli(int argc, char** argv, SweepOptions& sweep,
                                std::ostream& err) {
  auto shard = [&sweep](std::string_view v, std::ostream&) {
    // i/n: this invocation runs shard i of n and writes a partial artifact
    // for `tfmcc_sim merge`.
    const std::size_t slash = v.find('/');
    std::int64_t index = 0;
    std::int64_t count = 0;
    if (slash == std::string_view::npos ||
        !parse_i64(v.substr(0, slash), index) ||
        !parse_i64(v.substr(slash + 1), count) || count < 1 ||
        count > 10'000 || index < 0 || index >= count) {
      return false;
    }
    sweep.shard_index = static_cast<int>(index);
    sweep.shard_count = static_cast<int>(count);
    return true;
  };
  return parse_sweep_command(
      "sweep", argc, argv,
      {int_flag("--jobs", sweep.jobs, 1, 1024),
       {"--progress", "", "",
        [&sweep](std::string_view, std::ostream&) {
          return sweep.progress = true;
        }},
       {"--shard", "i/n", "i/n with 0 <= i < n <= 10000 (e.g. --shard 0/3)",
        shard},
       path_flag("--checkpoint", sweep.checkpoint_path),
       int_flag("--checkpoint-every", sweep.checkpoint_every, 1, 1'000'000),
       path_flag("--resume", sweep.resume_path, "a checkpoint file path"),
       int_flag("--max-point-failures", sweep.max_point_failures, 0,
                1'000'000)},
      sweep, nullptr, err);
}

int sweep_main(int argc, char** argv, std::ostream& err) {
  SweepOptions sweep;
  const Scenario* scenario = parse_sweep_cli(argc, argv, sweep, err);
  if (scenario == nullptr) return 2;
  return write_output(sweep.base.output_path, err, [&](std::ostream& out) {
    // While checkpointing, SIGTERM/SIGINT request a graceful stop — workers
    // drain, a final checkpoint is flushed, and the process exits nonzero
    // with the state resumable — instead of killing the process between
    // periodic writes.  Handlers are scoped to the run: restored before
    // returning so a supervisor embedding sweep_main keeps its own
    // disposition.
#if defined(__unix__) || defined(__APPLE__)
    std::optional<ScopedStopSignals> trap;
    if (!sweep.checkpoint_path.empty()) {
      trap.emplace([](int) { request_sweep_interrupt(); });
    }
#endif
    return run_sweep(*scenario, sweep, out, err);
  });
}

}  // namespace tfmcc
