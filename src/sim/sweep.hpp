#pragma once

// Parameter-sweep driver: runs one scenario over a cartesian grid of
// `--set`-able parameter values and aggregates the per-point CSV traces
// into a single table.
//
//   tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6
//                                 --sweep trials=50,150 --jobs 4
//
// Axis syntax (the value part of `--sweep key=...`):
//   v1,v2,v3         explicit list, values passed through verbatim
//   lo:hi:linN       N points linearly spaced from lo to hi inclusive
//   lo:hi:logN       N points geometrically spaced from lo to hi inclusive
// Range points for integer-typed parameters are rounded and adjacent
// duplicates collapsed, so e.g. 1:10:log20 yields each count once.
//
// run_sweep is three steps.  Plan (plan_sweep, sim/sweep_state.hpp)
// validates the axes, checks the grid and grid x replicate caps before
// expanding the grid, validates every point against the scenario's
// ParamSpecs, and lists the tasks this shard owns; the campaign supervisor
// runs the same plan.  Execute runs the owned tasks on a fixed-size thread
// pool (`--jobs N`), each with its output sink redirected to a private
// buffer (see ScenarioOptions::set_output).  Workers claim the costliest
// tasks first within bounded windows of the task order (see
// sweep_point_cost), but each run's output is folded into its grid point's
// statistics accumulator strictly in task order, as soon as every earlier
// task has completed, and the raw capture is released — so the
// accumulators see rows in the same order a serial sweep would feed them,
// `--jobs 1` and `--jobs N` produce byte-identical output, and peak memory
// holds the in-flight window instead of all grid x N outputs.  Emit
// (emit_sweep_aggregate) writes rows in deterministic grid order — axes
// vary with the last `--sweep` fastest.  Figure-header/CHECK/NOTE
// commentary from the points is dropped from the aggregate; per-point CSV
// headers must agree.
//
// `--replicate N` runs every grid point N times with per-replicate seeds
// derived from the base `--seed` (see derive_replicate_seed; unset base
// defaults to 0 so the replicate set is a pure function of the base) and
// collapses each point's rows — across replicates — into summary rows via
// the analysis/summary column-statistics engine: numeric columns expand to
// `<col>_mean`/`<col>_cov`/... for the `--stats` selection (default
// mean,cov), non-numeric columns act as group-by labels (one summary row
// per distinct label tuple, e.g. per flow; all-numeric traces collapse to
// one row per point), and a trailing `n_rep` column records the replicate
// count.  `--replicate 1` keeps today's raw-row aggregate byte-for-byte.
// `--progress` forces the throttled progress/ETA line that is otherwise
// only emitted when stderr is a TTY.
//
// The command lines of `sweep` and `campaign` are one flag table (see
// parse_sweep_command and Flag in sim/scenario.hpp): the flags that define
// the sweep are shared, and campaign forwards exactly those to its shards.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/scenario.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

namespace tfmcc {

/// One swept parameter: the key plus the expanded value list, each value a
/// string exactly as it would appear in `--set key=value`.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses one `--sweep key=spec` argument into an expanded axis.  `spec`
/// is the scenario's declaration of the key when available — it selects
/// integer rounding for range points — and may be null (unknown keys are
/// reported later by per-point validation, not here).  Returns false after
/// a diagnostic on `err` for syntax errors: missing '=', empty lists,
/// malformed bounds, ranges with fewer than two points, or log ranges with
/// non-positive bounds.
bool parse_sweep_axis(std::string_view text, const ParamSpec* spec,
                      SweepAxis& axis, std::ostream& err);

/// Cartesian product of the axes in declaration order, the last axis
/// varying fastest.  One grid point is one value per axis.
std::vector<std::vector<std::string>> expand_grid(
    const std::vector<SweepAxis>& axes);

/// Label for per-point diagnostics: "n_receivers=2,trials=50".
std::string point_label(const std::vector<SweepAxis>& axes,
                        const std::vector<std::string>& point);

/// Scheduling/progress cost hint for one grid point: the product of its
/// axis values that parse as numbers greater than 1 (n_receivers=2000 →
/// 2000); non-numeric and small values contribute 1, so every hint is
/// >= 1.  Purely a heuristic, with two uses.  Workers claim the costliest
/// pending tasks first within windows of max(8, 4 x jobs) consecutive
/// tasks, so an uneven grid's expensive tail starts early instead of
/// stalling the pool at the end; fold order stays task order, preserving
/// the byte-identity contract.  And the hints weight the progress/ETA
/// line.
double sweep_point_cost(const std::vector<std::string>& point);

/// Weighted ETA: elapsed time extrapolated over remaining *work* (cost
/// hints), not remaining run count — an uneven grid that finished its
/// cheap half is not half done.  Returns 0 when no work has completed.
double weighted_eta_seconds(double elapsed_s, double weight_done,
                            double weight_total);

/// One run's CSV content with the commentary stripped: the header line and
/// every data row split into cells.  An empty header means the run printed
/// no CSV (blank lines are commentary, so a real header is never empty).
struct RunOutput {
  std::string header;
  std::vector<std::vector<std::string>> rows;
};

/// True for the text a scenario interleaves with its CSV: the figure
/// header (`#`), `CHECK ` and `NOTE:` lines, and blank lines.
bool is_commentary(std::string_view line);

/// Parses a scenario's captured text output: commentary lines are dropped,
/// the first remaining line becomes the header, the rest the data rows.
/// Never fails: any text is some output.
RunOutput parse_run_output(std::string_view text);

struct SweepOptions {
  std::vector<SweepAxis> axes;
  int jobs{1};
  /// Runs per grid point.  1 (the default) emits the points' raw rows;
  /// N > 1 emits one statistics row per point over the N replicates.
  int replicate{1};
  /// Statistics expanded per numeric column when replicate > 1; ignored
  /// (with a diagnostic at the CLI layer) for single-replicate sweeps.
  std::vector<summary::Stat> stats{summary::default_stats()};
  /// Force the progress/ETA line even when stderr is not a TTY.
  bool progress{false};
  /// `--shard i/n`: run only the grid points this shard owns (point index
  /// mod shard_count == shard_index) and write a partial-aggregate
  /// artifact instead of CSV; `tfmcc_sim merge` folds the n partials into
  /// the byte-identical unsharded aggregate.  shard_count 1 = unsharded.
  int shard_index{0};
  int shard_count{1};
  /// `--checkpoint <path>`: periodically persist the fold state (atomic
  /// temp-file + rename) so a killed sweep can continue with --resume.
  /// Written after every `checkpoint_every` folded tasks.
  std::string checkpoint_path;
  int checkpoint_every{8};
  /// `--resume <path>`: restore a checkpoint and re-run only the unfolded
  /// suffix.  The checkpoint's manifest must match this sweep exactly.
  std::string resume_path;
  /// `--max-point-failures K`: tolerate up to K failing *grid points*
  /// (a failed replicate fails its whole point) instead of poisoning the
  /// sweep on the first worker error.  Failed points are dropped from the
  /// aggregate, replayed in an end-of-run report, and the sweep still
  /// exits nonzero.  0 (the default) keeps fail-fast behaviour.
  int max_point_failures{0};
  /// Applied to every point (duration/seed/--set overrides); its output
  /// sink and output_path are ignored — the aggregate goes to `out`.
  ScenarioOptions base;
};

/// Expands the grid, validates every point against the scenario's declared
/// parameters, runs all points on `jobs` worker threads, and writes the
/// aggregated CSV — the swept keys prepended as columns, rows in grid
/// order — to `out`.  Returns 0 on success; nonzero after a diagnostic on
/// `err` when validation fails, a point exits nonzero (beyond
/// `max_point_failures`), the per-point traces cannot be merged (no CSV,
/// or mismatched headers), or the run was interrupted (see
/// request_sweep_interrupt).
int run_sweep(const Scenario& scenario, const SweepOptions& sweep,
              std::ostream& out, std::ostream& err);

/// Asks the running sweep to stop: workers finish their in-flight run,
/// claim nothing further, and — when checkpointing — the sweep flushes a
/// final best-effort checkpoint before returning nonzero, so a `--resume`
/// continues exactly where the interrupt landed.  Async-signal-safe (sets
/// one atomic flag); `sweep_main` wires it to SIGTERM/SIGINT whenever
/// `--checkpoint` is active.
void request_sweep_interrupt();

#if defined(__unix__) || defined(__APPLE__)
/// Routes SIGTERM and SIGINT to `handler` while alive and restores the
/// previous dispositions on destruction, so a graceful-stop handler never
/// outlives the run it protects.
struct ScopedStopSignals {
  explicit ScopedStopSignals(void (*handler)(int)) {
    struct sigaction sa {};
    sa.sa_handler = handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &old_term);
    sigaction(SIGINT, &sa, &old_int);
  }
  ~ScopedStopSignals() {
    sigaction(SIGTERM, &old_term, nullptr);
    sigaction(SIGINT, &old_int, nullptr);
  }
  ScopedStopSignals(const ScopedStopSignals&) = delete;
  ScopedStopSignals& operator=(const ScopedStopSignals&) = delete;

  struct sigaction old_term {};
  struct sigaction old_int {};
};
#endif

/// The command-line head `sweep` and `campaign` share: argv[0] names the
/// scenario, the rest parses against the sweep-definition flags (`--sweep`
/// key=spec, repeatable; `--replicate N`; `--stats list`; the single-run
/// flags), which campaign forwards to its shards, followed by the
/// command's own `flags`.  The arguments of forwarded flags are appended to
/// `forwarded` when it is given.  Returns the scenario, or nullptr after a
/// usage line or diagnostic on `err`.
const Scenario* parse_sweep_command(std::string_view command, int argc,
                                    char** argv, FlagTable flags,
                                    SweepOptions& sweep,
                                    std::vector<std::string>* forwarded,
                                    std::ostream& err);

/// parse_sweep_command for `tfmcc_sim sweep`, whose own flags are `--jobs
/// N`, `--progress`, `--shard i/n`, `--checkpoint <path>`,
/// `--checkpoint-every N`, `--resume <path>` and `--max-point-failures K`.
const Scenario* parse_sweep_cli(int argc, char** argv, SweepOptions& sweep,
                                std::ostream& err);

/// CLI entry for `tfmcc_sim sweep <scenario> ...`: argv holds everything
/// after the `sweep` token (see parse_sweep_cli).  Returns the process exit
/// code.
int sweep_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
