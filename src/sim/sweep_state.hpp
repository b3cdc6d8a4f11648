#pragma once

// Campaign-scale sweep plumbing: sharding, checkpoint/resume, and the
// partial-aggregate artifacts `tfmcc_sim merge` folds back together.
//
// The determinism contract extends the existing `--jobs N == --jobs 1`
// byte-identity guarantee in two directions:
//
//   * Sharding.  `--shard i/n` gives shard i every grid point p with
//     p % n == i (all of a point's replicates stay together).  Each
//     point's accumulator sees exactly the rows, in exactly the order, the
//     unsharded sweep would feed it — which other points run alongside it
//     changes nothing — so a shard's partial state for its points is
//     bitwise-identical to the unsharded sweep's, and `merge` only ever
//     places each point's state from its unique owner.  Merged output is
//     therefore byte-identical (`cmp`) to the unsharded aggregate, and
//     merging partials is exactly associative.
//
//   * Resume.  Tasks fold into the accumulators strictly in task order, so
//     a checkpoint is always a *prefix* of the fold sequence: the folded
//     bitmap plus each touched point's serialized accumulator.  A resumed
//     sweep re-runs only the unfolded suffix and continues folding in the
//     same order, making its output byte-identical to an uninterrupted run.
//
// Both file kinds open with a manifest — scenario, axes, replicate count,
// stats, base overrides, shard — and a resume or merge that does not match
// the invoking sweep is refused with a diagnostic rather than silently
// blended.  Row data inside the files uses the length-prefixed accumulator
// serialization (analysis/summary), not CSV: nothing is re-parsed on load.
// Checkpoints additionally open with a two-line progress header (heartbeat
// save counter, folded/owned task counts) that a campaign supervisor can
// poll for liveness without loading the accumulators; see
// read_checkpoint_progress and sim/campaign.hpp.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/sweep.hpp"

namespace tfmcc {

/// Everything that identifies one sweep: the fields two invocations must
/// agree on for their accumulator states to be interchangeable.
struct SweepManifest {
  std::string scenario;
  std::vector<SweepAxis> axes;
  int replicate{1};
  std::vector<summary::Stat> stats;
  std::optional<std::int64_t> duration_ns;
  std::optional<std::uint64_t> seed;
  /// Base `--set` overrides, in the options' (sorted-map) order.
  std::vector<std::pair<std::string, std::string>> params;
  int shard_index{0};
  int shard_count{1};

  static SweepManifest from(const Scenario& scenario,
                            const SweepOptions& sweep);

  std::size_t n_points() const;
  std::size_t n_tasks() const {
    return n_points() * static_cast<std::size_t>(replicate);
  }
  /// The shard that owns grid point `point` (see shard_owns_point).
  int owner_of(std::size_t point) const {
    return static_cast<int>(point % static_cast<std::size_t>(shard_count));
  }

  void save(std::ostream& os) const;
  static bool load(std::istream& is, SweepManifest& out, std::string& err);

  /// True when `other` describes the same sweep.  Otherwise writes a
  /// diagnostic naming the first differing field, prefixed with `what`
  /// ("checkpoint" / "partial").  `ignore_shard_index` is set when merging
  /// partials, which differ in shard index by construction.
  bool matches(const SweepManifest& other, bool ignore_shard_index,
               std::string_view what, std::ostream& err) const;
};

/// Shard ownership rule: grid point p belongs to shard p % shard_count.
/// Round-robin keeps monotone-cost ladders (2..2000 receivers) balanced
/// across shards instead of handing one shard the whole expensive tail.
bool shard_owns_point(const SweepManifest& m, std::size_t point);

/// A validated sweep, before anything runs: its manifest, the expanded grid,
/// and which tasks this shard runs.  Task t is replicate t % replicate of
/// grid point t / replicate.  run_sweep executes a plan; the campaign
/// supervisor plans the same sweep to validate it once and to know which
/// shard owns each point.
struct SweepPlan {
  SweepManifest manifest;
  std::vector<std::vector<std::string>> grid;
  /// The tasks whose point this shard owns, in task order.
  std::vector<std::size_t> owned_tasks;

  std::size_t point_of(std::size_t task) const {
    return task / static_cast<std::size_t>(manifest.replicate);
  }
};

/// Validates `sweep` for `scenario` and fills `plan`.  The axes, the grid
/// and grid x replicate caps are checked before the grid is expanded, then
/// every point against the scenario's ParamSpecs.  Returns false after a
/// diagnostic on `err`: configuration errors, exit code 2.
bool plan_sweep(const Scenario& scenario, const SweepOptions& sweep,
                SweepPlan& plan, std::ostream& err);

/// On-disk state shared by checkpoints and shard partials: the manifest,
/// the CSV header once one was seen, per-point accumulator states, and —
/// for checkpoints — the completed-task bitmap.
struct SweepStateFile {
  enum class Kind { kCheckpoint, kPartial };
  Kind kind{Kind::kCheckpoint};
  SweepManifest manifest;
  std::string header;
  /// Checkpoints only: monotone save counter.  Incremented by the sweep on
  /// every checkpoint write (and restored across --resume), it is the
  /// heartbeat a campaign supervisor polls — see read_checkpoint_progress.
  std::uint64_t heartbeat{0};
  /// Checkpoints only: folded[t] != 0 when global task t's output has been
  /// folded.  Always a prefix of the shard's task order (ascending global
  /// index over owned tasks); load() enforces that invariant.
  std::vector<char> folded;
  /// (global point index, accumulator) for every point with state.
  std::vector<std::pair<std::size_t, summary::ColumnSummary>> points;

  void save(std::ostream& os) const;
  static bool load(std::istream& is, SweepStateFile& out, std::string& err);
};

/// The cheap-to-poll progress header a checkpoint file opens with: the
/// heartbeat save counter, the number of folded tasks, and the number of
/// tasks the writing shard owns in total.  All three are monotone across a
/// shard's lifetime (including resumes), so a supervisor can detect a
/// stalled or dead worker by polling these two lines without parsing the
/// manifest or deserializing a single accumulator.
struct CheckpointProgress {
  std::uint64_t heartbeat{0};
  std::uint64_t folded_tasks{0};
  std::uint64_t owned_tasks{0};
};

/// Reads just the magic line and progress header of the checkpoint at
/// `path`.  Returns false (with a diagnostic in `err`) when the file is
/// missing, is not a checkpoint, or has a malformed header — callers poll
/// this in a loop, so the common "no checkpoint yet" case must be cheap.
bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err);

/// Writes `state` to `path` via a temp file + rename, so a kill mid-write
/// can never leave a truncated checkpoint behind.  On POSIX the temp file
/// is fsync'd before the rename and the directory entry fsync'd after it,
/// so even a machine-level crash (power loss, not just SIGKILL) cannot
/// surface a torn file — or a valid-looking stale one — under the final
/// name.  Returns false after a diagnostic on `err`.
bool save_state_file_atomic(const SweepStateFile& state,
                            const std::string& path, std::ostream& err);

/// Loads and validates `path`.  Returns false after a diagnostic on `err`
/// for unreadable, corrupt, or truncated files, and for a file that is not
/// of `kind` when one is given.
bool load_state_file(const std::string& path, SweepStateFile& out,
                     std::ostream& err,
                     std::optional<SweepStateFile::Kind> kind = std::nullopt);

/// Writes the final aggregate CSV from fully-folded per-point state: raw
/// rows in grid order when replicate == 1, summary-statistics rows
/// otherwise.  Both the unsharded sweep and `merge` end in this one code
/// path — which is what makes shard+merge byte-identical to the unsharded
/// run.  `per_point` is parallel to the expanded grid; `header` is the
/// shared CSV header ("" means no point produced CSV, an error).
/// `skip_points`, when non-null, is parallel to the grid and suppresses the
/// marked points entirely — the degraded `--max-point-failures` path emits
/// the surviving grid this way.
int emit_sweep_aggregate(const SweepManifest& manifest,
                         const std::vector<std::vector<std::string>>& grid,
                         const std::vector<summary::ColumnSummary>& per_point,
                         const std::string& header, std::ostream& out,
                         std::ostream& err,
                         const std::vector<char>* skip_points = nullptr);

/// Loads the shard partials at `part_paths`, refuses mismatched or
/// incomplete shard sets, and writes the combined aggregate CSV to
/// `output_path` (stdout when unset).  Returns the exit code: 2 after a
/// diagnostic for unusable partials.
int merge_partials(const std::vector<std::string>& part_paths,
                   const std::optional<std::string>& output_path,
                   std::ostream& err);

/// Parses `tfmcc_sim merge` argv: `--output <path>` and the partial paths.
/// Returns false after a usage line (no partials) or a diagnostic.
bool parse_merge_cli(int argc, char** argv,
                     std::optional<std::string>& output_path,
                     std::vector<std::string>& part_paths, std::ostream& err);

/// CLI entry for `tfmcc_sim merge [--output <path>] <partial>...` (see
/// merge_partials).  Returns the process exit code.
int merge_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
