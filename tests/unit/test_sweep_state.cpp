// Unit tests for the sweep scale-out plumbing (sim/sweep_state.hpp):
// manifest round trip and mismatch diagnostics, checkpoint/partial file
// round trip with the folded-bitmap prefix invariant, checkpoint/resume
// edge cases (corrupt and truncated files, grid mismatch, checkpoints
// covering only the first task and all-but-the-last task), shard ownership
// and out-of-range indices, library-level shard+merge byte-identity
// against the unsharded aggregate, and a byte-mutation fuzz of the three
// on-disk parsers (state files, manifests, checkpoint progress headers).

#include "sim/sweep_state.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "byte_mutator.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

// Deterministic probe: one CSV row that is a pure function of x, so
// checkpoint accumulator states can be hand-built and compared exactly.
TFMCC_SCENARIO(test_state_probe, "sweep state probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  const int x = opts.param_or("x", 1);
  auto& os = opts.out();
  os << "# state probe\n";
  CsvWriter csv(os, {"x", "sample"});
  csv.row(x, 2 * x);
  os << "NOTE: done\n";
  return 0;
}

const Scenario& probe() {
  const Scenario* s = ScenarioRegistry::instance().find("test_state_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

SweepOptions three_point_sweep() {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3"}}};
  return sweep;
}

std::string sweep_output(const SweepOptions& sweep, int expected_rc = 0,
                         std::string* err_out = nullptr) {
  std::ostringstream out, err;
  const int rc = run_sweep(probe(), sweep, out, err);
  EXPECT_EQ(rc, expected_rc) << err.str();
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tfmcc_sweep_state_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(os.is_open()) << path;
  os << content;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(SweepManifest, SaveLoadRoundTripPreservesEveryField) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 4;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMax};
  sweep.base.seed = 77;
  sweep.base.set_param("x", "9");
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_EQ(m.n_points(), 3u);
  EXPECT_EQ(m.n_tasks(), 12u);

  std::ostringstream os;
  m.save(os);
  std::istringstream is{os.str()};
  SweepManifest back;
  std::string err;
  ASSERT_TRUE(SweepManifest::load(is, back, err)) << err;
  std::ostringstream diag;
  EXPECT_TRUE(m.matches(back, /*ignore_shard_index=*/false, "copy", diag))
      << diag.str();
  EXPECT_EQ(back.scenario, "test_state_probe");
  EXPECT_EQ(back.seed, std::optional<std::uint64_t>{77});
  EXPECT_EQ(back.shard_index, 1);
  EXPECT_EQ(back.params,
            (std::vector<std::pair<std::string, std::string>>{{"x", "9"}}));
}

TEST(SweepManifest, MatchesNamesTheDifferingField) {
  const SweepManifest base = SweepManifest::from(probe(), three_point_sweep());
  auto expect_mismatch = [&](SweepManifest other, std::string_view token) {
    std::ostringstream diag;
    EXPECT_FALSE(base.matches(other, false, "checkpoint", diag));
    EXPECT_NE(diag.str().find(token), std::string::npos) << diag.str();
  };
  SweepManifest rep = base;
  rep.replicate = 5;
  expect_mismatch(rep, "--replicate");
  SweepManifest axis = base;
  axis.axes[0].values.pop_back();
  expect_mismatch(axis, "sweep grid");
  SweepManifest seed = base;
  seed.seed = 3;
  expect_mismatch(seed, "--seed");
  SweepManifest shard = base;
  shard.shard_index = 1;
  shard.shard_count = 2;
  expect_mismatch(shard, "shard count");
}

TEST(SweepManifest, LoadRejectsTruncation) {
  std::ostringstream os;
  SweepManifest::from(probe(), three_point_sweep()).save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    SweepManifest out;
    std::string err;
    EXPECT_FALSE(SweepManifest::load(is, out, err)) << "prefix " << len;
  }
}

TEST(ShardOwnership, RoundRobinByPointIndex) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_FALSE(shard_owns_point(m, 0));
  EXPECT_TRUE(shard_owns_point(m, 1));
  EXPECT_FALSE(shard_owns_point(m, 2));
}

/// A checkpoint as run_sweep would write it after folding the first
/// `folded_tasks` tasks of the (unsharded, replicate-1) three-point sweep.
SweepStateFile checkpoint_after(std::size_t folded_tasks) {
  SweepStateFile ck;
  ck.kind = SweepStateFile::Kind::kCheckpoint;
  ck.manifest = SweepManifest::from(probe(), three_point_sweep());
  ck.header = "x,sample";
  ck.folded.assign(3, 0);
  std::ostringstream err;
  for (std::size_t t = 0; t < folded_tasks; ++t) {
    ck.folded[t] = 1;
    summary::ColumnSummary acc{{"x", "sample"}};
    const std::string x = std::to_string(t + 1);
    acc.add_row_unchecked({x, std::to_string(2 * (t + 1))});
    ck.points.emplace_back(t, std::move(acc));
  }
  if (folded_tasks == 0) ck.header.clear();
  return ck;
}

TEST(SweepStateFile, SaveLoadRoundTripIsExact) {
  const SweepStateFile ck = checkpoint_after(2);
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  ASSERT_TRUE(SweepStateFile::load(is, back, err)) << err;
  std::ostringstream os2;
  back.save(os2);
  EXPECT_EQ(os2.str(), os.str());
  EXPECT_EQ(back.kind, SweepStateFile::Kind::kCheckpoint);
  EXPECT_EQ(back.folded, (std::vector<char>{1, 1, 0}));
  ASSERT_EQ(back.points.size(), 2u);
  EXPECT_EQ(back.points[1].first, 1u);
}

TEST(SweepStateFile, LoadEnforcesTheFoldedPrefixInvariant) {
  SweepStateFile ck = checkpoint_after(1);
  ck.folded = {0, 0, 1};  // a fold after a gap cannot happen
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("prefix"), std::string::npos) << err;
}

TEST(SweepStateFile, LoadRejectsFoldsOnUnownedTasks) {
  SweepStateFile ck = checkpoint_after(1);
  ck.manifest.shard_index = 1;
  ck.manifest.shard_count = 2;
  // Task 0 belongs to shard 0; shard 1 claiming it is corruption.
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("does not own"), std::string::npos) << err;
}

TEST(SweepStateFile, LoadDiagnosesTruncationAtEveryPrefix) {
  // Every proper prefix except the one missing only the trailing newline
  // after the "end" trailer (token parsing does not need it) must fail.
  std::ostringstream os;
  checkpoint_after(2).save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    SweepStateFile back;
    std::string err;
    EXPECT_FALSE(SweepStateFile::load(is, back, err)) << "prefix " << len;
    EXPECT_FALSE(err.empty());
  }
}

TEST(SweepStateFile, AtomicSaveThenLoadBack) {
  const std::string path = temp_path("atomic.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(2), path, err))
      << err.str();
  SweepStateFile back;
  ASSERT_TRUE(load_state_file(path, back, err)) << err.str();
  EXPECT_EQ(back.points.size(), 2u);
  std::remove(path.c_str());
}

TEST(SweepStateFile, LoadMissingFileIsDiagnosed) {
  SweepStateFile back;
  std::ostringstream err;
  EXPECT_FALSE(load_state_file(temp_path("nonexistent.bin"), back, err));
  EXPECT_NE(err.str().find("cannot open"), std::string::npos) << err.str();
}

// --- checkpoint progress header (campaign liveness poll) ------------------

TEST(CheckpointProgress, HeartbeatRoundTripsThroughSaveAndLoad) {
  SweepStateFile ck = checkpoint_after(2);
  ck.heartbeat = 41;
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  ASSERT_TRUE(SweepStateFile::load(is, back, err)) << err;
  EXPECT_EQ(back.heartbeat, 41u);
  // The header is the literal second line, cheap to read without touching
  // the accumulators: heartbeat, folded count, owned task count.
  std::istringstream lines{os.str()};
  std::string magic_line, progress_line;
  ASSERT_TRUE(std::getline(lines, magic_line));
  ASSERT_TRUE(std::getline(lines, progress_line));
  EXPECT_EQ(progress_line, "progress 41 2 3");
}

TEST(CheckpointProgress, ReadProgressPollsWithoutLoadingState) {
  SweepStateFile ck = checkpoint_after(2);
  ck.heartbeat = 7;
  const std::string path = temp_path("progress.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(ck, path, werr)) << werr.str();
  CheckpointProgress p;
  std::string err;
  ASSERT_TRUE(read_checkpoint_progress(path, p, err)) << err;
  EXPECT_EQ(p.heartbeat, 7u);
  EXPECT_EQ(p.folded_tasks, 2u);
  EXPECT_EQ(p.owned_tasks, 3u);
  std::remove(path.c_str());
}

TEST(CheckpointProgress, ReadProgressRefusesMissingGarbageAndPartials) {
  CheckpointProgress p;
  std::string err;
  EXPECT_FALSE(read_checkpoint_progress(temp_path("no_ckpt.bin"), p, err));

  const std::string garbage = temp_path("garbage_ckpt.bin");
  write_file(garbage, "not a checkpoint at all\n");
  EXPECT_FALSE(read_checkpoint_progress(garbage, p, err));
  EXPECT_NE(err.find("not a sweep checkpoint"), std::string::npos) << err;

  const std::string truncated = temp_path("truncated_ckpt.bin");
  write_file(truncated, "TFMCC-SWEEP-CKPT 2\nprogress 9");
  EXPECT_FALSE(read_checkpoint_progress(truncated, p, err));

  // A shard partial has no progress header; polling one must fail loudly
  // rather than invent liveness.
  SweepStateFile part = checkpoint_after(0);
  part.kind = SweepStateFile::Kind::kPartial;
  part.folded.clear();
  const std::string ppath = temp_path("part_as_progress.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(part, ppath, werr));
  EXPECT_FALSE(read_checkpoint_progress(ppath, p, err));

  std::remove(garbage.c_str());
  std::remove(truncated.c_str());
  std::remove(ppath.c_str());
}

TEST(CheckpointProgress, LoadRejectsAHeaderDisagreeingWithTheBitmap) {
  SweepStateFile ck = checkpoint_after(2);
  std::ostringstream os;
  ck.save(os);
  // Tamper: claim 3 folded tasks while the bitmap carries 2.
  std::string text = os.str();
  const std::string good = "progress 0 2 3";
  const auto at = text.find(good);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, good.size(), "progress 0 3 3");
  std::istringstream is{text};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("disagrees"), std::string::npos) << err;
}

// --- checkpoint/resume through run_sweep ---------------------------------

TEST(Resume, CheckpointCoveringOnlyTaskZeroYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("task0.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(1), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointCoveringAllButTheLastTaskYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("all_but_last.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(2), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, FullyFoldedCheckpointRunsNothingAndReEmits) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("complete.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(3), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, WritingACheckpointThenResumingItIsIdentical) {
  const std::string path = temp_path("own.bin");
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 3;
  sweep.checkpoint_path = path;
  sweep.checkpoint_every = 1;
  const std::string full = sweep_output(sweep);
  SweepOptions resumed = three_point_sweep();
  resumed.replicate = 3;
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, RefusesAGridMismatch) {
  const std::string path = temp_path("mismatch.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(1), path, werr));
  SweepOptions resumed;
  resumed.axes = {{"x", {"1", "2"}}};
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesACorruptCheckpoint) {
  const std::string path = temp_path("corrupt.bin");
  write_file(path,
             "TFMCC-SWEEP-CKPT 2\nprogress 1 1 3\nmanifest 2\n"
             "scenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("cannot load"), std::string::npos) << err;
  std::remove(path.c_str());
}

/// Peak resident set of this process, in KiB (Linux units).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Resume, RefusesAHugeLengthPrefixWithoutAllocatingIt) {
  // 1 GiB is the largest length read_str accepts; the file holds 3 bytes.
  const std::string path = temp_path("huge_length.bin");
  write_file(path,
             "TFMCC-SWEEP-CKPT 2\nprogress 1 1 3\nmanifest 2\n"
             "scenario 1073741824:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  const long before = peak_rss_kib();
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("cannot load"), std::string::npos) << err;
  EXPECT_LT(peak_rss_kib() - before, 256L * 1024) << "peak RSS grew";
  std::remove(path.c_str());
}

TEST(Resume, RefusesAnOlderFormatVersion) {
  const std::string path = temp_path("oldver.bin");
  write_file(path, "TFMCC-SWEEP-CKPT 1\nmanifest 1\nscenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("unsupported sweep state version"), std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesAShardPartialFile) {
  SweepStateFile part = checkpoint_after(0);
  part.kind = SweepStateFile::Kind::kPartial;
  part.folded.clear();
  const std::string path = temp_path("partial_as_ckpt.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(part, path, werr));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("shard partial"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- sharding and merge ---------------------------------------------------

TEST(Shard, IndexOutOfRangeIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 5;
  sweep.shard_count = 3;
  std::string err;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  sweep.shard_index = -1;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

int run_merge(const std::vector<std::string>& args, std::string* err_out) {
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (auto& a : owned) argv.push_back(a.data());
  std::ostringstream err;
  const int rc =
      merge_main(static_cast<int>(argv.size()), argv.data(), err);
  if (err_out != nullptr) *err_out = err.str();
  return rc;
}

/// Runs the probe sweep sharded n ways, writes each partial to a temp
/// file, merges with the CLI entry point, and returns the merged CSV.
std::string shard_and_merge(SweepOptions base, int n_shards,
                            const std::string& tag) {
  std::vector<std::string> args;
  const std::string out_path = temp_path(tag + "_merged.csv");
  args.push_back("--output");
  args.push_back(out_path);
  std::vector<std::string> part_paths;
  for (int s = 0; s < n_shards; ++s) {
    SweepOptions sharded = base;
    sharded.shard_index = s;
    sharded.shard_count = n_shards;
    const std::string part = sweep_output(sharded);
    const std::string path =
        temp_path(tag + "_part" + std::to_string(s) + ".bin");
    write_file(path, part);
    part_paths.push_back(path);
    args.push_back(path);
  }
  std::string err;
  EXPECT_EQ(run_merge(args, &err), 0) << err;
  const std::string merged = read_file(out_path);
  std::remove(out_path.c_str());
  for (const auto& p : part_paths) std::remove(p.c_str());
  return merged;
}

TEST(ShardMerge, RawSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4", "5"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 3, "raw"), full);
}

TEST(ShardMerge, ReplicatedSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4"}}};
  sweep.replicate = 3;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMin,
                 summary::Stat::kMax};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 2, "rep"), full);
}

TEST(ShardMerge, MoreShardsThanPointsLeavesSomeShardsEmpty) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 4, "sparse"), full);
}

TEST(MergeCli, NoArgumentsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run_merge({}, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(MergeCli, IncompleteShardSetIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("lonely_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path}, &err), 2);
  EXPECT_NE(err.find("sharded 2 ways but 1"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(MergeCli, DuplicateShardIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("dup_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path, path}, &err), 2);
  EXPECT_NE(err.find("more than once"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- on-disk parser fuzz -----------------------------------------------------

/// Feeds `iterations` mutated copies of `text` (one to four byte edits
/// each) to `load`.  A mutant must load or fail with a reason.
template <typename Load>
void fuzz_loader(const std::string& text, std::uint64_t seed, int iterations,
                 Load load) {
  test::ByteMutator mutator{seed};
  int loaded = 0;
  for (int i = 0; i < iterations; ++i) {
    std::string mutant = text;
    const std::size_t rounds = 1 + mutator.below(4);
    for (std::size_t r = 0; r < rounds; ++r) mutator.mutate(mutant);
    std::string err;
    if (load(mutant, err)) {
      ++loaded;
    } else {
      ASSERT_FALSE(err.empty()) << "iteration " << i << ":\n" << mutant;
    }
  }
  // Some edits land where they change nothing the loader checks.
  EXPECT_GT(loaded, 0);
}

bool load_state_text(const std::string& text, std::string& err) {
  std::istringstream is{text};
  SweepStateFile out;
  return SweepStateFile::load(is, out, err);
}

TEST(StateFileFuzz, MutatedCheckpointsLoadOrExplain) {
  std::ostringstream os;
  checkpoint_after(2).save(os);
  fuzz_loader(os.str(), 11, 20000, load_state_text);
}

TEST(StateFileFuzz, MutatedPartialsLoadOrExplain) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 3;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMax};
  sweep.shard_count = 2;
  fuzz_loader(sweep_output(sweep), 12, 20000, load_state_text);
}

TEST(StateFileFuzz, MutatedManifestsLoadOrExplain) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 4;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kCov};
  sweep.base.seed = 77;
  sweep.base.set_param("y", "9");
  std::ostringstream os;
  SweepManifest::from(probe(), sweep).save(os);
  fuzz_loader(os.str(), 13, 20000,
              [](const std::string& text, std::string& err) {
                std::istringstream is{text};
                SweepManifest out;
                return SweepManifest::load(is, out, err);
              });
}

TEST(StateFileFuzz, MutatedProgressHeadersLoadOrExplain) {
  std::ostringstream os;
  checkpoint_after(2).save(os);
  const std::string path = temp_path("fuzz_progress.bin");
  fuzz_loader(os.str(), 14, 500,
              [&path](const std::string& text, std::string& err) {
                write_file(path, text);
                CheckpointProgress out;
                return read_checkpoint_progress(path, out, err);
              });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tfmcc
