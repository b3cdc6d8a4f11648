// Unit tests for the fault-tolerant campaign supervisor (sim/campaign.hpp).
//
// The end-to-end tests re-exec THIS binary as the shard executable: a
// custom main() below dispatches `<self> sweep ...` to tfmcc::sweep_main,
// so run_campaign's fork/exec children run the probe scenario registered
// in this translation unit.  Faults are injected through probe parameters
// backed by one-shot marker files: a fault fires on the first run that
// reaches it and never again, so every crashed/stalled/killed shard
// converges after relaunch and the merged CSV can be compared
// byte-for-byte against an in-process unsharded reference sweep.

#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace tfmcc {
namespace {

// Returns true (and creates the marker) only for the first caller across
// every process that ever checks it — the fault-injection one-shot latch.
bool one_shot(const std::string& marker) {
  if (marker.empty() || std::ifstream{marker}.good()) return false;
  std::ofstream{marker} << "fired\n";
  return true;
}

// Scenario for campaign supervision tests.  Its CSV row is a pure
// function of x and the seed, so no fault parameter can perturb the
// merged aggregate — crashes and stalls must be byte-invisible.
TFMCC_SCENARIO(test_campaign_probe, "campaign fault-injection probe",
               tfmcc::param("x", 1, "integer factor", 0),
               tfmcc::param("crash_unless", "",
                            "SIGKILL this process once, creating this marker"),
               tfmcc::param("stall_unless", "",
                            "stall 60s once, creating this marker"),
               tfmcc::param("crash_once_dir", "",
                            "SIGKILL once per task, markers in this dir"),
               tfmcc::param("fail_if_x", -1, "exit nonzero when x matches")) {
  const int x = opts.param_or("x", 1);
  if (one_shot(opts.param_or("crash_unless", ""))) {
    std::raise(SIGKILL);
  }
  if (one_shot(opts.param_or("stall_unless", ""))) {
    // Far past any test's --stall-timeout: the supervisor must SIGKILL
    // this shard long before the sleep expires.
    std::this_thread::sleep_for(std::chrono::seconds(60));
  }
  const std::string crash_dir = opts.param_or("crash_once_dir", "");
  if (!crash_dir.empty()) {
    std::ostringstream m;
    m << crash_dir << "/task_x" << x << "_s" << opts.seed_or(0);
    if (one_shot(m.str())) std::raise(SIGKILL);
  }
  if (x == opts.param_or("fail_if_x", -1)) return 4;
  CsvWriter csv(opts.out(), {"x", "value"});
  csv.row(x, 10 * x + static_cast<long long>(opts.seed_or(0) % 7));
  return 0;
}

const Scenario& probe() {
  const Scenario* s =
      ScenarioRegistry::instance().find("test_campaign_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

// The unsharded in-process reference: what the campaign's merged CSV must
// equal byte-for-byte.  Never passes fault parameters.
std::string reference_sweep(const std::vector<std::string>& x_values) {
  SweepOptions sweep;
  sweep.axes = {{"x", x_values}};
  std::ostringstream out, err;
  EXPECT_EQ(run_sweep(probe(), sweep, out, err), 0) << err.str();
  return out.str();
}

int run_campaign_cli(std::vector<std::string> args, std::string* err_out) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  std::ostringstream err;
  const int rc =
      campaign_main(static_cast<int>(argv.size()), argv.data(), err);
  if (err_out != nullptr) *err_out = err.str();
  return rc;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool exists(const std::string& path) {
  return std::ifstream{path}.good();
}

TEST(CampaignBackoff, ScheduleIsExponentialAndCapped) {
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(0, 0.5, 30.0), 0.5);
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(1, 0.5, 30.0), 1.0);
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(2, 0.5, 30.0), 2.0);
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(6, 0.5, 30.0), 30.0);
  // Huge relaunch counts must saturate at the cap, not overflow.
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(1000, 0.5, 30.0), 30.0);
  EXPECT_DOUBLE_EQ(campaign_backoff_seconds(0, 2.0, 1.0), 1.0);
}

TEST(CampaignMain, RejectsShardManagedFlags) {
  for (const std::string flag :
       {"--shard", "--checkpoint", "--resume", "--max-point-failures"}) {
    std::string err;
    const int rc = run_campaign_cli(
        {"test_campaign_probe", "--sweep", "x=1,2", flag, "0/2"}, &err);
    EXPECT_EQ(rc, 2) << flag;
    EXPECT_NE(err.find("is managed per shard by the campaign supervisor"),
              std::string::npos)
        << flag << ": " << err;
  }
}

#if defined(__unix__) || defined(__APPLE__)

TEST(Campaign, SelfExecutablePathResolvesToARunnableBinary) {
  const std::string self = self_executable_path();
  ASSERT_FALSE(self.empty());
  EXPECT_EQ(access(self.c_str(), X_OK), 0) << self;
}

std::string fresh_dir(const char* tag) {
  std::string tmpl =
      ::testing::TempDir() + "tfmcc_campaign_" + tag + "_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(Campaign, OversizedGridIsRefusedBeforeItIsExpanded) {
  // Each 1000-value axis is legal on its own; their product is 10^9
  // points.  The supervisor must diagnose that from the axis sizes, not
  // try to build the grid.
  std::string err;
  const int rc = run_campaign_cli(
      {"test_campaign_probe", "--sweep", "x=1:1000:lin1000", "--sweep",
       "fail_if_x=1:1000:lin1000", "--sweep", "crash_unless=1:1000:lin1000"},
      &err);
  EXPECT_EQ(rc, 2) << err;
  EXPECT_NE(err.find("error: sweep grid exceeds 1000000 points"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("launched"), std::string::npos) << err;
}

TEST(Campaign, GridTimesReplicateIsCappedBeforeAnyShardLaunches) {
  // 10^6 points fit the grid cap; two replicates of each do not fit the run
  // cap.  One diagnostic up front, instead of every shard exiting 2.
  std::string err;
  const int rc = run_campaign_cli(
      {"test_campaign_probe", "--sweep", "x=1:1000:lin1000", "--sweep",
       "fail_if_x=1:1000:lin1000", "--replicate", "2"},
      &err);
  EXPECT_EQ(rc, 2) << err;
  EXPECT_NE(err.find("error: sweep grid times --replicate exceeds 1000000 "
                     "runs"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("launched"), std::string::npos) << err;
}

TEST(Campaign, RecoversCrashedAndStalledShardsToAByteIdenticalMerge) {
  const std::string dir = fresh_dir("recover");
  const std::string merged = dir + "/merged.csv";
  std::string err;
  const int rc = run_campaign_cli(
      {"test_campaign_probe", "--sweep", "x=1,2,3,4", "--shards", "2",
       "--dir", dir, "--output", merged, "--stall-timeout", "2",
       "--poll-interval", "0.05", "--backoff-base", "0.05", "--backoff-max",
       "0.2", "--max-retries", "6",
       "--set", "crash_unless=" + dir + "/crash.marker",
       "--set", "stall_unless=" + dir + "/stall.marker"},
      &err);
  EXPECT_EQ(rc, 0) << err;
  // One shard died on SIGKILL, one stalled until the straggler detector
  // killed it; both relaunched and the merge still matches the unsharded
  // in-process run exactly.
  EXPECT_NE(err.find("relaunching in"), std::string::npos) << err;
  EXPECT_NE(err.find("stalled (no checkpoint progress"), std::string::npos)
      << err;
  EXPECT_NE(err.find("all 2 shards complete; merging"), std::string::npos)
      << err;
  EXPECT_EQ(slurp(merged), reference_sweep({"1", "2", "3", "4"}));
}

TEST(Campaign, KillStormWithEveryTaskCrashingOnceStaysByteIdentical) {
  const std::string dir = fresh_dir("killstorm");
  const std::string merged = dir + "/merged.csv";
  std::string err;
  // crash_once_dir makes EVERY task SIGKILL its shard the first time it
  // runs: each shard owns three tasks, so each needs three relaunches and
  // all but the first resume from a checkpoint.  The axis lists x in
  // descending order so the cost-descending scheduler executes tasks in
  // fold (grid) order and every crash leaves a checkpointed prefix behind.
  const int rc = run_campaign_cli(
      {"test_campaign_probe", "--sweep", "x=6,5,4,3,2,1", "--shards", "2",
       "--dir", dir, "--output", merged, "--stall-timeout", "30",
       "--poll-interval", "0.05", "--backoff-base", "0.02", "--backoff-max",
       "0.1", "--max-retries", "8",
       "--set", "crash_once_dir=" + dir},
      &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(err.find("resuming from checkpoint"), std::string::npos) << err;
  EXPECT_EQ(slurp(merged), reference_sweep({"6", "5", "4", "3", "2", "1"}));
}

TEST(Campaign, RetryExhaustionNamesMissingPointsAndPreservesPartials) {
  const std::string dir = fresh_dir("exhaust");
  const std::string merged = dir + "/merged.csv";
  std::string err;
  // Grid points x=2 and x=4 belong to shard 1 (point index % shards);
  // fail_if_x=2 makes that shard fail deterministically on every attempt.
  const int rc = run_campaign_cli(
      {"test_campaign_probe", "--sweep", "x=1,2,3,4", "--shards", "2",
       "--dir", dir, "--output", merged, "--stall-timeout", "30",
       "--poll-interval", "0.05", "--backoff-base", "0.02", "--backoff-max",
       "0.05", "--max-retries", "1",
       "--set", "fail_if_x=2"},
      &err);
  EXPECT_EQ(rc, 2) << err;
  EXPECT_NE(err.find("retry cap (1) exhausted"), std::string::npos) << err;
  EXPECT_NE(err.find("failed permanently; missing grid points:"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("  x=2\n"), std::string::npos) << err;
  EXPECT_NE(err.find("  x=4\n"), std::string::npos) << err;
  // The healthy shard's partial survives for a later manual merge, and no
  // merged aggregate is written that could pass for a complete one.
  EXPECT_TRUE(exists(dir + "/shard-0.part"));
  EXPECT_FALSE(exists(merged));
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace tfmcc

// Shard dispatch: run_campaign execs this binary as `<self> sweep ...`.
int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view{argv[1]} == "sweep") {
    return tfmcc::sweep_main(argc - 2, argv + 2, std::cerr);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
