// Full-matrix scenario smoke harness: every scenario registered in the
// bench object library runs at a sharply reduced duration with small
// receiver/trial counts (applied only where the scenario declares the
// corresponding parameter), and must exit 0 while emitting a non-empty CSV
// trace.  One gtest per scenario is registered dynamically from the
// registry, and tests/CMakeLists.txt emits a matching `smoke`-labelled
// ctest entry per scenario so the matrix parallelises.
//
// Each scenario's captured stdout must also hash to the digest committed in
// tests/golden/smoke_digests.txt, which turns "every refactor keeps the
// outputs byte-identical" into a check.  The digests were recorded with
// libstdc++ (some draws still use implementation-defined std::
// distributions).  `test_scenario_smoke --write-digests <path>` rewrites the
// file from the current build; tools/regolden wraps it, and every use of it
// must be declared in CHANGES.md.
//
// The ScenarioHarness suite adds cross-cutting checks: the time-warp
// acceptance (a 20 s run of fig11 still fires every scripted join/leave)
// and determinism of parameterized runs at the whole-scenario level.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace tfmcc {
namespace {

/// Reduced-size overrides applied to every scenario that declares the key;
/// scenarios without the key keep their (already reduced-duration) shape.
constexpr std::pair<const char*, const char*> kSmokeOverrides[] = {
    {"n_receivers", "8"}, {"n_tcp", "2"},  {"n_tails", "4"},
    {"trials", "2"},      {"n_max", "64"}, {"p_points", "8"},
    {"ewma_steps", "10"}, {"churn_events", "64"}, {"n_sessions", "2"},
    {"max_receivers", "4"},
};

ScenarioOptions smoke_options(const Scenario& s) {
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(10);
  for (const auto& [key, value] : kSmokeOverrides) {
    if (s.find_param(key) != nullptr) opts.set_param(key, value);
  }
  return opts;
}

/// The smoke options as `tfmcc_sim` arguments, e.g.
/// "--duration 10 --set n_receivers=8".
std::string smoke_args(const ScenarioOptions& opts) {
  std::ostringstream os;
  os << "--duration " << opts.duration->to_seconds();
  for (const auto& [key, value] : opts.params()) {
    os << " --set " << key << '=' << value;
  }
  return os.str();
}

/// 64-bit FNV-1a: a dependency-free digest of a scenario's output.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One golden line: "<scenario> <16 hex digits> <tfmcc_sim args...>".
std::string digest_line(const std::string& name, const std::string& out,
                        const ScenarioOptions& opts) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a64(out));
  return name + ' ' + hex + ' ' + smoke_args(opts);
}

/// Committed golden lines keyed by scenario name ('#' lines are comments).
std::map<std::string, std::string> load_golden_digests() {
  std::map<std::string, std::string> lines;
  std::ifstream in{TFMCC_SMOKE_DIGESTS};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

/// Runs a scenario via the registry with stdout captured; returns
/// (exit code, captured stdout).  Diagnostics go to `err`.
std::pair<int, std::string> run_captured(std::string_view name,
                                         const ScenarioOptions& opts,
                                         std::ostream& err) {
  testing::internal::CaptureStdout();
  const int rc = ScenarioRegistry::instance().run(name, opts, err);
  return {rc, testing::internal::GetCapturedStdout()};
}

/// A CSV data row: a comma-bearing line that follows another comma-bearing
/// line (the header).  Scenario output interleaves '#', NOTE and CHECK
/// lines, which never contain the header/row pairing.
bool has_csv_data(const std::string& out) {
  std::istringstream is{out};
  std::string line;
  bool prev_csv = false;
  while (std::getline(is, line)) {
    const bool is_csv = line.find(',') != std::string::npos &&
                        line.rfind("NOTE:", 0) != 0 &&
                        line.rfind("CHECK", 0) != 0 && line.rfind("#", 0) != 0;
    if (is_csv && prev_csv) return true;
    prev_csv = is_csv;
  }
  return false;
}

/// `--write-digests <path>`: runs every scenario under its smoke options
/// and writes the golden digest file.
int write_digests(const char* path) {
  std::ofstream file{path};
  file << "# FNV-1a 64-bit digests of each scenario's stdout under the smoke\n"
          "# options of tests/integration/test_scenario_smoke.cpp (libstdc++).\n"
          "# <scenario> <digest> <tfmcc_sim args>.  Regenerate with\n"
          "# tools/regolden and declare every regeneration in CHANGES.md.\n";
  for (const auto& name : ScenarioRegistry::instance().names()) {
    const ScenarioOptions opts =
        smoke_options(*ScenarioRegistry::instance().find(name));
    std::ostringstream err;
    const auto [rc, out] = run_captured(name, opts, err);
    if (rc != 0) {
      std::fprintf(stderr, "error: %s failed: %s\n", name.c_str(),
                   err.str().c_str());
      return 1;
    }
    file << digest_line(name, out, opts) << '\n';
  }
  return file.good() ? 0 : 1;
}

class ScenarioSmokeCase : public testing::Test {
 public:
  explicit ScenarioSmokeCase(std::string name) : name_{std::move(name)} {}

  void TestBody() override {
    const Scenario* s = ScenarioRegistry::instance().find(name_);
    ASSERT_NE(s, nullptr);
    std::ostringstream err;
    const auto [rc, out] = run_captured(name_, smoke_options(*s), err);
    EXPECT_EQ(rc, 0) << "scenario failed: " << err.str();
    EXPECT_TRUE(has_csv_data(out))
        << "no CSV trace in scenario output:\n"
        << out.substr(0, 2000);
    const auto golden = load_golden_digests();
    const auto it = golden.find(name_);
    ASSERT_NE(it, golden.end())
        << "no golden digest for " << name_ << " in " << TFMCC_SMOKE_DIGESTS;
    EXPECT_EQ(digest_line(name_, out, smoke_options(*s)), it->second)
        << "scenario output changed; if intended, rerun tools/regolden and "
           "declare it in CHANGES.md";
  }

 private:
  std::string name_;
};

TEST(ScenarioHarness, RegistryIsPopulated) {
  // At least the paper's figures, ablations and comparison; the golden
  // digest file pins the exact set.
  EXPECT_GE(ScenarioRegistry::instance().size(), 24u);
}

TEST(ScenarioHarness, GoldenDigestsNameRegisteredScenarios) {
  // Every registered scenario has a digest and no digest is stale.
  std::vector<std::string> golden;
  for (const auto& [name, line] : load_golden_digests()) {
    golden.push_back(name);
  }
  EXPECT_EQ(golden, ScenarioRegistry::instance().names());
}

TEST(ScenarioHarness, Fig11WarpFiresAllScriptedEvents) {
  // Acceptance: `tfmcc_sim fig11_loss_responsiveness --duration 20` still
  // fires all scripted joins and leaves, time-warped into the horizon.
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(20);
  std::ostringstream err;
  const auto [rc, out] = run_captured("fig11_loss_responsiveness", opts, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.find("fired 6/6 scripted events"), std::string::npos)
      << "schedule note missing or incomplete:\n"
      << out.substr(0, 2000);
}

TEST(ScenarioHarness, ParameterizedRunsAreDeterministic) {
  // Same seed + same --set overrides => byte-identical scenario output.
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(5);
  opts.seed = 42;
  opts.set_param("n_tcp", "3");
  opts.set_param("n_receivers", "2");
  std::ostringstream err;
  const auto [rc_a, out_a] =
      run_captured("fig09_single_bottleneck", opts, err);
  const auto [rc_b, out_b] =
      run_captured("fig09_single_bottleneck", opts, err);
  ASSERT_EQ(rc_a, 0) << err.str();
  ASSERT_EQ(rc_b, 0) << err.str();
  EXPECT_EQ(out_a, out_b);

  ScenarioOptions other = opts;
  other.seed = 43;
  const auto [rc_c, out_c] =
      run_captured("fig09_single_bottleneck", other, err);
  ASSERT_EQ(rc_c, 0) << err.str();
  EXPECT_NE(out_a, out_c);
}

TEST(ScenarioHarness, SweepAggregateIsByteIdenticalAcrossJobs) {
  // Acceptance: a smoke-sized fig07 grid aggregates to byte-identical CSV
  // whether the points run serially or on four workers, with rows in grid
  // order (axes last-fastest) regardless of completion order.
  const Scenario* s = ScenarioRegistry::instance().find("fig07_scaling");
  ASSERT_NE(s, nullptr);
  SweepOptions sweep;
  std::ostringstream parse_err;
  SweepAxis n_axis, t_axis;
  ASSERT_TRUE(parse_sweep_axis("n_receivers=2:200:log3",
                               s->find_param("n_receivers"), n_axis,
                               parse_err))
      << parse_err.str();
  ASSERT_TRUE(parse_sweep_axis("trials=2,3", s->find_param("trials"), t_axis,
                               parse_err))
      << parse_err.str();
  sweep.axes = {n_axis, t_axis};
  sweep.base.set_param("n_max", "1000");

  auto run_with_jobs = [&](int jobs) {
    sweep.jobs = jobs;
    std::ostringstream out, err;
    EXPECT_EQ(run_sweep(*s, sweep, out, err), 0) << err.str();
    return out.str();
  };
  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(4);
  EXPECT_EQ(serial, parallel);

  // 3 receiver counts x 2 trial counts, one CSV row per point, one header.
  std::istringstream is{serial};
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u) << serial;
  EXPECT_EQ(lines[0].rfind("n_receivers,trials,", 0), 0u) << lines[0];
  // Grid order: the last axis (trials) varies fastest.
  EXPECT_EQ(lines[1].rfind("2,2,", 0), 0u) << serial;
  EXPECT_EQ(lines[2].rfind("2,3,", 0), 0u) << serial;
  EXPECT_EQ(lines[3].rfind("20,2,", 0), 0u) << serial;
  EXPECT_EQ(lines[6].rfind("200,3,", 0), 0u) << serial;
}

TEST(ScenarioHarness, ReplicatedSweepAggregateIsDeterministic) {
  // Acceptance: a replicated fig07 aggregate (one mean/cov row per grid
  // point plus n_rep) is byte-identical across --jobs 1 vs --jobs 4 and
  // across repeated invocations.
  const Scenario* s = ScenarioRegistry::instance().find("fig07_scaling");
  ASSERT_NE(s, nullptr);
  SweepOptions sweep;
  std::ostringstream parse_err;
  SweepAxis n_axis;
  ASSERT_TRUE(parse_sweep_axis("n_receivers=2:200:log3",
                               s->find_param("n_receivers"), n_axis,
                               parse_err))
      << parse_err.str();
  sweep.axes = {n_axis};
  sweep.base.set_param("trials", "2");
  sweep.base.set_param("n_max", "1000");
  sweep.replicate = 5;

  auto run_with_jobs = [&](int jobs) {
    sweep.jobs = jobs;
    std::ostringstream out, err;
    EXPECT_EQ(run_sweep(*s, sweep, out, err), 0) << err.str();
    return out.str();
  };
  const std::string serial = run_with_jobs(1);
  EXPECT_EQ(serial, run_with_jobs(4));
  EXPECT_EQ(serial, run_with_jobs(4));  // repeated invocation

  // One header plus one aggregate row per receiver count, each carrying
  // the replicate count in the trailing n_rep column.
  std::istringstream is{serial};
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << serial;
  EXPECT_EQ(lines[0].rfind("n_receivers,n_mean,n_cov,", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("constant_kbps_mean,constant_kbps_cov"),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[0].substr(lines[0].size() - 6), ",n_rep") << lines[0];
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].substr(lines[i].size() - 2), ",5") << lines[i];
  }
  // Monte-Carlo columns really vary across the derived seeds: the CoV of
  // constant_kbps (column 5) is nonzero at every point.
  const auto cells = summary::split_csv(lines[1]);
  ASSERT_GT(cells.size(), 4u);
  EXPECT_GT(std::stod(cells[4]), 0.0) << lines[1];
}

TEST(ScenarioHarness, UnknownOverrideKeyIsRejected) {
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(1);
  opts.set_param("no_such_knob", "1");
  std::ostringstream err;
  const auto [rc, out] = run_captured("fig09_single_bottleneck", opts, err);
  (void)out;
  EXPECT_EQ(rc, -1);
  EXPECT_NE(err.str().find("unknown parameter 'no_such_knob'"),
            std::string::npos);
}

}  // namespace
}  // namespace tfmcc

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc == 3 && std::strcmp(argv[1], "--write-digests") == 0) {
    return tfmcc::write_digests(argv[2]);
  }
  for (const auto& name : tfmcc::ScenarioRegistry::instance().names()) {
    testing::RegisterTest(
        "ScenarioSmoke", name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
        [name]() -> testing::Test* {
          return new tfmcc::ScenarioSmokeCase(name);
        });
  }
  const int rc = RUN_ALL_TESTS();
  if (rc == 0 &&
      testing::UnitTest::GetInstance()->test_to_run_count() == 0) {
    // A filter that matches nothing (e.g. a renamed scenario) must not
    // silently pass its ctest entry.
    std::fprintf(stderr, "error: no test matched the filter\n");
    return 1;
  }
  return rc;
}
