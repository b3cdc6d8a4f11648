// Command-line contract of `tfmcc_sim` and its `sweep`, `campaign` and
// `merge` commands: every flag's missing, malformed and out-of-range values
// exit 2 with a diagnostic naming the flag.  Every case here fails while
// parsing or validating, so no scenario runs and no shard is launched.
//
// The flag-table fuzz at the end feeds mutated argv vectors to each
// command's table parser only, never to a `*_main`, so it runs nothing
// either: every input must come back parsed, or refused with a diagnostic.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_state.hpp"

namespace tfmcc {
namespace {

TFMCC_SCENARIO(test_cli_probe, "command-line contract probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  opts.out() << "x\n" << opts.param_or("x", 1) << '\n';
  return 0;
}

using Main = int (*)(int, char**, std::ostream&);

int run_main(Main main, std::vector<std::string> args, std::string& err) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  std::ostringstream diag;
  const int rc = main(static_cast<int>(argv.size()), argv.data(), diag);
  err = diag.str();
  return rc;
}

// The single-run command line, with the exit code tfmcc_sim gives it.
int single_run(int argc, char** argv, std::ostream& err) {
  ScenarioOptions opts;
  return parse_scenario_options(argc, argv, opts, err) ? 0 : 2;
}

struct CliCase {
  std::vector<std::string> args;
  std::string diagnostic;  // must appear in the stderr text
};

void expect_rejected(Main main, const std::vector<CliCase>& cases) {
  for (const auto& c : cases) {
    std::string err;
    std::string shown;
    for (const auto& a : c.args) shown += " '" + a + "'";
    EXPECT_EQ(run_main(main, c.args, err), 2) << shown << "\n" << err;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos)
        << shown << "\nwanted: " << c.diagnostic << "\ngot: " << err;
  }
}

// One case per bad value of `flag`.
void add_bad_values(std::vector<CliCase>& cases,
                    const std::vector<std::string>& head,
                    const std::string& flag,
                    const std::vector<std::string>& bad_values,
                    const std::string& diagnostic) {
  for (const auto& v : bad_values) {
    std::vector<std::string> args = head;
    args.push_back(flag);
    args.push_back(v);
    cases.push_back({args, diagnostic});
  }
}

// `flag` as the last argument, without its value.
void add_missing_value(std::vector<CliCase>& cases,
                       std::vector<std::string> head, const std::string& flag,
                       const std::string& diagnostic) {
  head.push_back(flag);
  cases.push_back({head, diagnostic});
}

// The missing-value case plus one case per bad value, all with the same
// diagnostic.
void add_value_cases(std::vector<CliCase>& cases,
                     const std::vector<std::string>& head,
                     const std::string& flag,
                     const std::vector<std::string>& bad_values,
                     const std::string& diagnostic) {
  add_missing_value(cases, head, flag, diagnostic);
  add_bad_values(cases, head, flag, bad_values, diagnostic);
}

// Single-run flags, which `sweep` and `campaign` accept too.
void add_single_run_cases(std::vector<CliCase>& cases,
                          const std::vector<std::string>& head) {
  // Numbers are decimal: hexadecimal, leading whitespace, inf and nan are
  // refused even where strtod would read them.
  add_value_cases(cases, head, "--duration",
                  {"abc", "0", "-3", "inf", "nan", "0x10", " 16", "0X1p4"},
                  "error: --duration expects a positive number of seconds");
  add_value_cases(cases, head, "--seed",
                  {"abc", "-1", "3.5", "0x10", " 16", "0X1p4", "inf", "nan"},
                  "error: --seed expects a non-negative integer");
  add_value_cases(cases, head, "--set", {"no_equals", "=value"},
                  "error: --set expects key=value");
  std::vector<std::string> unknown = head;
  unknown.push_back("--frobnicate");
  cases.push_back({unknown, "error: unknown option '--frobnicate'"});
}

TEST(CliSingleRun, RejectsEveryMalformedFlag) {
  std::vector<CliCase> cases;
  add_single_run_cases(cases, {});
  add_value_cases(cases, {}, "--output", {""},
                  "error: --output expects a file path");
  cases.push_back({{"stray"}, "error: unknown option 'stray'"});
  expect_rejected(&single_run, cases);
}

TEST(CliNumbers, DecimalSpellingsOnly) {
  double d = 0;
  for (const char* ok : {"0", "2e6", "1000.0", "-0.5", ".5", "5.", "+3",
                         "1E-3", "1e400"}) {
    EXPECT_TRUE(parse_f64(ok, d)) << ok;
  }
  ASSERT_TRUE(parse_f64("-0.5", d));
  EXPECT_EQ(d, -0.5);
  for (const char* bad : {"", "0x10", "0X1p4", " 16", "16 ", "\t1", "inf",
                          "-inf", "nan", "infinity", ".", "+", "e5", "1e",
                          "1e+", "1.2.3", "1,5"}) {
    EXPECT_FALSE(parse_f64(bad, d)) << "'" << bad << "'";
  }
  std::int64_t i = 0;
  ASSERT_TRUE(parse_i64("2e6", i));
  EXPECT_EQ(i, 2'000'000);
  ASSERT_TRUE(parse_i64("1000.0", i));
  EXPECT_EQ(i, 1000);
  for (const char* bad : {"0x10", " 16", "0X1p4", "inf", "nan", "1e400"}) {
    EXPECT_FALSE(parse_i64(bad, i)) << "'" << bad << "'";
  }
}

TEST(CliSweep, UsageAndUnknownScenario) {
  expect_rejected(&sweep_main,
                  {{{}, "usage: tfmcc_sim sweep <scenario>"},
                   {{"--jobs", "2"}, "usage: tfmcc_sim sweep <scenario>"},
                   {{"no_such_scenario"},
                    "error: unknown scenario 'no_such_scenario'"}});
}

TEST(CliSweep, RejectsEveryMalformedFlag) {
  const std::vector<std::string> head = {"test_cli_probe"};
  std::vector<CliCase> cases;
  add_value_cases(cases, head, "--sweep", {},
                  "error: --sweep expects key=v1,v2,... or "
                  "key=lo:hi:linN|logN");
  add_bad_values(cases, head, "--sweep", {"x", "=1,2", "x="},
                 "error: --sweep expects key=v1,v2,... or "
                 "key=lo:hi:linN|logN, got '");
  add_bad_values(cases, head, "--sweep", {"x=1,,2"},
                 "error: empty value in --sweep list 'x=1,,2'");
  add_bad_values(cases, head, "--sweep", {"x=1:2:lin1", "x=1:9:log2000000"},
                 "needs between 2 and 1e6 points");
  add_bad_values(cases, head, "--sweep",
                 {"x=1:2:cubic3", "x=a:2:lin3", "x=0x1:9:lin3", "x=1: 9:lin3",
                  "x=1:inf:lin3", "x=nan:9:lin3", "x=1:1e400:lin3"},
                 "error: malformed --sweep range");
  add_bad_values(cases, head, "--sweep", {"x=0:9:log3"},
                 "requires positive bounds");
  add_value_cases(cases, head, "--jobs",
                  {"abc", "0", "1025", "2x", "0x4", " 4", "0X1p2", "inf",
                   "nan"},
                  "error: --jobs expects an integer between 1 and 1024");
  add_value_cases(cases, head, "--replicate", {"abc", "0", "100001"},
                  "error: --replicate expects an integer between 1 and ");
  add_value_cases(cases, head, "--stats", {},
                  "error: --stats expects a comma-separated subset of "
                  "mean,stddev,cov,min,max");
  add_bad_values(cases, head, "--stats", {"median"},
                 "error: unknown statistic 'median' in --stats list");
  add_bad_values(cases, head, "--stats", {"mean,mean"},
                 "error: duplicate statistic 'mean' in --stats list");
  add_value_cases(cases, head, "--shard",
                  {"2/2", "a/3", "1/0", "-1/2", "1", "1/", "0/10001"},
                  "error: --shard expects i/n with 0 <= i < n <= 10000 "
                  "(e.g. --shard 0/3)");
  add_value_cases(cases, head, "--checkpoint", {},
                  "error: --checkpoint expects a ");
  add_value_cases(cases, head, "--checkpoint-every", {"abc", "0", "1000001"},
                  "error: --checkpoint-every expects an integer between 1 "
                  "and ");
  add_value_cases(cases, head, "--resume", {},
                  "error: --resume expects a ");
  add_value_cases(cases, head, "--max-point-failures",
                  {"abc", "-1", "1000001"},
                  "error: --max-point-failures expects an integer between 0 "
                  "and ");
  add_value_cases(cases, head, "--output", {},
                  "error: --output expects a file path");
  add_single_run_cases(cases, head);
  cases.push_back({{"test_cli_probe", "--sweep", "x=1,2", "--stats", "mean"},
                   "error: --stats requires --replicate greater than 1"});
  cases.push_back({{"test_cli_probe", "--sweep", "x=1,2", "--replicate", "1",
                    "--stats", "mean"},
                   "error: --stats requires --replicate greater than 1"});
  cases.push_back({{"test_cli_probe", "--progress", "stray"},
                   "error: unknown option 'stray'"});
  expect_rejected(&sweep_main, cases);
}

TEST(CliSweep, RejectsInvalidGridsBeforeRunning) {
  expect_rejected(
      &sweep_main,
      {{{"test_cli_probe"}, "needs at least one --sweep key=... axis"},
       {{"test_cli_probe", "--sweep", "x=1,2", "--sweep", "x=3"},
        "error: duplicate --sweep axis for key 'x'"},
       {{"test_cli_probe", "--sweep", "x=1,-2"}, "below the minimum"},
       // Sweep values and --set values coerce through the same parser.
       {{"test_cli_probe", "--sweep", "x=1,0x10"},
        "error: malformed value '0x10' for parameter 'x'"},
       {{"test_cli_probe", "--sweep", "x=1, 2"},
        "error: malformed value ' 2' for parameter 'x'"},
       {{"test_cli_probe", "--sweep", "nope=1,2"},
        "error: unknown parameter 'nope'"}});
}

TEST(CliCampaign, UsageAndUnknownScenario) {
  expect_rejected(&campaign_main,
                  {{{}, "usage: tfmcc_sim campaign <scenario>"},
                   {{"no_such_scenario"},
                    "error: unknown scenario 'no_such_scenario'"}});
}

TEST(CliCampaign, RejectsEveryMalformedFlag) {
  const std::vector<std::string> head = {"test_cli_probe"};
  std::vector<CliCase> cases;
  add_missing_value(cases, head, "--shards", "error: --shards expects ");
  add_bad_values(cases, head, "--shards", {"abc", "1", "513"},
                 "error: --shards expects an integer between 2 and 512");
  add_missing_value(cases, head, "--jobs", "error: --jobs expects ");
  add_bad_values(cases, head, "--jobs", {"abc", "0", "1025"},
                 "error: --jobs expects an integer between 1 and 1024");
  add_missing_value(cases, head, "--max-retries",
                    "error: --max-retries expects ");
  add_bad_values(cases, head, "--max-retries", {"abc", "-1", "1001"},
                 "error: --max-retries expects an integer between 0 and "
                 "1000");
  add_missing_value(cases, head, "--checkpoint-every",
                    "error: --checkpoint-every expects ");
  add_bad_values(cases, head, "--checkpoint-every", {"abc", "0", "1000001"},
                 "error: --checkpoint-every expects an integer between 1 "
                 "and 1000000");
  add_missing_value(cases, head, "--replicate",
                    "error: --replicate expects ");
  add_bad_values(cases, head, "--replicate", {"abc", "0", "100001"},
                 "error: --replicate expects an integer between 1 and "
                 "100000");
  for (const char* flag :
       {"--stall-timeout", "--backoff-base", "--backoff-max",
        "--poll-interval"}) {
    add_missing_value(cases, head, flag,
                      std::string("error: ") + flag + " expects ");
    add_bad_values(cases, head, flag, {"abc", "0", "-1", "1e7", "nan"},
                    std::string("error: ") + flag +
                        " expects seconds in (0, 1e6]");
  }
  for (const char* flag : {"--dir", "--exec", "--output"}) {
    add_value_cases(cases, head, flag, {},
                    std::string("error: ") + flag + " expects a");
  }
  add_value_cases(cases, head, "--sweep", {}, "error: --sweep expects ");
  add_bad_values(cases, head, "--sweep", {"x"},
                 "error: --sweep expects key=v1,v2,... or "
                 "key=lo:hi:linN|logN, got 'x'");
  add_value_cases(cases, head, "--stats", {}, "error: --stats expects a");
  add_bad_values(cases, head, "--stats", {"median"},
                 "error: unknown statistic 'median' in --stats list");
  for (const char* flag : {"--shard", "--checkpoint", "--resume",
                           "--progress", "--max-point-failures"}) {
    cases.push_back({{"test_cli_probe", "--sweep", "x=1,2", flag, "0/2"},
                     std::string("error: ") + flag +
                         " is managed per shard by the campaign supervisor"});
  }
  add_single_run_cases(cases, head);
  cases.push_back({{"test_cli_probe", "--sweep", "x=1,2", "--stats", "mean"},
                   "error: --stats requires --replicate greater than 1"});
  expect_rejected(&campaign_main, cases);
}

TEST(CliCampaign, RejectsInvalidGridsBeforeLaunchingShards) {
  expect_rejected(
      &campaign_main,
      {{{"test_cli_probe"}, "needs at least one --sweep key=... axis"},
       {{"test_cli_probe", "--sweep", "x=1,2", "--sweep", "x=3"},
        "error: duplicate --sweep axis for key 'x'"},
       {{"test_cli_probe", "--sweep", "x=1,-2"}, "below the minimum"},
       {{"test_cli_probe", "--sweep", "nope=1,2"},
        "error: unknown parameter 'nope'"}});
}

TEST(CliMerge, RejectsEveryMalformedFlag) {
  expect_rejected(
      &merge_main,
      {{{}, "usage: tfmcc_sim merge"},
       {{"--output", "merged.csv"}, "usage: tfmcc_sim merge"},
       {{"--output"}, "error: --output expects a"},
       {{"--bogus", "part.bin"}, "'--bogus'"},
       {{"--bogus", "part.bin"}, "error: unknown "},
       {{"no/such/partial.bin"}, "error: cannot open 'no/such/partial.bin'"}});
}

// --- flag-table fuzz --------------------------------------------------------

/// Deterministic argv mutator (splitmix64 stream): byte flips, inserts and
/// deletes, dropped, duplicated and swapped arguments, and arguments
/// replaced by tokens that sit on the parsers' edges.
class ArgvMutator {
 public:
  explicit ArgvMutator(std::uint64_t seed) : state_{seed} {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

  void mutate(std::vector<std::string>& args) {
    static const std::vector<std::string> kTokens = {
        "",         "--",         "-",          "--sweep",   "--set",
        "--shard",  "--stats",    "--output",   "--jobs",    "--replicate",
        "--dir",    "--progress", "--resume",   "--shards",  "--duration",
        "0",        "-1",         "1e400",      "nan",       "inf",
        "0x10",     "2/2",        "0/1",        "/",         "1/",
        "x=",       "=",          "x=1:9:log3", "x=1,,2",    "x=1:2:lin",
        "mean,mean", "18446744073709551616",   "9e18",      "3.5"};
    if (args.empty() || below(8) == 0) {
      args.insert(args.begin() + static_cast<std::ptrdiff_t>(
                                     below(args.size() + 1)),
                  kTokens[below(kTokens.size())]);
      return;
    }
    const std::size_t a = below(args.size());
    std::string& arg = args[a];
    switch (below(7)) {
      case 0:
        if (!arg.empty()) {
          arg[below(arg.size())] ^= static_cast<char>(1 << below(8));
        }
        break;
      case 1:
        arg.insert(arg.begin() +
                       static_cast<std::ptrdiff_t>(below(arg.size() + 1)),
                   static_cast<char>(below(256)));
        break;
      case 2:
        if (!arg.empty()) arg.erase(below(arg.size()), 1);
        break;
      case 3:
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(a));
        break;
      case 4:
        args.insert(args.begin() + static_cast<std::ptrdiff_t>(a), arg);
        break;
      case 5:
        std::swap(arg, args[below(args.size())]);
        break;
      default:
        arg = kTokens[below(kTokens.size())];
        break;
    }
  }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

using TableParser = std::function<bool(int, char**, std::ostream&)>;

/// Runs `iterations` mutated copies of the seeds through `parse`.  A parse
/// that succeeds prints nothing; one that fails prints an error or usage
/// line.
void fuzz_parser(const TableParser& parse,
                 const std::vector<std::vector<std::string>>& seeds,
                 std::uint64_t seed, int iterations) {
  ArgvMutator mutator{seed};
  int parsed = 0;
  for (int i = 0; i < iterations; ++i) {
    std::vector<std::string> args = seeds[mutator.below(seeds.size())];
    const std::size_t rounds = 1 + mutator.below(4);
    for (std::size_t r = 0; r < rounds; ++r) mutator.mutate(args);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    std::ostringstream err;
    const bool ok = parse(static_cast<int>(argv.size()), argv.data(), err);
    std::string shown;
    for (const auto& a : args) shown += " '" + a + "'";
    if (ok) {
      ++parsed;
      ASSERT_EQ(err.str(), "") << "iteration " << i << ":" << shown;
    } else {
      ASSERT_TRUE(err.str().rfind("error: ", 0) == 0 ||
                  err.str().rfind("usage: ", 0) == 0)
          << "iteration " << i << ":" << shown << "\n" << err.str();
    }
  }
  // The seeds are valid command lines, so some mutants must still parse.
  EXPECT_GT(parsed, 0);
}

TEST(CliFuzz, SingleRunTable) {
  fuzz_parser(
      [](int argc, char** argv, std::ostream& err) {
        ScenarioOptions opts;
        return parse_scenario_options(argc, argv, opts, err);
      },
      {{"--duration", "5", "--seed", "7", "--set", "x=2"},
       {"--output", "out.csv", "--set", "a=b=c"}},
      1, 4000);
}

TEST(CliFuzz, SweepTable) {
  fuzz_parser(
      [](int argc, char** argv, std::ostream& err) {
        SweepOptions sweep;
        return parse_sweep_cli(argc, argv, sweep, err) != nullptr;
      },
      {{"test_cli_probe", "--sweep", "x=1,2,3", "--jobs", "2", "--replicate",
        "3", "--stats", "mean,cov"},
       {"test_cli_probe", "--sweep", "x=1:9:log3", "--shard", "1/3",
        "--checkpoint", "ck.bin", "--checkpoint-every", "2", "--resume",
        "ck.bin", "--max-point-failures", "1", "--progress"},
       {"test_cli_probe", "--sweep", "x=0:4:lin5", "--duration", "2",
        "--seed", "3", "--set", "x=1", "--output", "agg.csv"}},
      2, 4000);
}

TEST(CliFuzz, CampaignTableForwardsWhatTheShardsReparse) {
  fuzz_parser(
      [](int argc, char** argv, std::ostream& err) {
        CampaignOptions opts;
        const Scenario* scenario = parse_campaign_cli(argc, argv, opts, err);
        if (scenario == nullptr) return false;
        // The forwarded arguments are the shards' sweep definition: they
        // must parse as a sweep to the same manifest.
        std::vector<std::string> child = {scenario->name};
        child.insert(child.end(), opts.child_args.begin(),
                     opts.child_args.end());
        std::vector<char*> child_argv;
        for (auto& a : child) child_argv.push_back(a.data());
        SweepOptions shard;
        std::ostringstream child_err;
        EXPECT_EQ(parse_sweep_cli(static_cast<int>(child_argv.size()),
                                  child_argv.data(), shard, child_err),
                  scenario)
            << child_err.str();
        std::ostringstream diff;
        EXPECT_TRUE(SweepManifest::from(*scenario, shard)
                        .matches(SweepManifest::from(*scenario, opts.sweep),
                                 false, "shard", diff))
            << diff.str();
        return true;
      },
      {{"test_cli_probe", "--sweep", "x=1,2,3", "--shards", "3", "--jobs",
        "2", "--replicate", "2", "--stats", "mean,max", "--dir", "camp"},
       {"test_cli_probe", "--sweep", "x=1:9:log3", "--stall-timeout", "5",
        "--max-retries", "2", "--backoff-base", "0.1", "--backoff-max", "1",
        "--poll-interval", "0.05", "--exec", "/bin/true",
        "--checkpoint-every", "1", "--output", "merged.csv"},
       {"test_cli_probe", "--sweep", "x=2,4", "--duration", "2", "--seed",
        "3", "--set", "x=1", "--shard", "0/2"}},
      3, 4000);
}

TEST(CliFuzz, MergeTable) {
  fuzz_parser(
      [](int argc, char** argv, std::ostream& err) {
        std::optional<std::string> output;
        std::vector<std::string> parts;
        return parse_merge_cli(argc, argv, output, parts, err);
      },
      {{"--output", "merged.csv", "a.part", "b.part"}, {"a.part"}}, 4, 4000);
}

}  // namespace
}  // namespace tfmcc
