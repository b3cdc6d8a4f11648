// The unified scenario driver.  Every figure/ablation/comparison bench in
// this directory registers itself with the ScenarioRegistry; this binary
// links them all and dispatches by name:
//
//   $ tfmcc_sim --list
//   $ tfmcc_sim fig09_single_bottleneck --duration 5 --seed 7
//   $ tfmcc_sim fig09_single_bottleneck --set n_tcp=4 --set bottleneck_bps=2e6
//   $ tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6 --jobs 4
//   $ tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6
//         --replicate 5 --stats mean,cov --jobs 4
//
// The same options always give byte-identical output, and a sweep's
// aggregate CSV does not depend on `--jobs`.

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>

#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_state.hpp"

namespace {

/// Prints `usage` after a 7-column indent, wrapping before a " [" so that
/// no line passes 79 columns.
void print_wrapped(std::ostream& os, const std::string& usage) {
  std::string line(7, ' ');
  for (std::size_t start = 0; start < usage.size();) {
    const std::size_t next =
        std::min(usage.find(" [", start + 1), usage.size());
    const std::string piece = usage.substr(start, next - start);
    if (line.size() + piece.size() > 79 && start != 0) {
      os << line << '\n';
      line = std::string(16, ' ') + piece.substr(1);
    } else {
      line += piece;
    }
    start = next;
  }
  os << line << '\n';
}

void print_usage(std::ostream& os) {
  // Every command prints its usage line, rendered from its flag table, when
  // it is given no arguments.
  std::ostringstream lines;
  tfmcc::ScenarioOptions unused;
  lines << "usage: tfmcc_sim <scenario>"
        << tfmcc::flag_usage(tfmcc::scenario_flags(unused)) << '\n';
  tfmcc::sweep_main(0, nullptr, lines);
  tfmcc::merge_main(0, nullptr, lines);
  tfmcc::campaign_main(0, nullptr, lines);
  os << "usage: tfmcc_sim --list\n";
  std::istringstream is{lines.str()};
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("usage: ", 0) == 0) print_wrapped(os, line.substr(7));
  }
  os << "`--list` shows each scenario's tunable parameters with their paper\n"
        "defaults; `--set` overrides them.  Scenarios with scripted event\n"
        "schedules rescale the script proportionally under --duration.\n"
        "`sweep` runs one scenario over a parameter grid (points in\n"
        "parallel under --jobs) and aggregates the per-point CSVs into one\n"
        "table with the swept keys prepended, rows in grid order.\n"
        "`--replicate N` runs every grid point N times on derived seeds\n"
        "and emits one summary row per point (mean/cov/... columns per the\n"
        "--stats selection plus n_rep); `--progress` forces the throttled\n"
        "progress/ETA line stderr TTYs get by default.\n"
        "`--shard i/n` runs only the grid points shard i of n owns and\n"
        "writes a partial artifact; `merge` folds all n partials into the\n"
        "byte-identical unsharded aggregate.  `--checkpoint`/`--resume`\n"
        "make a killed sweep restartable with byte-identical output.\n"
        "`campaign` validates the grid once, then supervises all n shards\n"
        "as child processes: it polls their checkpoint heartbeats, relaunches\n"
        "crashed shards with --resume under exponential backoff, kills and\n"
        "restarts stalled stragglers, and merges on completion — the merged\n"
        "CSV is byte-identical to the unsharded sweep.  If a shard exhausts\n"
        "its retries the campaign names the missing grid points and exits 2\n"
        "with the surviving partials preserved.  Every command exits 2 on a\n"
        "bad flag or value, before anything runs.\n";
}

void print_list() {
  const auto& reg = tfmcc::ScenarioRegistry::instance();
  for (const auto& name : reg.names()) {
    const tfmcc::Scenario* s = reg.find(name);
    std::cout << name << "\t" << s->description << "\n";
    for (const auto& p : s->params) {
      std::cout << "  --set " << p.name << "=" << p.default_value << "\t("
                << tfmcc::param_type_name(p.type) << ") " << p.description
                << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string_view cmd = argv[1];
  if (cmd == "--list" || cmd == "-l") {
    print_list();
    return 0;
  }
  if (cmd == "--help" || cmd == "-h") {
    print_usage(std::cout);
    print_list();
    return 0;
  }

  if (cmd == "sweep") {
    return tfmcc::sweep_main(argc - 2, argv + 2, std::cerr);
  }
  if (cmd == "merge") {
    return tfmcc::merge_main(argc - 2, argv + 2, std::cerr);
  }
  if (cmd == "campaign") {
    return tfmcc::campaign_main(argc - 2, argv + 2, std::cerr);
  }

  tfmcc::ScenarioOptions opts;
  if (!tfmcc::parse_scenario_options(argc - 2, argv + 2, opts, std::cerr)) {
    return 2;
  }
  const int rc = tfmcc::run_scenario_cli(cmd, opts, std::cerr);
  return rc < 0 ? 2 : rc;
}
