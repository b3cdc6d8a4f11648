#pragma once

// The benchmark's four workloads, built through the simulator's public API.
// Each call runs one workload once, in this process, and reports host times,
// exact work counts, its own correctness checks and (traced runs only) the
// per-layer attribution.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Shrinks a workload for tests and growth studies; 1.0 is the benchmark.
struct Scale {
  double receivers{1.0};
  double horizon{1.0};
};

struct Result {
  std::vector<std::string> failures;  // empty: every check passed
  double wall_s{0.0};    // whole workload, set-up and teardown included
  double setup_s{0.0};   // start of the workload to the first run_until
  double run_s{0.0};     // the run_until phase (the whole sweep for sweeps)
  std::int64_t deliveries{0};  // endpoint deliveries in the run phase
  std::int64_t runs{0};        // simulations completed
  std::uint64_t digest{0};     // hash of the workload's observable output
  /// Machine-independent work counts; a behaviour-preserving change leaves
  /// every one of them exactly equal for the same seed.
  std::map<std::string, std::int64_t> counts;
  /// Per-layer host-time attribution; filled by traced runs only.
  std::map<std::string, double> layers;
};

const std::vector<std::string>& workload_names();

/// Runs workload `name` once on inputs generated from `seed`.  `traced`
/// installs the agent shims and the equation decorator.  Throws
/// std::invalid_argument for an unknown name.
Result run_workload(const std::string& name, std::uint64_t seed, bool traced,
                    Scale scale = {});

}  // namespace perfbench
