// Tracing must not perturb the simulation: for the same seed, a traced run
// and an untraced run of every workload give identical exact work counts and
// an identical output digest.  Counts that only a traced run can see (shim
// and equation-decorator call counts) must repeat exactly across two traced
// runs.  A different seed must change the digest, proving the seed reaches
// the generated inputs.  Workloads run with a tenth of their receivers so
// the test takes seconds.

#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

void check_workload(const std::string& name) {
  const perfbench::Scale scale{0.1, 1.0};
  constexpr std::uint64_t kSeed = 11;
  const perfbench::Result plain = perfbench::run_workload(name, kSeed, false, scale);
  const perfbench::Result traced = perfbench::run_workload(name, kSeed, true, scale);
  const perfbench::Result again = perfbench::run_workload(name, kSeed, true, scale);
  const perfbench::Result other = perfbench::run_workload(name, kSeed + 1, false, scale);

  for (const auto* r : {&plain, &traced, &again, &other}) {
    for (const auto& f : r->failures) expect(false, name + ": " + f);
  }
  expect(plain.digest == traced.digest, name + ": traced digest differs");
  expect(traced.digest == again.digest, name + ": traced digest not repeatable");
  expect(plain.digest != other.digest, name + ": seed does not reach the inputs");
  for (const auto& [k, v] : plain.counts) {
    const auto it = traced.counts.find(k);
    expect(it != traced.counts.end() && it->second == v,
           name + ": " + k + " differs between traced and untraced runs");
  }
  for (const auto& [k, v] : traced.counts) {
    const auto it = again.counts.find(k);
    expect(it != again.counts.end() && it->second == v,
           name + ": " + k + " differs between two traced runs");
  }
  expect(traced.counts.count("tfrc.eq.calls") == 1 &&
             traced.counts.count("tfmcc.rx.calls") == 1,
         name + ": traced run is missing its shim counts");
  expect(plain.layers.empty(), name + ": untraced run reported layer times");
  std::cout << name << ": " << plain.counts.size() << " counts, "
            << traced.counts.size() - plain.counts.size()
            << " traced-only counts compared\n";
}

}  // namespace

int main() {
  for (const auto& name : perfbench::workload_names()) check_workload(name);
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "shim transparency: all workloads pass\n";
  return 0;
}
