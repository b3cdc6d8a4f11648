#pragma once

// Shared support for the figure-reproduction benches.  Every bench binary
// prints:
//   1. a header naming the figure it reproduces,
//   2. a CSV trace with the same series the paper plots,
//   3. a "CHECK" summary comparing the measured shape against the paper's
//      qualitative claim (recorded in EXPERIMENTS.md).
//
// Benches define their entry point with TFMCC_SCENARIO (sim/scenario.hpp),
// which registers them as scenarios of the unified `tfmcc_sim` driver.

#include <algorithm>
#include <ostream>
#include <string>

#include "sim/scenario.hpp"
#include "tfrc/equation_backend.hpp"

namespace tfmcc::bench {

/// The shared `equation_backend` knob: every TFMCC scenario declares it so
/// any figure can be re-run (or swept) on the scaled-integer engine with
/// `--set equation_backend=fixed`.  The float default keeps all golden
/// outputs byte-identical.
inline ParamSpec equation_backend_param() {
  return param("equation_backend", "float",
               "control-equation backend: float (double Padhye) or fixed "
               "(table-driven scaled-integer)");
}

/// Resolves the declared `equation_backend` override; on an unknown name,
/// diagnoses on the scenario sink and returns nullptr (the scenario should
/// fail its run).
inline const EquationBackend* selected_equation_backend(
    const ScenarioOptions& opts) {
  const std::string name = opts.param_or("equation_backend", "float");
  const EquationBackend* backend = find_equation_backend(name);
  if (backend == nullptr) {
    opts.out() << "error: unknown equation_backend '" << name
               << "' (expected float or fixed)\n";
  }
  return backend;
}

/// The hybrid full/model receiver-tier seam, following the equation_backend
/// template: packet-level scenarios declare `receiver_model` so any of them
/// can run the modeled SoA receiver blocks with `--set
/// receiver_model=hybrid`.  The full default keeps all golden outputs
/// byte-identical.
enum class ReceiverModel { kFull, kHybrid, kUnknown };

inline ParamSpec receiver_model_param(const char* def = "full") {
  return param("receiver_model", def,
               "receiver tier: full (one agent per receiver) or hybrid "
               "(full agents for the interesting few, modeled SoA blocks "
               "for the silent majority)");
}

/// Resolves the declared `receiver_model` override; on an unknown name,
/// diagnoses on the scenario sink and returns kUnknown (the scenario should
/// fail its run).
inline ReceiverModel selected_receiver_model(const ScenarioOptions& opts,
                                             const char* def = "full") {
  const std::string name = opts.param_or("receiver_model", def);
  if (name == "full") return ReceiverModel::kFull;
  if (name == "hybrid") return ReceiverModel::kHybrid;
  opts.out() << "error: unknown receiver_model '" << name
             << "' (expected full or hybrid)\n";
  return ReceiverModel::kUnknown;
}

// All three emitters take the scenario's output sink explicitly
// (opts.out() at the call sites) so concurrently running sweep points
// never interleave on a shared stdout.

inline void figure_header(std::ostream& os, const char* figure,
                          const char* title) {
  os << "# " << figure << ": " << title << '\n';
}

inline bool check(std::ostream& os, bool ok, const std::string& what) {
  os << "CHECK " << (ok ? "PASS" : "DIVERGES") << ": " << what << '\n';
  return ok;
}

inline void note(std::ostream& os, const std::string& what) {
  os << "NOTE: " << what << '\n';
}

/// Warm-up cutoff for steady-state measurement windows: the paper's cutoff,
/// clamped to half the horizon so shortened --duration runs still measure.
inline SimTime warmup(SimTime cap, SimTime horizon) {
  return std::min(cap, horizon / 2.0);
}

}  // namespace tfmcc::bench
