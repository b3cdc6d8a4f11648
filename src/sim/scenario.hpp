#pragma once

// Scenario registry: the unified driver layer behind `tfmcc_sim`.
//
// Every paper-figure experiment registers itself under a stable name via
// TFMCC_SCENARIO; the `tfmcc_sim` binary links all of them and dispatches by
// name, so adding a workload is one registration instead of a new binary.
//
// Scenarios declare their tunable knobs as typed ParamSpecs in the
// registration macro; the driver surfaces them in `--list`, validates
// `--set key=value` overrides against them before running, and the scenario
// reads them back through ScenarioOptions::param_or<T>().

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace tfmcc {

/// Declared type of a scenario parameter; drives the pre-run validation of
/// `--set` overrides and the rendering of defaults in `--list`.
enum class ParamType { kInt64, kUint64, kDouble, kBool, kString };

/// One declared scenario knob: its name, type, printable default, a
/// one-line description for `--list`, and an optional lower bound enforced
/// by pre-run validation (scenarios index arrays and drive loops with these
/// values, so "well-typed" alone is not "safe").
struct ParamSpec {
  std::string name;
  ParamType type{ParamType::kDouble};
  std::string default_value;
  std::string description;
  std::optional<double> min;
};

using ParamSpecList = std::vector<ParamSpec>;

std::string_view param_type_name(ParamType t);

/// ParamSpec builders used inside TFMCC_SCENARIO registrations; the overload
/// picks the declared type from the default's C++ type.  `min` is the lowest
/// accepted override value (inclusive).
ParamSpec param(std::string name, std::int64_t dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, int dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, std::uint64_t dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, double dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, bool dflt, std::string description);
ParamSpec param(std::string name, const char* dflt, std::string description);

/// Options handed to every scenario, parsed from the command line.  Absent
/// options fall back to the per-scenario paper defaults via *_or(), so a bare
/// invocation reproduces the figure exactly as published.
struct ScenarioOptions {
  std::optional<SimTime> duration;
  std::optional<std::uint64_t> seed;
  /// `--output <path>`: where the CLI drivers redirect the scenario's
  /// output sink before running (kept here so the single-run and sweep
  /// command lines share the parse).
  std::optional<std::string> output_path;

  SimTime duration_or(SimTime dflt) const { return duration.value_or(dflt); }
  std::uint64_t seed_or(std::uint64_t dflt) const {
    return seed.value_or(dflt);
  }

  /// The scenario's output sink: everything a scenario prints (figure
  /// header, CSV trace, CHECK/NOTE lines) goes through this stream, which
  /// is std::cout unless redirected.  Redirection is what lets a sweep run
  /// many points concurrently in-process without interleaving their CSVs.
  std::ostream& out() const;
  void set_output(std::ostream& os) { out_ = &os; }

  /// Record one `--set key=value` override (last write wins).
  void set_param(std::string key, std::string value);
  bool has_param(std::string_view key) const;
  const std::map<std::string, std::string, std::less<>>& params() const {
    return params_;
  }

  /// Typed access to an override: the declared default when the key is
  /// absent, the coerced value when present and well-formed, and the default
  /// again when the value does not coerce (pre-run validation against the
  /// scenario's ParamSpecs reports that case before the scenario runs).
  /// Supported T: bool, int, std::int64_t, std::uint64_t, double,
  /// std::string.
  template <typename T>
  T param_or(std::string_view name, T dflt) const;
  std::string param_or(std::string_view name, const char* dflt) const;

  /// Driver-internal: the registry binds the scenario's declared ParamSpecs
  /// before invoking it, so a param_or() read of a key the scenario never
  /// declared (invisible to `--list`/`--set` validation, i.e. a latent typo)
  /// is diagnosed instead of silently returning the fallback.  `specs` must
  /// outlive this object; nullptr unbinds.
  void bind_specs(const ParamSpecList* specs) { specs_ = specs; }

 private:
  /// Asserts (debug) / warns on stderr (release) when `name` is not among
  /// the bound ParamSpecs; no-op when no specs are bound.
  void check_declared(std::string_view name) const;
  /// The override of `name` (after check_declared), nullptr when unset.
  const std::string* find_param(std::string_view name) const;

  std::map<std::string, std::string, std::less<>> params_;
  const ParamSpecList* specs_{nullptr};
  std::ostream* out_{nullptr};
};

// The supported param_or instantiations live in scenario_registry.cpp; the
// declarations here make any unsupported T a link-time error instead of an
// implicit-instantiation failure.
template <>
bool ScenarioOptions::param_or<bool>(std::string_view, bool) const;
template <>
int ScenarioOptions::param_or<int>(std::string_view, int) const;
template <>
std::int64_t ScenarioOptions::param_or<std::int64_t>(std::string_view,
                                                     std::int64_t) const;
template <>
std::uint64_t ScenarioOptions::param_or<std::uint64_t>(std::string_view,
                                                       std::uint64_t) const;
template <>
double ScenarioOptions::param_or<double>(std::string_view, double) const;
template <>
std::string ScenarioOptions::param_or<std::string>(std::string_view,
                                                   std::string) const;

inline std::string ScenarioOptions::param_or(std::string_view name,
                                             const char* dflt) const {
  return param_or<std::string>(name, std::string{dflt});
}

/// Seed for replicate `rep` of a run whose base seed is `base`: replicate 0
/// is the base itself (so a single replicate reproduces the plain run
/// byte-for-byte), later replicates get a splitmix64-mixed stream.  A pure
/// function of (base, rep) — independent of thread count, completion order,
/// and which grid point the replicate belongs to — so replicated sweeps are
/// deterministic and individual replicates can be re-run standalone with
/// `--seed <derived>`.
std::uint64_t derive_replicate_seed(std::uint64_t base, std::uint64_t rep);

using ScenarioFn = int (*)(const ScenarioOptions&);

struct Scenario {
  std::string name;
  std::string description;
  ScenarioFn fn{nullptr};
  ParamSpecList params;

  const ParamSpec* find_param(std::string_view pname) const;
};

/// Checks every `--set` override against the scenario's declared ParamSpecs:
/// unknown keys and values that do not coerce to the declared type are
/// diagnosed on `err`.  Returns true when all overrides are valid.
bool validate_scenario_params(const Scenario& scenario,
                              const ScenarioOptions& opts, std::ostream& err);

class ScenarioRegistry {
 public:
  /// The process-wide registry populated by TFMCC_SCENARIO registrations.
  static ScenarioRegistry& instance();

  /// Returns true when newly added; a duplicate name keeps the first
  /// registration and returns false.
  bool add(std::string name, std::string description, ScenarioFn fn,
           ParamSpecList params = {});

  /// Nullptr when no scenario is registered under `name`.
  const Scenario* find(std::string_view name) const;
  /// find(), but a miss also lists the known scenarios on `err`.
  const Scenario* find_or_diagnose(std::string_view name,
                                   std::ostream& err) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return scenarios_.size(); }

  /// Runs the named scenario and returns its exit code, or -1 (after writing
  /// a diagnostic to `err`) when the name is unknown or a `--set` override
  /// fails validation against the scenario's declared parameters.
  int run(std::string_view name, const ScenarioOptions& opts,
          std::ostream& err) const;

 private:
  std::map<std::string, Scenario, std::less<>> scenarios_;
};

/// Number parsers shared by `--set` coercion and the flag tables.  Integers
/// also accept whole-number decimal and scientific spellings ("2e3").
bool parse_f64(std::string_view text, double& out);
bool parse_i64(std::string_view text, std::int64_t& out);

/// One command-line flag.  The single-run, `sweep`, `campaign` and `merge`
/// command lines are each one table of these: parse_flags parses argv
/// against it and flag_usage renders its usage line.
struct Flag {
  std::string_view name;
  /// Usage placeholder of the value ("N", "<path>"); empty for a switch.
  std::string_view meta;
  /// Ends "error: <name> expects ..." for a missing or rejected value.  A
  /// flag without `set` is refused with "error: <name> <expects>".
  std::string expects;
  /// Parses and stores the value (a switch gets "").  Returning false
  /// rejects it, with the setter's own diagnostic if it wrote one.
  std::function<bool(std::string_view value, std::ostream& err)> set;
  /// Usage shows "[name meta]..." for a flag that may be repeated.
  bool repeats{false};
  /// `campaign` forwards the flag and its value verbatim to every shard.
  bool forward{false};
};
using FlagTable = std::vector<Flag>;

/// An integer flag in [lo, hi], seconds in (0, 1e6], a non-empty path
/// (into a std::string or std::optional<std::string>).
Flag int_flag(std::string_view name, int& to, std::int64_t lo,
              std::int64_t hi);
Flag seconds_flag(std::string_view name, double& to);
template <typename Path>
Flag path_flag(std::string_view name, Path& to,
               std::string expects = "a file path") {
  return {name, "<path>", std::move(expects),
          [&to](std::string_view v, std::ostream&) {
            to = std::string{v};
            return !v.empty();
          }};
}

/// Parses argv against `table`.  Arguments that are not flags go to
/// `operands` (an unknown flag otherwise); the arguments of forwarded flags
/// are appended to `forwarded` when it is given.  Returns false after a
/// diagnostic on `err`.
bool parse_flags(int argc, char** argv, const FlagTable& table,
                 std::ostream& err,
                 std::vector<std::string>* operands = nullptr,
                 std::vector<std::string>* forwarded = nullptr);

/// " [--flag meta] [--switch] [--repeated meta]..." for `table`.
std::string flag_usage(const FlagTable& table);

/// The single-run flags, which `sweep` and `campaign` accept too:
/// `--duration <s>`, `--seed <n>`, `--set key=value` (all forwarded to
/// campaign shards) and `--output <path>`.
FlagTable scenario_flags(ScenarioOptions& opts);

/// Parses argv against scenario_flags(opts).  Returns false and writes a
/// diagnostic to `err` on unknown flags or malformed values.
bool parse_scenario_options(int argc, char** argv, ScenarioOptions& opts,
                            std::ostream& err);

/// `--output` plumbing shared by the CLI commands: runs `body` on the file
/// at `path` (opened for writing, flushed and checked after) or on
/// std::cout when `path` is unset.  Returns body's result, or 2 after a
/// diagnostic on `err` when the file cannot be opened or written.
int write_output(const std::optional<std::string>& path, std::ostream& err,
                 const std::function<int(std::ostream&)>& body);

/// Single-run CLI tail of `tfmcc_sim`: runs the scenario with its output
/// sink on opts.output_path (see write_output), dispatching through the
/// registry.  Returns the scenario's exit code, or -1 after a diagnostic on
/// `err` for an unknown scenario or an invalid `--set` override.
int run_scenario_cli(std::string_view name, ScenarioOptions& opts,
                     std::ostream& err);

}  // namespace tfmcc

/// Defines and registers a scenario function; optional trailing arguments
/// declare its tunable parameters:
///   TFMCC_SCENARIO(fig09_single_bottleneck, "Figure 9: ...",
///                  tfmcc::param("n_tcp", 15, "competing TCP flows")) {
///     const SimTime T = opts.duration_or(200_sec);
///     const int n_tcp = opts.param_or("n_tcp", 15);
///     ...
///     return 0;
///   }
#define TFMCC_SCENARIO(ident, desc, ...)                                   \
  static int tfmcc_scenario_##ident(const ::tfmcc::ScenarioOptions&);      \
  [[maybe_unused]] static const bool tfmcc_scenario_reg_##ident =          \
      ::tfmcc::ScenarioRegistry::instance().add(                           \
          #ident, desc, &tfmcc_scenario_##ident,                           \
          ::tfmcc::ParamSpecList{__VA_ARGS__});                            \
  static int tfmcc_scenario_##ident(                                       \
      [[maybe_unused]] const ::tfmcc::ScenarioOptions& opts)
