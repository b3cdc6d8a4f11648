#include "sim/scenario.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

namespace tfmcc {

namespace {

bool parse_f64(std::string_view text, double& out) {
  // std::from_chars for double is flaky across stdlibs; strtod is enough here.
  std::string buf{text};
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() && !buf.empty();
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec == std::errc{} && p == text.data() + text.size()) return true;
  // Accept scientific/decimal spellings of whole numbers ("2e6", "1000.0")
  // so link rates and receiver counts read naturally on the command line.
  double d = 0;
  if (!parse_f64(text, d) || !std::isfinite(d) || d < 0.0 ||
      d > 1.8e19 || d != std::floor(d)) {
    return false;
  }
  out = static_cast<std::uint64_t>(d);
  return true;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec == std::errc{} && p == text.data() + text.size()) return true;
  double d = 0;
  if (!parse_f64(text, d) || !std::isfinite(d) || std::fabs(d) > 9.0e18 ||
      d != std::floor(d)) {
    return false;
  }
  out = static_cast<std::int64_t>(d);
  return true;
}

bool parse_bool(std::string_view text, bool& out) {
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "off" || text == "no") {
    out = false;
    return true;
  }
  return false;
}

/// True when `value` coerces to the declared parameter type; for numeric
/// types the coerced value is also written to `numeric`.
bool value_coerces(ParamType type, std::string_view value, double& numeric) {
  switch (type) {
    case ParamType::kInt64: {
      std::int64_t i;
      if (!parse_i64(value, i)) return false;
      numeric = static_cast<double>(i);
      return true;
    }
    case ParamType::kUint64: {
      std::uint64_t u;
      if (!parse_u64(value, u)) return false;
      numeric = static_cast<double>(u);
      return true;
    }
    case ParamType::kDouble: {
      double d;
      if (!parse_f64(value, d) || !std::isfinite(d)) return false;
      numeric = d;
      return true;
    }
    case ParamType::kBool: {
      bool b;
      return parse_bool(value, b);
    }
    case ParamType::kString:
      return true;
  }
  return false;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string_view param_type_name(ParamType t) {
  switch (t) {
    case ParamType::kInt64:
      return "int";
    case ParamType::kUint64:
      return "uint";
    case ParamType::kDouble:
      return "double";
    case ParamType::kBool:
      return "bool";
    case ParamType::kString:
      return "string";
  }
  return "?";
}

ParamSpec param(std::string name, std::int64_t dflt, std::string description,
                std::optional<double> min) {
  return {std::move(name), ParamType::kInt64, std::to_string(dflt),
          std::move(description), min};
}

ParamSpec param(std::string name, int dflt, std::string description,
                std::optional<double> min) {
  return param(std::move(name), static_cast<std::int64_t>(dflt),
               std::move(description), min);
}

ParamSpec param(std::string name, std::uint64_t dflt, std::string description,
                std::optional<double> min) {
  return {std::move(name), ParamType::kUint64, std::to_string(dflt),
          std::move(description), min};
}

ParamSpec param(std::string name, double dflt, std::string description,
                std::optional<double> min) {
  return {std::move(name), ParamType::kDouble, format_double(dflt),
          std::move(description), min};
}

ParamSpec param(std::string name, bool dflt, std::string description) {
  return {std::move(name), ParamType::kBool, dflt ? "true" : "false",
          std::move(description), std::nullopt};
}

ParamSpec param(std::string name, const char* dflt, std::string description) {
  return {std::move(name), ParamType::kString, dflt, std::move(description),
          std::nullopt};
}

void ScenarioOptions::set_param(std::string key, std::string value) {
  params_.insert_or_assign(std::move(key), std::move(value));
}

bool ScenarioOptions::has_param(std::string_view key) const {
  return params_.find(key) != params_.end();
}

std::ostream& ScenarioOptions::out() const {
  return out_ != nullptr ? *out_ : std::cout;
}

void ScenarioOptions::check_declared(std::string_view name) const {
  if (specs_ == nullptr) return;
  for (const auto& p : *specs_) {
    if (p.name == name) return;
  }
  // A read of an undeclared key always gets the fallback: `--set` overrides
  // of it are rejected up front as unknown, so the knob is dead.  Loud in
  // debug builds, a stderr warning in release.
  std::cerr << "warning: scenario read undeclared parameter '" << name
            << "' (missing from its ParamSpec list; --set cannot reach it)\n";
  assert(false && "param_or: parameter not in the scenario's ParamSpec list");
}

template <>
std::string ScenarioOptions::param_or<std::string>(std::string_view name,
                                                   std::string dflt) const {
  check_declared(name);
  auto it = params_.find(name);
  return it == params_.end() ? dflt : it->second;
}

template <>
double ScenarioOptions::param_or<double>(std::string_view name,
                                         double dflt) const {
  check_declared(name);
  auto it = params_.find(name);
  if (it == params_.end()) return dflt;
  double v = 0;
  return parse_f64(it->second, v) && std::isfinite(v) ? v : dflt;
}

template <>
std::int64_t ScenarioOptions::param_or<std::int64_t>(std::string_view name,
                                                     std::int64_t dflt) const {
  check_declared(name);
  auto it = params_.find(name);
  if (it == params_.end()) return dflt;
  std::int64_t v = 0;
  return parse_i64(it->second, v) ? v : dflt;
}

template <>
int ScenarioOptions::param_or<int>(std::string_view name, int dflt) const {
  const std::int64_t v =
      param_or<std::int64_t>(name, static_cast<std::int64_t>(dflt));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return dflt;
  }
  return static_cast<int>(v);
}

template <>
std::uint64_t ScenarioOptions::param_or<std::uint64_t>(
    std::string_view name, std::uint64_t dflt) const {
  check_declared(name);
  auto it = params_.find(name);
  if (it == params_.end()) return dflt;
  std::uint64_t v = 0;
  return parse_u64(it->second, v) ? v : dflt;
}

template <>
bool ScenarioOptions::param_or<bool>(std::string_view name, bool dflt) const {
  check_declared(name);
  auto it = params_.find(name);
  if (it == params_.end()) return dflt;
  bool v = false;
  return parse_bool(it->second, v) ? v : dflt;
}

std::uint64_t derive_replicate_seed(std::uint64_t base, std::uint64_t rep) {
  if (rep == 0) return base;
  // splitmix64: advance the stream by `rep` increments, then finalize.  The
  // finalizer's avalanche keeps consecutive replicates decorrelated even
  // though the pre-mix states differ by one golden-ratio increment.
  std::uint64_t z = base + rep * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const ParamSpec* Scenario::find_param(std::string_view pname) const {
  for (const auto& p : params) {
    if (p.name == pname) return &p;
  }
  return nullptr;
}

bool validate_scenario_params(const Scenario& scenario,
                              const ScenarioOptions& opts, std::ostream& err) {
  bool ok = true;
  for (const auto& [key, value] : opts.params()) {
    const ParamSpec* spec = scenario.find_param(key);
    if (spec == nullptr) {
      err << "error: unknown parameter '" << key << "' for scenario '"
          << scenario.name << "'\n";
      if (scenario.params.empty()) {
        err << "  (this scenario declares no parameters)\n";
      } else {
        err << "  known parameters:\n";
        for (const auto& p : scenario.params) {
          err << "    " << p.name << " (" << param_type_name(p.type)
              << ", default " << p.default_value << ")\n";
        }
      }
      ok = false;
      continue;
    }
    double numeric = 0.0;
    if (!value_coerces(spec->type, value, numeric)) {
      err << "error: malformed value '" << value << "' for parameter '" << key
          << "' (expected " << param_type_name(spec->type) << ", default "
          << spec->default_value << ")\n";
      ok = false;
      continue;
    }
    if (spec->min.has_value() && spec->type != ParamType::kBool &&
        spec->type != ParamType::kString && numeric < *spec->min) {
      err << "error: value '" << value << "' for parameter '" << key
          << "' is below the minimum " << format_double(*spec->min)
          << " (default " << spec->default_value << ")\n";
      ok = false;
    }
  }
  return ok;
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

bool ScenarioRegistry::add(std::string name, std::string description,
                           ScenarioFn fn, ParamSpecList params) {
  auto [it, inserted] = scenarios_.try_emplace(
      name, Scenario{name, std::move(description), fn, std::move(params)});
  return inserted;
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, _] : scenarios_) out.push_back(name);
  return out;
}

int ScenarioRegistry::run(std::string_view name, const ScenarioOptions& opts,
                          std::ostream& err) const {
  const Scenario* s = find(name);
  if (s == nullptr) {
    err << "error: unknown scenario '" << name << "'\nknown scenarios:\n";
    for (const auto& n : names()) err << "  " << n << '\n';
    return -1;
  }
  if (!validate_scenario_params(*s, opts, err)) return -1;
  // Bind the declared ParamSpecs to a copy of the options so param_or()
  // reads inside the scenario are checked against them (see check_declared).
  ScenarioOptions bound = opts;
  bound.bind_specs(&s->params);
  return s->fn(bound);
}

bool parse_scenario_options(int argc, char** argv, ScenarioOptions& opts,
                            std::ostream& err) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--duration") {
      // The upper bound keeps the seconds-to-SimTime conversion inside
      // int64 nanoseconds (~292 years); it also rejects inf.
      constexpr double kMaxSeconds = 9.0e9;
      double secs = 0;
      if (!has_value || !parse_f64(argv[i + 1], secs) ||
          !std::isfinite(secs) || secs <= 0 || secs > kMaxSeconds) {
        err << "error: --duration expects a positive number of seconds\n";
        return false;
      }
      opts.duration = SimTime::seconds(secs);
      ++i;
    } else if (arg == "--seed") {
      std::uint64_t seed = 0;
      if (!has_value || !parse_u64(argv[i + 1], seed)) {
        err << "error: --seed expects a non-negative integer\n";
        return false;
      }
      opts.seed = seed;
      ++i;
    } else if (arg == "--output") {
      if (!has_value || argv[i + 1][0] == '\0') {
        err << "error: --output expects a file path\n";
        return false;
      }
      opts.output_path = argv[i + 1];
      ++i;
    } else if (arg == "--set") {
      const std::string_view kv = has_value ? std::string_view{argv[i + 1]}
                                            : std::string_view{};
      const std::size_t eq = kv.find('=');
      if (!has_value || eq == std::string_view::npos || eq == 0) {
        err << "error: --set expects key=value\n";
        return false;
      }
      opts.set_param(std::string{kv.substr(0, eq)},
                     std::string{kv.substr(eq + 1)});
      ++i;
    } else {
      err << "error: unknown option '" << arg
          << "' (expected --duration <s>, --seed <n>, --set key=value or "
             "--output <path>)\n";
      return false;
    }
  }
  return true;
}

bool open_output_file(const std::string& path, std::ofstream& file,
                      std::ostream& err) {
  file.open(path);
  if (!file) {
    err << "error: cannot open output file '" << path << "'\n";
    return false;
  }
  return true;
}

bool finish_output_file(const std::string& path, std::ofstream& file,
                        std::ostream& err) {
  file.flush();
  if (!file) {
    err << "error: writing output file '" << path << "' failed\n";
    return false;
  }
  return true;
}

int run_scenario_cli(std::string_view name, ScenarioOptions& opts,
                     std::ostream& err) {
  std::ofstream file;
  if (opts.output_path.has_value()) {
    if (!open_output_file(*opts.output_path, file, err)) return -1;
    opts.set_output(file);
  }
  const int rc = ScenarioRegistry::instance().run(name, opts, err);
  if (file.is_open() &&
      !finish_output_file(*opts.output_path, file, err)) {
    return -1;
  }
  return rc;
}

}  // namespace tfmcc
