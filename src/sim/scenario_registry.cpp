#include "sim/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

namespace tfmcc {

bool parse_f64(std::string_view text, double& out) {
  // Decimal spellings only: [+-]digits[.digits][(e|E)[+-]digits] with a
  // digit on at least one side of the point.  strtod alone would also take
  // hexadecimal ("0x10"), "inf", "nan" and leading whitespace.
  std::size_t i = 0;
  const auto sign = [&] {
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
  };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i - from;
  };
  sign();
  std::size_t mantissa = digits();
  if (i < text.size() && text[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    sign();
    if (digits() == 0) return false;
  }
  if (i != text.size()) return false;
  // std::from_chars for double is flaky across stdlibs; strtod reads the
  // validated text.
  out = std::strtod(std::string{text}.c_str(), nullptr);
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

namespace {

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

const std::string* ScenarioOptions::find_param(std::string_view name) const {
  check_declared(name);
  auto it = params_.find(name);
  return it == params_.end() ? nullptr : &it->second;
}

template <>
std::string ScenarioOptions::param_or<std::string>(std::string_view name,
                                                   std::string dflt) const {
  const std::string* v = find_param(name);
  return v == nullptr ? dflt : *v;
}

template <>
double ScenarioOptions::param_or<double>(std::string_view name,
                                         double dflt) const {
  const std::string* v = find_param(name);
  double d = 0;
  return v != nullptr && parse_f64(*v, d) && std::isfinite(d) ? d : dflt;
}

template <>
std::int64_t ScenarioOptions::param_or<std::int64_t>(std::string_view name,
                                                     std::int64_t dflt) const {
  const std::string* v = find_param(name);
  std::int64_t i = 0;
  return v != nullptr && parse_i64(*v, i) ? i : dflt;
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
  const std::string* v = find_param(name);
  std::uint64_t u = 0;
  return v != nullptr && parse_u64(*v, u) ? u : dflt;
}

template <>
bool ScenarioOptions::param_or<bool>(std::string_view name, bool dflt) const {
  const std::string* v = find_param(name);
  bool b = false;
  return v != nullptr && parse_bool(*v, b) ? b : dflt;
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

const Scenario* ScenarioRegistry::find_or_diagnose(std::string_view name,
                                                   std::ostream& err) const {
  const Scenario* s = find(name);
  if (s == nullptr) {
    err << "error: unknown scenario '" << name << "'\nknown scenarios:\n";
    for (const auto& n : names()) err << "  " << n << '\n';
  }
  return s;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, _] : scenarios_) out.push_back(name);
  return out;
}

int ScenarioRegistry::run(std::string_view name, const ScenarioOptions& opts,
                          std::ostream& err) const {
  const Scenario* s = find_or_diagnose(name, err);
  if (s == nullptr || !validate_scenario_params(*s, opts, err)) return -1;
  // Bind the declared ParamSpecs to a copy of the options so param_or()
  // reads inside the scenario are checked against them (see check_declared).
  ScenarioOptions bound = opts;
  bound.bind_specs(&s->params);
  return s->fn(bound);
}

Flag int_flag(std::string_view name, int& to, std::int64_t lo,
              std::int64_t hi) {
  return {name, "N",
          "an integer between " + std::to_string(lo) + " and " +
              std::to_string(hi),
          [&to, lo, hi](std::string_view v, std::ostream&) {
            std::int64_t n = 0;
            if (!parse_i64(v, n) || n < lo || n > hi) return false;
            to = static_cast<int>(n);
            return true;
          }};
}

Flag seconds_flag(std::string_view name, double& to) {
  return {name, "S", "seconds in (0, 1e6]",
          [&to](std::string_view v, std::ostream&) {
            double s = 0;
            if (!parse_f64(v, s) || !(s > 0.0) || s > 1e6) return false;
            to = s;
            return true;
          }};
}

bool parse_flags(int argc, char** argv, const FlagTable& table,
                 std::ostream& err, std::vector<std::string>* operands,
                 std::vector<std::string>* forwarded) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag =
        std::find_if(table.begin(), table.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == table.end()) {
      if (operands != nullptr && arg.substr(0, 2) != "--") {
        operands->emplace_back(arg);
        continue;
      }
      err << "error: unknown option '" << arg << "' (expected"
          << flag_usage(table) << ")\n";
      return false;
    }
    if (!flag->set) {
      err << "error: " << arg << ' ' << flag->expects << '\n';
      return false;
    }
    const bool takes_value = !flag->meta.empty();
    std::ostringstream why;
    if ((takes_value && i + 1 == argc) ||
        !flag->set(takes_value ? argv[i + 1] : "", why)) {
      // A setter's own diagnostic replaces the generic one.
      err << (why.str().empty()
                  ? "error: " + std::string{arg} + " expects " +
                        flag->expects + '\n'
                  : why.str());
      return false;
    }
    if (forwarded != nullptr && flag->forward) {
      forwarded->emplace_back(arg);
      if (takes_value) forwarded->emplace_back(argv[i + 1]);
    }
    if (takes_value) ++i;
  }
  return true;
}

std::string flag_usage(const FlagTable& table) {
  std::string usage;
  for (const Flag& f : table) {
    if (!f.set) continue;  // refused flags are not part of the usage
    usage += " [" + std::string{f.name};
    if (!f.meta.empty()) usage += " " + std::string{f.meta};
    usage += f.repeats ? "]..." : "]";
  }
  return usage;
}

FlagTable scenario_flags(ScenarioOptions& opts) {
  return {
      {"--duration", "<s>", "a positive number of seconds",
       [&opts](std::string_view v, std::ostream&) {
         // The upper bound keeps the seconds-to-SimTime conversion inside
         // int64 nanoseconds (~292 years); it also rejects inf and nan.
         double secs = 0;
         if (!parse_f64(v, secs) || !(secs > 0 && secs <= 9.0e9)) return false;
         opts.duration = SimTime::seconds(secs);
         return true;
       },
       false, true},
      {"--seed", "<n>", "a non-negative integer",
       [&opts](std::string_view v, std::ostream&) {
         std::uint64_t seed = 0;
         if (!parse_u64(v, seed)) return false;
         opts.seed = seed;
         return true;
       },
       false, true},
      {"--set", "key=value", "key=value",
       [&opts](std::string_view kv, std::ostream&) {
         const std::size_t eq = kv.find('=');
         if (eq == std::string_view::npos || eq == 0) return false;
         opts.set_param(std::string{kv.substr(0, eq)},
                        std::string{kv.substr(eq + 1)});
         return true;
       },
       true, true},
      path_flag("--output", opts.output_path),
  };
}

bool parse_scenario_options(int argc, char** argv, ScenarioOptions& opts,
                            std::ostream& err) {
  return parse_flags(argc, argv, scenario_flags(opts), err);
}

int write_output(const std::optional<std::string>& path, std::ostream& err,
                 const std::function<int(std::ostream&)>& body) {
  if (!path.has_value()) return body(std::cout);
  std::ofstream file{*path};
  if (!file) {
    err << "error: cannot open output file '" << *path << "'\n";
    return 2;
  }
  const int rc = body(file);
  if (!file.flush()) {
    err << "error: writing output file '" << *path << "' failed\n";
    return 2;
  }
  return rc;
}

int run_scenario_cli(std::string_view name, ScenarioOptions& opts,
                     std::ostream& err) {
  return write_output(opts.output_path, err, [&](std::ostream& os) {
    opts.set_output(os);
    return ScenarioRegistry::instance().run(name, opts, err);
  });
}

}  // namespace tfmcc
