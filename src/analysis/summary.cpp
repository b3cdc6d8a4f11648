#include "analysis/summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <utility>

namespace tfmcc::summary {

namespace {

constexpr Stat kAllStats[] = {Stat::kMean, Stat::kStddev, Stat::kCov,
                              Stat::kMin, Stat::kMax};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Doubles travel as their raw IEEE-754 bit pattern in hex, making every
// round trip bit-exact.

void write_double_bits(std::ostream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  os << buf;
}

bool read_double_bits(std::istream& is, double& v) {
  std::string hex;
  if (!(is >> hex) || hex.size() != 16) return false;
  char* end = nullptr;
  const std::uint64_t bits = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  std::memcpy(&v, &bits, sizeof v);
  return true;
}

}  // namespace

std::string_view stat_name(Stat s) {
  switch (s) {
    case Stat::kMean:
      return "mean";
    case Stat::kStddev:
      return "stddev";
    case Stat::kCov:
      return "cov";
    case Stat::kMin:
      return "min";
    case Stat::kMax:
      return "max";
  }
  return "?";
}

bool parse_stats(std::string_view text, std::vector<Stat>& out,
                 std::ostream& err) {
  out.clear();
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string_view name = text.substr(start, comma - start);
    bool known = false;
    for (Stat s : kAllStats) {
      if (name == stat_name(s)) {
        for (Stat seen : out) {
          if (seen == s) {
            err << "error: duplicate statistic '" << name
                << "' in --stats list\n";
            return false;
          }
        }
        out.push_back(s);
        known = true;
        break;
      }
    }
    if (!known) {
      err << "error: unknown statistic '" << name
          << "' in --stats list (expected a comma-separated subset of "
             "mean,stddev,cov,min,max)\n";
      return false;
    }
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

std::vector<Stat> default_stats() { return {Stat::kMean, Stat::kCov}; }

void write_str(std::ostream& os, std::string_view s) {
  os << s.size() << ':' << s;
}

bool read_str(std::istream& is, std::string& out) {
  std::size_t len = 0;
  char sep = 0;
  if (!(is >> len) || !is.get(sep) || sep != ':') return false;
  if (len > (1u << 30)) return false;  // absurd length = corrupt stream
  // Grow with the bytes actually read, so a corrupt length prefix cannot
  // demand a large allocation before the stream runs out.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  out.clear();
  while (out.size() < len) {
    const std::size_t at = out.size();
    const std::size_t n = std::min(kChunk, len - at);
    out.resize(at + n);
    is.read(out.data() + at, static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is.gcount()) != n) return false;
  }
  return true;
}

bool parse_number(std::string_view text, double& out) {
  std::string buf{text};
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return !buf.empty() && end == buf.c_str() + buf.size() &&
         std::isfinite(out);
}

void Welford::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;  // bit-for-bit: the exact case the shard contract relies on
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += o.m2_ + delta * delta * na * nb / (na + nb);
  n_ += o.n_;
  if (o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
}

void Welford::save(std::ostream& os) const {
  os << "W1 " << n_ << ' ';
  write_double_bits(os, mean_);
  os << ' ';
  write_double_bits(os, m2_);
  os << ' ';
  write_double_bits(os, min_);
  os << ' ';
  write_double_bits(os, max_);
}

bool Welford::load(std::istream& is, Welford& out) {
  out = Welford{};
  std::string tag;
  if (!(is >> tag) || tag != "W1" || !(is >> out.n_)) return false;
  return read_double_bits(is, out.mean_) && read_double_bits(is, out.m2_) &&
         read_double_bits(is, out.min_) && read_double_bits(is, out.max_);
}

double Welford::stddev() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

double Welford::cov() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return stddev() / std::fabs(m);
}

double Welford::value(Stat s) const {
  switch (s) {
    case Stat::kMean:
      return mean();
    case Stat::kStddev:
      return stddev();
    case Stat::kCov:
      return cov();
    case Stat::kMin:
      return min();
    case Stat::kMax:
      return max();
  }
  return 0.0;
}

std::vector<std::string> split_csv(std::string_view line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    cells.emplace_back(line.substr(start, comma - start));
    if (comma == std::string_view::npos) return cells;
    start = comma + 1;
  }
}

ColumnSummary::ColumnSummary(std::vector<std::string> columns)
    : columns_{std::move(columns)}, numeric_(columns_.size(), true) {}

bool ColumnSummary::add_row(std::vector<std::string> cells,
                            std::ostream& err) {
  if (cells.size() != columns_.size()) {
    err << "error: CSV row has " << cells.size() << " cells but the header '"
        << (columns_.empty() ? std::string{} : columns_.front())
        << ",...' declares " << columns_.size() << " columns\n";
    return false;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    double v = 0.0;
    if (numeric_[i] && !parse_number(cells[i], v)) numeric_[i] = false;
  }
  rows_.push_back(std::move(cells));
  return true;
}

void ColumnSummary::add_row_unchecked(std::vector<std::string> cells) {
  const std::size_t n = std::min(cells.size(), columns_.size());
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    if (numeric_[i] && !parse_number(cells[i], v)) numeric_[i] = false;
  }
  rows_.push_back(std::move(cells));
}

bool ColumnSummary::absorb(const ColumnSummary& other, std::ostream& err) {
  if (other.columns_ != columns_) {
    err << "error: cannot merge accumulators with different headers\n";
    return false;
  }
  rows_.reserve(rows_.size() + other.rows_.size());
  for (const auto& row : other.rows_) {
    // Replaying through add_row_unchecked re-derives the numeric mask, so
    // the merged state equals a single accumulator fed both row sequences.
    add_row_unchecked(row);
  }
  return true;
}

void ColumnSummary::save(std::ostream& os) const {
  os << "CS1 " << columns_.size() << ' ';
  for (const auto& c : columns_) write_str(os, c);
  os << ' ' << rows_.size() << '\n';
  for (const auto& row : rows_) {
    os << row.size() << ' ';
    for (const auto& cell : row) write_str(os, cell);
    os << '\n';
  }
}

bool ColumnSummary::load(std::istream& is, ColumnSummary& out,
                         std::string& err) {
  err = "truncated or malformed accumulator state";
  std::string tag;
  std::size_t n_cols = 0, n_rows = 0;
  if (!(is >> tag) || tag != "CS1" || !(is >> n_cols) || n_cols > (1u << 20)) {
    return false;
  }
  std::vector<std::string> columns(n_cols);
  for (auto& c : columns) {
    if (!read_str(is, c)) return false;
  }
  out = ColumnSummary{std::move(columns)};
  if (!(is >> n_rows) || n_rows > (1u << 30)) return false;
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::size_t n_cells = 0;
    if (!(is >> n_cells) || n_cells > (1u << 20)) return false;
    std::vector<std::string> cells(n_cells);
    for (auto& cell : cells) {
      if (!read_str(is, cell)) return false;
    }
    // Unchecked on purpose: the raw path may have stored ragged rows, and
    // replay must reproduce the saved state exactly either way.
    out.add_row_unchecked(std::move(cells));
  }
  err.clear();
  return true;
}

std::vector<std::string> ColumnSummary::header(
    const std::vector<Stat>& stats) const {
  std::vector<std::string> out;
  out.reserve(columns_.size() * stats.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (numeric_[i]) {
      for (Stat s : stats) {
        out.push_back(columns_[i] + '_' + std::string{stat_name(s)});
      }
    } else {
      out.push_back(columns_[i]);
    }
  }
  return out;
}

std::vector<std::vector<std::string>> ColumnSummary::summarize(
    const std::vector<Stat>& stats) const {
  struct Group {
    std::vector<std::string> labels;  // label-column cells, in column order
    std::vector<Welford> acc;         // one per numeric column
  };
  std::vector<Group> groups;
  std::map<std::vector<std::string>, std::size_t> index;

  std::size_t n_numeric = 0;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (numeric_[i]) ++n_numeric;
  }
  for (const auto& row : rows_) {
    std::vector<std::string> key;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!numeric_[i]) key.push_back(row[i]);
    }
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{std::move(key), std::vector<Welford>(n_numeric)});
    }
    Group& g = groups[it->second];
    std::size_t j = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!numeric_[i]) continue;
      double v = 0.0;
      // Every cell of a still-numeric column parsed during add_row.
      if (parse_number(row[i], v)) g.acc[j].add(v);
      ++j;
    }
  }

  std::vector<std::vector<std::string>> out;
  out.reserve(groups.size());
  for (const Group& g : groups) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size() * stats.size());
    std::size_t label_at = 0, acc_at = 0;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (numeric_[i]) {
        for (Stat s : stats) {
          cells.push_back(format_value(g.acc[acc_at].value(s)));
        }
        ++acc_at;
      } else {
        cells.push_back(g.labels[label_at]);
        ++label_at;
      }
    }
    out.push_back(std::move(cells));
  }
  return out;
}

}  // namespace tfmcc::summary
