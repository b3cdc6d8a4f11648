#include "sim/sweep_state.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace tfmcc {

namespace {

constexpr std::string_view kCheckpointMagic = "TFMCC-SWEEP-CKPT";
constexpr std::string_view kPartialMagic = "TFMCC-SWEEP-PART";
// Version 2 added the checkpoint progress header (heartbeat + folded/owned
// counts) the campaign supervisor polls for liveness.
constexpr int kFormatVersion = 2;

/// The items spelled by `spell`, joined with commas.
template <typename T, typename Spell>
std::string join(const std::vector<T>& items, Spell spell) {
  std::string line;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) line += ',';
    line += spell(items[i]);
  }
  return line;
}

std::string stats_spelling(const std::vector<summary::Stat>& stats) {
  return join(stats, summary::stat_name);
}

/// Hex bitmap, 4 tasks per character, bit t%4 of nibble t/4.
std::string encode_bitmap(const std::vector<char>& bits) {
  std::string out;
  for (std::size_t i = 0; i < bits.size(); i += 4) {
    int nibble = 0;
    for (std::size_t b = 0; b < 4 && i + b < bits.size(); ++b) {
      nibble |= (bits[i + b] != 0 ? 1 : 0) << b;
    }
    out += "0123456789abcdef"[nibble];
  }
  return out;
}

bool decode_bitmap(const std::string& text, std::size_t n,
                   std::vector<char>& bits) {
  if (text.size() != (n + 3) / 4) return false;
  bits.assign(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const char c = text[t / 4];
    const int nibble = c >= '0' && c <= '9'   ? c - '0'
                       : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                              : -1;
    if (nibble < 0) return false;
    bits[t] = static_cast<char>((nibble >> (t % 4)) & 1);
  }
  return true;
}

bool expect_token(std::istream& is, std::string_view want) {
  std::string tok;
  return (is >> tok) && tok == want;
}

/// Tasks the manifest's shard owns: round-robin point ownership times the
/// replicate count.
std::uint64_t owned_task_count(const SweepManifest& m) {
  const std::size_t n = m.n_points();
  const std::size_t c = static_cast<std::size_t>(m.shard_count);
  const std::size_t i = static_cast<std::size_t>(m.shard_index);
  const std::size_t owned_points = n > i ? (n - 1 - i) / c + 1 : 0;
  return static_cast<std::uint64_t>(owned_points) *
         static_cast<std::uint64_t>(m.replicate);
}

std::uint64_t count_set(const std::vector<char>& bits) {
  std::uint64_t n = 0;
  for (char b : bits) n += b != 0;
  return n;
}

/// Reads the magic and version every state file opens with and, for a
/// checkpoint, its progress header.  `err` names the first problem.
bool read_preamble(std::istream& is, SweepStateFile::Kind& kind,
                   CheckpointProgress& progress, std::string& err) {
  std::string magic;
  int version = 0;
  if (!(is >> magic) || !(is >> version)) {
    err = "truncated or malformed sweep state";
    return false;
  }
  if (magic != kCheckpointMagic && magic != kPartialMagic) {
    err = "not a sweep checkpoint or partial (bad magic)";
    return false;
  }
  kind = magic == kCheckpointMagic ? SweepStateFile::Kind::kCheckpoint
                                   : SweepStateFile::Kind::kPartial;
  if (version != kFormatVersion) {
    err = "unsupported sweep state version";
    return false;
  }
  if (kind == SweepStateFile::Kind::kCheckpoint &&
      (!expect_token(is, "progress") || !(is >> progress.heartbeat) ||
       !(is >> progress.folded_tasks) || !(is >> progress.owned_tasks))) {
    err = "truncated or malformed checkpoint progress header";
    return false;
  }
  return true;
}

}  // namespace

SweepManifest SweepManifest::from(const Scenario& scenario,
                                  const SweepOptions& sweep) {
  SweepManifest m;
  m.scenario = scenario.name;
  m.axes = sweep.axes;
  m.replicate = sweep.replicate;
  m.stats = sweep.stats;
  if (sweep.base.duration.has_value()) {
    m.duration_ns = sweep.base.duration->count_nanos();
  }
  m.seed = sweep.base.seed;
  for (const auto& [k, v] : sweep.base.params()) m.params.emplace_back(k, v);
  m.shard_index = sweep.shard_index;
  m.shard_count = sweep.shard_count;
  return m;
}

std::size_t SweepManifest::n_points() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

void SweepManifest::save(std::ostream& os) const {
  os << "manifest " << kFormatVersion << '\n';
  os << "scenario ";
  summary::write_str(os, scenario);
  auto write_optional = [&os](const auto& v) {
    if (v.has_value()) {
      os << *v;
    } else {
      os << 'u';
    }
  };
  os << "\nduration ";
  write_optional(duration_ns);
  os << "\nseed ";
  write_optional(seed);
  os << "\nreplicate " << replicate << "\nstats ";
  summary::write_str(os, stats_spelling(stats));
  os << "\nshard " << shard_index << ' ' << shard_count;
  os << "\nparams " << params.size() << '\n';
  for (const auto& [k, v] : params) {
    summary::write_str(os, k);
    summary::write_str(os, v);
    os << '\n';
  }
  os << "axes " << axes.size() << '\n';
  for (const auto& axis : axes) {
    summary::write_str(os, axis.key);
    os << ' ' << axis.values.size() << ' ';
    for (const auto& v : axis.values) summary::write_str(os, v);
    os << '\n';
  }
}

bool SweepManifest::load(std::istream& is, SweepManifest& out,
                         std::string& err) {
  out = SweepManifest{};
  err = "truncated or malformed manifest";
  int version = 0;
  if (!expect_token(is, "manifest") || !(is >> version) ||
      version != kFormatVersion) {
    err = "unsupported manifest version";
    return false;
  }
  if (!expect_token(is, "scenario") || !summary::read_str(is, out.scenario)) {
    return false;
  }
  // "u" for unset, else the number, which must fill the whole token.
  auto read_optional = [&is](std::string_view key, auto& field) {
    std::string tok;
    if (!expect_token(is, key) || !(is >> tok)) return false;
    if (tok == "u") return true;
    std::istringstream number{tok};
    typename std::remove_reference_t<decltype(field)>::value_type v{};
    if (!(number >> v) || !number.eof()) return false;
    field = v;
    return true;
  };
  if (!read_optional("duration", out.duration_ns) ||
      !read_optional("seed", out.seed)) {
    return false;
  }
  if (!expect_token(is, "replicate") || !(is >> out.replicate) ||
      out.replicate < 1) {
    return false;
  }
  std::string stats_text;
  if (!expect_token(is, "stats") || !summary::read_str(is, stats_text)) {
    return false;
  }
  std::ostringstream sink;
  if (!summary::parse_stats(stats_text, out.stats, sink)) return false;
  if (!expect_token(is, "shard") || !(is >> out.shard_index) ||
      !(is >> out.shard_count) || out.shard_count < 1 ||
      out.shard_index < 0 || out.shard_index >= out.shard_count) {
    return false;
  }
  std::size_t n_params = 0;
  if (!expect_token(is, "params") || !(is >> n_params) ||
      n_params > (1u << 20)) {
    return false;
  }
  for (std::size_t i = 0; i < n_params; ++i) {
    std::string k, v;
    if (!summary::read_str(is, k) || !summary::read_str(is, v)) return false;
    out.params.emplace_back(std::move(k), std::move(v));
  }
  std::size_t n_axes = 0;
  if (!expect_token(is, "axes") || !(is >> n_axes) || n_axes > 1024) {
    return false;
  }
  for (std::size_t a = 0; a < n_axes; ++a) {
    SweepAxis axis;
    std::size_t n_values = 0;
    if (!summary::read_str(is, axis.key) || !(is >> n_values) ||
        n_values > 1'000'000) {
      return false;
    }
    axis.values.resize(n_values);
    for (auto& v : axis.values) {
      if (!summary::read_str(is, v)) return false;
    }
    out.axes.push_back(std::move(axis));
  }
  err.clear();
  return true;
}

bool SweepManifest::matches(const SweepManifest& other, bool ignore_shard_index,
                            std::string_view what, std::ostream& err) const {
  auto fail = [&](std::string_view field, const std::string& recorded,
                  const std::string& current) {
    err << "error: " << what << " does not match this sweep: " << field
        << " was " << recorded << " when it was written but is " << current
        << " now\n";
    return false;
  };
  if (scenario != other.scenario) {
    return fail("scenario", "'" + scenario + "'", "'" + other.scenario + "'");
  }
  if (axes.size() != other.axes.size()) {
    return fail("sweep grid", std::to_string(axes.size()) + " axes",
                std::to_string(other.axes.size()) + " axes");
  }
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].key != other.axes[a].key) {
      return fail("sweep grid", "axis '" + axes[a].key + "'",
                  "axis '" + other.axes[a].key + "'");
    }
    if (axes[a].values != other.axes[a].values) {
      return fail("sweep grid",
                  "axis '" + axes[a].key + "' with " +
                      std::to_string(axes[a].values.size()) + " value(s)",
                  "an axis with " +
                      std::to_string(other.axes[a].values.size()) +
                      " different value(s)");
    }
  }
  if (replicate != other.replicate) {
    return fail("--replicate", std::to_string(replicate),
                std::to_string(other.replicate));
  }
  if (stats != other.stats) {
    return fail("--stats", stats_spelling(stats),
                stats_spelling(other.stats));
  }
  auto spell = [](const auto& v, const char* unit) {
    return v.has_value() ? std::to_string(*v) + unit : std::string{"unset"};
  };
  if (duration_ns != other.duration_ns) {
    return fail("--duration", spell(duration_ns, "ns"),
                spell(other.duration_ns, "ns"));
  }
  if (seed != other.seed) {
    return fail("--seed", spell(seed, ""), spell(other.seed, ""));
  }
  if (params != other.params) {
    return fail("--set overrides", std::to_string(params.size()) + " keys",
                std::to_string(other.params.size()) + " keys");
  }
  if (shard_count != other.shard_count) {
    return fail("shard count", std::to_string(shard_count),
                std::to_string(other.shard_count));
  }
  if (!ignore_shard_index && shard_index != other.shard_index) {
    return fail("shard index", std::to_string(shard_index),
                std::to_string(other.shard_index));
  }
  return true;
}

bool shard_owns_point(const SweepManifest& m, std::size_t point) {
  return m.owner_of(point) == m.shard_index;
}

void SweepStateFile::save(std::ostream& os) const {
  os << (kind == Kind::kCheckpoint ? kCheckpointMagic : kPartialMagic) << ' '
     << kFormatVersion << '\n';
  if (kind == Kind::kCheckpoint) {
    // Line 2, before the manifest: the poll-cheap liveness header.
    os << "progress " << heartbeat << ' ' << count_set(folded) << ' '
       << owned_task_count(manifest) << '\n';
  }
  manifest.save(os);
  os << "header ";
  summary::write_str(os, header);
  os << '\n';
  if (kind == Kind::kCheckpoint) {
    os << "folded " << folded.size() << ' ' << encode_bitmap(folded) << '\n';
  }
  os << "points " << points.size() << '\n';
  for (const auto& [idx, state] : points) {
    os << "point " << idx << '\n';
    state.save(os);
  }
  os << "end\n";
}

bool SweepStateFile::load(std::istream& is, SweepStateFile& out,
                          std::string& err) {
  out = SweepStateFile{};
  CheckpointProgress claimed;
  if (!read_preamble(is, out.kind, claimed, err)) return false;
  out.heartbeat = claimed.heartbeat;
  if (!SweepManifest::load(is, out.manifest, err)) return false;
  err = "truncated or malformed sweep state";
  if (!expect_token(is, "header") || !summary::read_str(is, out.header)) {
    return false;
  }
  const std::size_t n_tasks = out.manifest.n_tasks();
  if (out.kind == Kind::kCheckpoint) {
    std::size_t n = 0;
    std::string bitmap;
    if (!expect_token(is, "folded") || !(is >> n) || n != n_tasks ||
        !(is >> bitmap) || !decode_bitmap(bitmap, n, out.folded)) {
      return false;
    }
    // The progress header is derived state; a disagreement with the bitmap
    // or manifest marks a hand-edited or corrupt file.
    if (claimed.folded_tasks != count_set(out.folded) ||
        claimed.owned_tasks != owned_task_count(out.manifest)) {
      err = "checkpoint progress header disagrees with the folded bitmap";
      return false;
    }
    // The fold is strictly in task order over the shard's owned tasks, so
    // the bitmap must be a prefix of that sequence: a set bit after a
    // cleared owned bit (or any bit on an unowned task) marks corruption.
    bool gap = false;
    for (std::size_t t = 0; t < n_tasks; ++t) {
      const std::size_t point =
          t / static_cast<std::size_t>(out.manifest.replicate);
      if (!shard_owns_point(out.manifest, point)) {
        if (out.folded[t] != 0) {
          err = "checkpoint marks a task its shard does not own";
          return false;
        }
        continue;
      }
      if (out.folded[t] != 0 && gap) {
        err = "checkpoint bitmap is not a prefix of the fold order";
        return false;
      }
      if (out.folded[t] == 0) gap = true;
    }
  }
  std::size_t n_states = 0;
  if (!expect_token(is, "points") || !(is >> n_states) ||
      n_states > out.manifest.n_points()) {
    return false;
  }
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < n_states; ++i) {
    std::size_t idx = 0;
    if (!expect_token(is, "point") || !(is >> idx) ||
        idx >= out.manifest.n_points() ||
        !shard_owns_point(out.manifest, idx) || !seen.insert(idx).second) {
      return false;
    }
    summary::ColumnSummary state{{}};
    std::string state_err;
    if (!summary::ColumnSummary::load(is, state, state_err)) {
      err = state_err;
      return false;
    }
    out.points.emplace_back(idx, std::move(state));
  }
  if (!expect_token(is, "end")) return false;
  err.clear();
  return true;
}

namespace {

#if defined(__unix__) || defined(__APPLE__)
/// fsyncs one path (a file, or a directory so a just-renamed entry is
/// durable).  Returns false on open/fsync failure.
bool fsync_path(const std::string& path, bool directory) {
  const int flags = directory ? O_RDONLY
#ifdef O_DIRECTORY
                                    | O_DIRECTORY
#endif
                              : O_WRONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

}  // namespace

bool save_state_file_atomic(const SweepStateFile& state,
                            const std::string& path, std::ostream& err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) {
      err << "error: cannot open '" << tmp << "' for writing\n";
      return false;
    }
    state.save(os);
    os.flush();
    if (!os) {
      err << "error: failed writing '" << tmp << "'\n";
      return false;
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // Durability, not just atomicity: without the fsync a machine crash after
  // the rename could expose a zero-length or torn file under the final name
  // (the rename can reach disk before the data does); without the directory
  // fsync the rename itself may be lost, silently reviving a stale
  // checkpoint.  SIGKILL alone never needed this — power loss does.
  if (!fsync_path(tmp, /*directory=*/false)) {
    err << "error: cannot fsync '" << tmp << "'\n";
    return false;
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    err << "error: cannot rename '" << tmp << "' to '" << path << "'\n";
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string{"."} : path.substr(0, slash);
  if (!fsync_path(dir.empty() ? std::string{"/"} : dir, /*directory=*/true)) {
    err << "error: cannot fsync directory of '" << path << "'\n";
    return false;
  }
#endif
  return true;
}

bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err) {
  out = CheckpointProgress{};
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    err = "cannot open '" + path + "'";
    return false;
  }
  SweepStateFile::Kind kind{};
  std::string why = "a shard partial";
  if (!read_preamble(is, kind, out, why) ||
      kind != SweepStateFile::Kind::kCheckpoint) {
    err = "'" + path + "' is not a sweep checkpoint (" + why + ")";
    return false;
  }
  err.clear();
  return true;
}

bool load_state_file(const std::string& path, SweepStateFile& out,
                     std::ostream& err,
                     std::optional<SweepStateFile::Kind> kind) {
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    err << "error: cannot open '" << path << "'\n";
    return false;
  }
  std::string why;
  if (!SweepStateFile::load(is, out, why)) {
    err << "error: cannot load '" << path << "': " << why << '\n';
    return false;
  }
  if (kind.has_value() && out.kind != *kind) {
    err << "error: '" << path
        << (kind == SweepStateFile::Kind::kCheckpoint
                ? "' is a shard partial, not a checkpoint (merge it with "
                  "`tfmcc_sim merge` instead)\n"
                : "' is a sweep checkpoint, not a shard partial (resume it "
                  "with `sweep ... --resume` instead)\n");
    return false;
  }
  return true;
}

int emit_sweep_aggregate(const SweepManifest& manifest,
                         const std::vector<std::vector<std::string>>& grid,
                         const std::vector<summary::ColumnSummary>& per_point,
                         const std::string& header, std::ostream& out,
                         std::ostream& err,
                         const std::vector<char>* skip_points) {
  if (header.empty()) {
    err << "error: no CSV trace found in any sweep point's output\n";
    return 1;
  }
  const std::vector<SweepAxis>& axes = manifest.axes;
  auto skipped = [&](std::size_t i) {
    return skip_points != nullptr && (*skip_points)[i] != 0;
  };

  if (manifest.replicate == 1) {
    // Raw aggregate: every point's rows verbatim, in grid order, with the
    // swept values prepended.
    for (const auto& axis : axes) out << axis.key << ',';
    out << header << '\n';
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (skipped(i)) continue;
      for (const auto& row : per_point[i].rows()) {
        for (const auto& value : grid[i]) out << value << ',';
        out << join(row, [](const std::string& c) -> const std::string& {
          return c;
        }) << '\n';
      }
    }
    return 0;
  }

  // Replicated aggregate: one statistics row per point and label group.
  // The reference header comes from the first point that produced rows;
  // rowless (and skipped) points emit nothing and are exempt from the
  // comparison.
  const summary::ColumnSummary* reference = nullptr;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (skipped(i) || per_point[i].row_count() == 0) continue;
    if (reference == nullptr) {
      reference = &per_point[i];
    } else if (per_point[i].numeric_mask() != reference->numeric_mask()) {
      err << "error: sweep point " << point_label(axes, grid[i])
          << " has a different numeric/label column mix than earlier "
             "points; cannot aggregate\n";
      return 1;
    }
  }
  const std::vector<std::string> expanded =
      (reference != nullptr ? *reference : per_point.front())
          .header(manifest.stats);

  for (const auto& axis : axes) out << axis.key << ',';
  for (const auto& name : expanded) out << name << ',';
  out << "n_rep\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (skipped(i)) continue;
    for (const auto& srow : per_point[i].summarize(manifest.stats)) {
      for (const auto& value : grid[i]) out << value << ',';
      for (const auto& cell : srow) out << cell << ',';
      out << manifest.replicate << '\n';
    }
  }
  return 0;
}

bool parse_merge_cli(int argc, char** argv,
                     std::optional<std::string>& output_path,
                     std::vector<std::string>& part_paths,
                     std::ostream& err) {
  const FlagTable table = {path_flag("--output", output_path)};
  if (!parse_flags(argc, argv, table, err, &part_paths)) return false;
  if (part_paths.empty()) {
    err << "usage: tfmcc_sim merge" << flag_usage(table)
        << " <partial>...\n"
           "Folds the partial-aggregate artifacts written by "
           "`sweep --shard i/n` — all n of them, each exactly once — into "
           "the aggregate CSV the unsharded sweep would have written.\n";
    return false;
  }
  return true;
}

int merge_partials(const std::vector<std::string>& part_paths,
                   const std::optional<std::string>& output_path,
                   std::ostream& err) {
  std::vector<SweepStateFile> parts(part_paths.size());
  for (std::size_t i = 0; i < part_paths.size(); ++i) {
    if (!load_state_file(part_paths[i], parts[i], err,
                         SweepStateFile::Kind::kPartial)) {
      return 2;
    }
  }
  const SweepManifest& ref = parts.front().manifest;
  if (parts.size() != static_cast<std::size_t>(ref.shard_count)) {
    err << "error: sweep was sharded " << ref.shard_count << " ways but "
        << parts.size() << " partial(s) were given\n";
    return 2;
  }
  std::set<int> shards_seen;
  std::string header;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].manifest.matches(ref, /*ignore_shard_index=*/true,
                                   "partial '" + part_paths[i] + "'", err)) {
      return 2;
    }
    if (!shards_seen.insert(parts[i].manifest.shard_index).second) {
      err << "error: shard " << parts[i].manifest.shard_index << "/"
          << ref.shard_count << " appears more than once\n";
      return 2;
    }
    if (!parts[i].header.empty()) {
      if (header.empty()) {
        header = parts[i].header;
      } else if (parts[i].header != header) {
        err << "error: partial '" << part_paths[i]
            << "' recorded CSV header '" << parts[i].header
            << "' but earlier partials recorded '" << header << "'\n";
        return 2;
      }
    }
  }

  const auto grid = expand_grid(ref.axes);
  const std::vector<std::string> columns = summary::split_csv(header);
  std::vector<summary::ColumnSummary> per_point(
      grid.size(), summary::ColumnSummary{columns});
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (auto& [idx, state] : parts[i].points) {
      if (state.columns() != columns) {
        err << "error: partial '" << part_paths[i]
            << "' point state disagrees with the recorded CSV header\n";
        return 2;
      }
      // Each point is inside the grid and has exactly one owner (both
      // validated at load), so this move installs the accumulator bitwise
      // as the owning shard folded it.
      per_point[idx] = std::move(state);
    }
  }

  return write_output(output_path, err, [&](std::ostream& out) {
    return emit_sweep_aggregate(ref, grid, per_point, header, out, err);
  });
}

int merge_main(int argc, char** argv, std::ostream& err) {
  std::optional<std::string> output_path;
  std::vector<std::string> part_paths;
  if (!parse_merge_cli(argc, argv, output_path, part_paths, err)) return 2;
  return merge_partials(part_paths, output_path, err);
}

}  // namespace tfmcc
