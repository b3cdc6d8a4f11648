#include "sim/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "sim/sweep_state.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace tfmcc {

double campaign_backoff_seconds(int relaunch, double base_s, double max_s) {
  if (relaunch < 0) relaunch = 0;
  // ldexp with a clamped exponent: 2^60 * any sane base is already far
  // past any sane cap, and never overflows.
  const double wait = std::ldexp(base_s, std::min(relaunch, 60));
  return std::min(wait, max_s);
}

std::string self_executable_path() {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
#else
  return {};
#endif
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Set by the SIGTERM/SIGINT handler; the supervisor loop polls it,
/// forwards SIGTERM to the children (which flush a final checkpoint), and
/// exits with every shard resumable.
volatile std::sig_atomic_t g_campaign_signal = 0;

void campaign_signal_handler(int sig) { g_campaign_signal = sig; }

using Clock = std::chrono::steady_clock;

struct ShardProc {
  enum class State { kPending, kBackoff, kRunning, kDone, kFailed };
  int index{0};
  State state{State::kPending};
  pid_t pid{-1};
  /// Launches that did not finish cleanly (crashes + killed stragglers).
  int relaunches{0};
  Clock::time_point next_launch{};   // meaningful in kBackoff
  Clock::time_point last_advance{};  // meaningful in kRunning
  /// The last progress header observed from this launch.
  std::optional<CheckpointProgress> progress{};
  std::string ckpt_path;
  std::string part_path;
  std::string log_path;
};

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

bool file_exists(const std::string& path) {
  return access(path.c_str(), F_OK) == 0;
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", s);
  return buf;
}

}  // namespace

int run_campaign(const Scenario& scenario, const CampaignOptions& opts,
                 std::ostream& err) {
  // Plan the sweep exactly as every shard will: a bad grid must be one
  // clean diagnostic here, not N children crash-looping through their
  // retry budgets.  The plan also names each point's owning shard.
  SweepOptions shard_sweep = opts.sweep;
  shard_sweep.shard_count = opts.shards;
  shard_sweep.checkpoint_every = opts.checkpoint_every;
  SweepPlan plan;
  if (!plan_sweep(scenario, shard_sweep, plan, err)) return 2;

  std::string exec_path =
      opts.exec_path.empty() ? self_executable_path() : opts.exec_path;
  if (exec_path.empty()) {
    err << "error: cannot resolve the running executable's path; pass "
           "--exec <path>\n";
    return 2;
  }
  if (access(exec_path.c_str(), X_OK) != 0) {
    err << "error: shard executable '" << exec_path
        << "' is missing or not executable\n";
    return 2;
  }
  const std::string dir =
      opts.dir.empty() ? "campaign-" + scenario.name : opts.dir;
  if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    err << "error: cannot create campaign directory '" << dir
        << "': " << std::strerror(errno) << '\n';
    return 2;
  }

  std::vector<ShardProc> shards;
  for (int i = 0; i < opts.shards; ++i) {
    const std::string stem = dir + "/shard-" + std::to_string(i);
    shards.push_back({.index = i,
                      .ckpt_path = stem + ".ckpt",
                      .part_path = stem + ".part",
                      .log_path = stem + ".log"});
  }

  auto shard_failed = [&](ShardProc& s, const std::string& why,
                          bool retryable) {
    s.pid = -1;
    s.progress.reset();
    ++s.relaunches;
    if (!retryable || s.relaunches > opts.max_retries) {
      s.state = ShardProc::State::kFailed;
      err << "error: campaign: shard " << s.index << " " << why
          << (retryable ? "; retry cap (" + std::to_string(opts.max_retries) +
                              ") exhausted\n"
                        : "; not retryable\n");
      return;
    }
    const double wait = campaign_backoff_seconds(
        s.relaunches - 1, opts.backoff_base_s, opts.backoff_max_s);
    s.state = ShardProc::State::kBackoff;
    s.next_launch =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(wait));
    err << "campaign: shard " << s.index << " " << why << "; relaunching in "
        << format_seconds(wait) << "s (retry " << s.relaunches << "/"
        << opts.max_retries << ")\n";
  };

  auto launch = [&](ShardProc& s) {
    const bool resuming = file_exists(s.ckpt_path);
    std::vector<std::string> args = {exec_path, "sweep", scenario.name};
    args.insert(args.end(), opts.child_args.begin(), opts.child_args.end());
    args.insert(args.end(),
                {"--shard",
                 std::to_string(s.index) + "/" + std::to_string(opts.shards),
                 "--jobs", std::to_string(opts.jobs), "--checkpoint",
                 s.ckpt_path, "--checkpoint-every",
                 std::to_string(opts.checkpoint_every), "--output",
                 s.part_path});
    if (resuming) args.insert(args.end(), {"--resume", s.ckpt_path});
    // argv built before fork: the child only touches async-signal-safe
    // calls (open/dup2/execv/_exit) between fork and exec.
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      shard_failed(s, std::string("fork failed: ") + std::strerror(errno),
                   true);
      return;
    }
    if (pid == 0) {
      const int fd =
          open(s.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) close(fd);
      }
      execv(exec_path.c_str(), argv.data());
      _exit(127);
    }
    s.pid = pid;
    s.state = ShardProc::State::kRunning;
    s.last_advance = Clock::now();
    err << "campaign: shard " << s.index << " launched (attempt "
        << (s.relaunches + 1) << (resuming ? ", resuming from checkpoint)"
                                           : ")")
        << '\n';
  };

  g_campaign_signal = 0;
  const ScopedStopSignals signals{campaign_signal_handler};
  const auto poll = std::chrono::duration<double>(opts.poll_interval_s);
  while (g_campaign_signal == 0) {
    bool all_settled = true;
    const auto now = Clock::now();
    for (auto& s : shards) {
      if (s.state == ShardProc::State::kDone ||
          s.state == ShardProc::State::kFailed) {
        continue;
      }
      all_settled = false;
      if (s.state != ShardProc::State::kRunning) {
        if (s.state == ShardProc::State::kPending || now >= s.next_launch) {
          launch(s);
        }
        continue;
      }
      int status = 0;
      if (waitpid(s.pid, &status, WNOHANG) == s.pid) {
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          if (!file_exists(s.part_path)) {
            shard_failed(s, "exited cleanly without writing its partial",
                         true);
          } else {
            s.pid = -1;
            s.state = ShardProc::State::kDone;
            err << "campaign: shard " << s.index << " complete\n";
          }
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
          // run_sweep reserves 2 for configuration/usage errors; a
          // relaunch re-runs the identical command line and cannot
          // succeed where this one failed.
          shard_failed(s, describe_exit(status) + " (see " + s.log_path +
                              "; configuration error)",
                       false);
        } else {
          shard_failed(s, describe_exit(status), true);
        }
        continue;
      }
      // Still running: poll the checkpoint's progress header.  Any
      // heartbeat or fold-frontier change counts as advance.
      CheckpointProgress p;
      std::string perr;
      if (read_checkpoint_progress(s.ckpt_path, p, perr) &&
          (!s.progress || p.heartbeat != s.progress->heartbeat ||
           p.folded_tasks != s.progress->folded_tasks)) {
        s.progress = p;
        s.last_advance = now;
      }
      const double idle =
          std::chrono::duration<double>(now - s.last_advance).count();
      if (idle > opts.stall_timeout_s) {
        kill(s.pid, SIGKILL);
        waitpid(s.pid, &status, 0);
        shard_failed(s,
                     "stalled (no checkpoint progress for " +
                         format_seconds(idle) + "s); killed",
                     true);
      }
    }
    if (all_settled) break;
    std::this_thread::sleep_for(poll);
  }

  if (g_campaign_signal != 0) {
    // Propagate a graceful stop: the children trap SIGTERM while
    // checkpointing and flush a final checkpoint before exiting.
    for (auto& s : shards) {
      if (s.state == ShardProc::State::kRunning && s.pid > 0) {
        kill(s.pid, SIGTERM);
      }
    }
    for (auto& s : shards) {
      if (s.state == ShardProc::State::kRunning && s.pid > 0) {
        waitpid(s.pid, nullptr, 0);
      }
    }
    err << "campaign: interrupted; shard checkpoints preserved in '" << dir
        << "' — rerun the same campaign command to resume\n";
    return 1;
  }

  if (std::any_of(shards.begin(), shards.end(), [](const ShardProc& s) {
        return s.state == ShardProc::State::kFailed;
      })) {
    err << "error: campaign: shard(s)";
    for (const auto& s : shards) {
      if (s.state == ShardProc::State::kFailed) err << ' ' << s.index;
    }
    err << " failed permanently; missing grid points:\n";
    for (std::size_t p = 0; p < plan.grid.size(); ++p) {
      if (shards[static_cast<std::size_t>(plan.manifest.owner_of(p))].state ==
          ShardProc::State::kFailed) {
        err << "  " << point_label(opts.sweep.axes, plan.grid[p]) << '\n';
      }
    }
    err << "surviving partials and checkpoints preserved in '" << dir
        << "'\n";
    return 2;
  }

  err << "campaign: all " << opts.shards << " shards complete; merging\n";
  std::vector<std::string> parts;
  for (const auto& s : shards) parts.push_back(s.part_path);
  if (merge_partials(parts, opts.output_path, err) != 0) {
    err << "error: campaign: merge failed; partials preserved in '" << dir
        << "'\n";
    return 2;
  }
  return 0;
}

#else  // !POSIX

int run_campaign(const Scenario&, const CampaignOptions&, std::ostream& err) {
  err << "error: `tfmcc_sim campaign` requires a POSIX platform "
         "(fork/exec supervision)\n";
  return 2;
}

#endif

const Scenario* parse_campaign_cli(int argc, char** argv,
                                   CampaignOptions& opts, std::ostream& err) {
  FlagTable flags = {
      int_flag("--shards", opts.shards, 2, 512),
      int_flag("--jobs", opts.jobs, 1, 1024),
      path_flag("--dir", opts.dir, "a directory path"),
      seconds_flag("--stall-timeout", opts.stall_timeout_s),
      int_flag("--max-retries", opts.max_retries, 0, 1000),
      seconds_flag("--backoff-base", opts.backoff_base_s),
      seconds_flag("--backoff-max", opts.backoff_max_s),
      seconds_flag("--poll-interval", opts.poll_interval_s),
      path_flag("--exec", opts.exec_path),
      int_flag("--checkpoint-every", opts.checkpoint_every, 1, 1'000'000),
  };
  // The supervisor passes these to each shard itself.
  for (const char* managed : {"--shard", "--checkpoint", "--resume",
                              "--progress", "--max-point-failures"}) {
    flags.push_back({managed, "",
                     "is managed per shard by the campaign supervisor",
                     nullptr});
  }
  const Scenario* scenario = parse_sweep_command(
      "campaign", argc, argv, std::move(flags), opts.sweep, &opts.child_args,
      err);
  // `--output` names the merged CSV; it is not forwarded to the shards.
  opts.output_path = opts.sweep.base.output_path;
  return scenario;
}

int campaign_main(int argc, char** argv, std::ostream& err) {
  CampaignOptions opts;
  const Scenario* scenario = parse_campaign_cli(argc, argv, opts, err);
  return scenario == nullptr ? 2 : run_campaign(*scenario, opts, err);
}

}  // namespace tfmcc
