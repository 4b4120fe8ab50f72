// sparts_launch — cohort launcher for the process backend.
//
//   sparts_launch --procs 4 -- sparts_solve --grid2d 12 --backend proc
//   sparts_launch --procs 4 --kill 1@0.5 -- sparts_solve ... (crash test)
//
// Forks one OS process per rank, appends the --backend proc wiring
// (--procs, --proc-rank, --proc-rendezvous pointing at a fresh mkdtemp
// directory) to the command after `--`, and supervises the cohort:
//
//   * "{rank}" in any command argument is replaced by the rank number, so
//     per-rank trace/flight/metrics paths work: --flight fl-{rank}.json.
//   * rank 0 inherits the launcher's stdout/stderr; every other rank is
//     redirected to <logdir>/rank-R.log (default: the rendezvous dir).
//     The launcher creates the log directory and its parents and opens
//     every rank log before it starts any rank; a log it cannot open
//     fails the launch (exit 1) with a message naming the path.
//   * the rendezvous dir is removed when the launcher exits, unless it
//     holds the rank logs (no --logdir) of a cohort in which a rank
//     failed; then its path is printed.
//   * on the first nonzero exit, the survivors get a grace window
//     (--grace, default 10 s) to finish their own structured abort —
//     a failure-detection cohort *should* exit 3 by itself — and are
//     SIGKILLed only if they overstay it.
//   * --kill R@SEC injects a SIGKILL of rank R after SEC seconds, for
//     crash-semantics tests (prefer SPARTS_TEST_KILL for a frame-exact
//     kill point inside a phase).
//   * --timeout SEC (default 300) bounds the whole run: on expiry every
//     child is SIGKILLed and the launcher exits 124 — a chaos leg can
//     fail, but it can never hang CI.
//
// Exit code: 0 when every rank (other than one taken down by --kill)
// exits 0; otherwise the first failing rank's code.  A rank that died by
// signal counts as 128+signo, mirroring the shell convention.  Per-rank
// codes are always printed so tests can assert on individual ranks.
//
// Processes, not threads, on purpose: each rank must be its own OS
// process with its own address space — that isolation is the point of the
// backend (and the raw-thread lint rule confines std::thread to
// src/exec).
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace {

void usage() {
  std::cout <<
      R"(sparts_launch — fork and supervise a --backend proc cohort

  sparts_launch --procs P [options] -- COMMAND [ARGS...]

The launcher appends to COMMAND, per rank R:
  --backend proc --procs P --proc-rank R --proc-rendezvous <tmpdir>
(or --proc-rankfile FILE when --rankfile is given).  "{rank}" inside any
ARG is replaced by R.

options:
  --procs P        cohort size (required)
  --rankfile FILE  use a RANK HOST:PORT rank file instead of a rendezvous
                   directory (multi-machine cohorts; this launcher still
                   only forks the local ranks listed for this machine)
  --logdir DIR     where rank-R.log files go, created with its parents
                   (default: rendezvous dir, removed on exit unless a
                   rank failed)
  --kill R@SEC     SIGKILL rank R after SEC seconds (crash tests)
  --grace SEC      grace window after the first failure before the
                   survivors are SIGKILLed (default 10)
  --timeout SEC    hard wall-clock bound on the whole run; on expiry the
                   cohort is SIGKILLed and the launcher exits 124
                   (default 300)
  --help           this text
)";
}

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

long long parse_ll(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size()) {
    std::cerr << "sparts_launch: " << flag << " expects an integer, got '"
              << value << "'\n";
    std::exit(2);
  }
  return v;
}

double parse_double(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size()) {
    std::cerr << "sparts_launch: " << flag << " expects a number, got '"
              << value << "'\n";
    std::exit(2);
  }
  return v;
}

std::string substitute_rank(std::string arg, int rank) {
  const std::string token = "{rank}";
  std::size_t pos = 0;
  while ((pos = arg.find(token, pos)) != std::string::npos) {
    const std::string r = std::to_string(rank);
    arg.replace(pos, token.size(), r);
    pos += r.size();
  }
  return arg;
}

}  // namespace

int main(int argc, char** argv) {
  int procs = 0;
  std::string rankfile;
  std::string logdir;
  int kill_rank = -1;
  double kill_after = 0.0;
  double grace = 10.0;
  double timeout = 300.0;
  int cmd_start = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "sparts_launch: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--procs") {
      procs = static_cast<int>(parse_ll(arg, next()));
    } else if (arg == "--rankfile") {
      rankfile = next();
    } else if (arg == "--logdir") {
      logdir = next();
    } else if (arg == "--kill") {
      const std::string v = next();
      const std::size_t at = v.find('@');
      if (at == std::string::npos) {
        std::cerr << "sparts_launch: --kill expects R@SEC, got '" << v << "'\n";
        return 2;
      }
      kill_rank = static_cast<int>(parse_ll(arg, v.substr(0, at)));
      kill_after = parse_double(arg, v.substr(at + 1));
    } else if (arg == "--grace") {
      grace = parse_double(arg, next());
    } else if (arg == "--timeout") {
      timeout = parse_double(arg, next());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--") {
      cmd_start = i + 1;
      break;
    } else {
      std::cerr << "sparts_launch: unknown argument " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (procs <= 0 || cmd_start < 0 || cmd_start >= argc) {
    std::cerr << "sparts_launch: need --procs P and a command after --\n";
    usage();
    return 2;
  }
  if (kill_rank >= procs) {
    std::cerr << "sparts_launch: --kill rank " << kill_rank
              << " out of range for --procs " << procs << "\n";
    return 2;
  }

  // Fresh rendezvous directory per run: each rank publishes its ephemeral
  // port here, and stale endpoint files from a previous cohort can never
  // cross-connect into this one.
  char rendezvous[] = "/tmp/sparts_launch.XXXXXX";
  if (mkdtemp(rendezvous) == nullptr) {
    std::cerr << "sparts_launch: mkdtemp failed: " << std::strerror(errno)
              << "\n";
    return 1;
  }
  if (logdir.empty()) logdir = rendezvous;
  std::cerr << "sparts_launch: " << procs << " ranks, rendezvous "
            << rendezvous << ", logs " << logdir << "\n";
  // The rendezvous directory is this cohort's alone: remove it on exit,
  // unless it holds the rank logs of a cohort in which a rank failed.
  auto finish = [&](int exit_code, bool rank_failed) {
    if (rank_failed && logdir == rendezvous) {
      std::cerr << "sparts_launch: rank logs kept in " << rendezvous << "\n";
    } else {
      std::error_code ignored;
      std::filesystem::remove_all(rendezvous, ignored);
    }
    return exit_code;
  };

  // Open every rank log before any rank starts: a rank whose log cannot
  // be opened would otherwise write into the launcher's own output.
  std::error_code dir_error;
  std::filesystem::create_directories(logdir, dir_error);
  if (dir_error) {
    std::cerr << "sparts_launch: cannot create log directory " << logdir
              << ": " << dir_error.message() << "\n";
    return finish(1, false);
  }
  std::vector<int> log_fd(static_cast<std::size_t>(procs), -1);
  auto close_logs = [&] {
    for (const int fd : log_fd) {
      if (fd >= 0) close(fd);
    }
  };
  for (int rank = 1; rank < procs; ++rank) {
    const std::string log = logdir + "/rank-" + std::to_string(rank) + ".log";
    const int fd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      std::cerr << "sparts_launch: cannot open rank log " << log << ": "
                << std::strerror(errno) << "\n";
      close_logs();
      return finish(1, false);
    }
    log_fd[static_cast<std::size_t>(rank)] = fd;
  }

  std::vector<pid_t> pid(static_cast<std::size_t>(procs), -1);
  std::vector<int> code(static_cast<std::size_t>(procs), -1);  // -1: running

  for (int rank = 0; rank < procs; ++rank) {
    std::vector<std::string> args;
    for (int i = cmd_start; i < argc; ++i) {
      args.push_back(substitute_rank(argv[i], rank));
    }
    args.push_back("--backend");
    args.push_back("proc");
    args.push_back("--procs");
    args.push_back(std::to_string(procs));
    args.push_back("--proc-rank");
    args.push_back(std::to_string(rank));
    if (rankfile.empty()) {
      args.push_back("--proc-rendezvous");
      args.push_back(rendezvous);
    } else {
      args.push_back("--proc-rankfile");
      args.push_back(rankfile);
    }

    const pid_t child = fork();
    if (child < 0) {
      std::cerr << "sparts_launch: fork failed: " << std::strerror(errno)
                << "\n";
      for (int r = 0; r < rank; ++r) kill(pid[static_cast<std::size_t>(r)], SIGKILL);
      close_logs();
      return finish(1, false);
    }
    if (child == 0) {
      if (rank != 0) {
        // The duplicates lose O_CLOEXEC; every other log closes on exec.
        const int fd = log_fd[static_cast<std::size_t>(rank)];
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
      }
      std::vector<char*> cargv;
      cargv.reserve(args.size() + 1);
      for (std::string& a : args) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      execvp(cargv[0], cargv.data());
      // Only reached when exec itself failed.
      std::cerr << "sparts_launch: exec " << args[0]
                << " failed: " << std::strerror(errno) << "\n";
      _exit(127);
    }
    pid[static_cast<std::size_t>(rank)] = child;
  }
  close_logs();

  const double start = now_seconds();
  double first_failure_at = -1.0;
  bool kill_fired = false;
  bool cohort_killed = false;
  bool timed_out = false;
  int running = procs;

  auto kill_all = [&](const char* why) {
    if (cohort_killed) return;
    cohort_killed = true;
    std::cerr << "sparts_launch: killing remaining ranks (" << why << ")\n";
    for (int r = 0; r < procs; ++r) {
      if (code[static_cast<std::size_t>(r)] < 0) {
        kill(pid[static_cast<std::size_t>(r)], SIGKILL);
      }
    }
  };

  while (running > 0) {
    int status = 0;
    const pid_t done = waitpid(-1, &status, WNOHANG);
    if (done > 0) {
      for (int r = 0; r < procs; ++r) {
        if (pid[static_cast<std::size_t>(r)] != done) continue;
        int c = 0;
        if (WIFEXITED(status)) {
          c = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          c = 128 + WTERMSIG(status);
        }
        code[static_cast<std::size_t>(r)] = c;
        --running;
        std::cerr << "sparts_launch: rank " << r << " exited " << c << "\n";
        const bool injected = r == kill_rank && c > 128;
        if (c != 0 && !injected && first_failure_at < 0.0) {
          first_failure_at = now_seconds();
        }
        break;
      }
      continue;  // reap any further already-dead children without sleeping
    }
    const double t = now_seconds() - start;
    if (kill_rank >= 0 && !kill_fired && t >= kill_after) {
      kill_fired = true;
      if (code[static_cast<std::size_t>(kill_rank)] < 0) {
        std::cerr << "sparts_launch: injecting SIGKILL into rank "
                  << kill_rank << " at t=" << t << "s\n";
        kill(pid[static_cast<std::size_t>(kill_rank)], SIGKILL);
      }
    }
    if (first_failure_at >= 0.0 && now_seconds() - first_failure_at > grace) {
      kill_all("grace window after first failure expired");
      first_failure_at = -1.0;  // only announce once; keep reaping
    }
    if (t > timeout) {
      timed_out = true;
      kill_all("timeout");
      timeout = 1e30;
    }
    timespec nap{0, 10 * 1000 * 1000};  // 10 ms
    nanosleep(&nap, nullptr);
  }

  const bool rank_failed =
      std::any_of(code.begin(), code.end(), [](int c) { return c != 0; });
  if (timed_out) {
    std::cerr << "sparts_launch: TIMEOUT after " << now_seconds() - start
              << "s\n";
    return finish(124, rank_failed);
  }
  int aggregate = 0;
  for (int r = 0; r < procs; ++r) {
    const int c = code[static_cast<std::size_t>(r)];
    const bool injected = r == kill_rank && c > 128;
    if (c != 0 && !injected && aggregate == 0) aggregate = c;
  }
  std::cerr << "sparts_launch: cohort done, aggregate exit " << aggregate
            << "\n";
  return finish(aggregate, rank_failed);
}
