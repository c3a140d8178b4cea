// emmbench: one end-to-end benchmark of the emmap compiler and its daemon.
//
//   emmbench --workload=cold_mix|daemon_repeat|daemon_new_sizes
//            --seed=N --seconds=S --trace=0|1 --emmapcd=PATH --work-dir=DIR
//            [--plant-wrong-artifact]
//
// Normally launched through run.py, which builds it. Prints a report to
// stderr and, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace=0, the per-layer metrics with --trace=1. Exits 1 when any op
// failed or any check did not hold, 2 on bad arguments.
//
// An untraced run is split into rounds, each in a forked process of its own
// with its own set-up (and daemon) and a share of the seconds. Pooling
// rounds averages over where each process's memory and threads landed on a
// shared machine, which alone moves a single process's speed by 10-30%.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench.h"
#include "support/cli.h"
#include "support/fingerprint.h"

namespace emmbench {

namespace {

constexpr int kHashedRequests = 1000;
constexpr i64 kPrintedFailures = 20;
constexpr int kRounds = 5;

constexpr const char* kUsage =
    "usage: emmbench --workload=cold_mix|daemon_repeat|daemon_new_sizes\n"
    "                --seed=N --seconds=S --trace=0|1 --emmapcd=PATH --work-dir=DIR\n"
    "                [--plant-wrong-artifact]\n";

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    failCheck("metric " + name + " is not finite");
    value = 0;
  }
  std::fprintf(stderr, "  %-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  if (++failed_ <= kPrintedFailures) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::failCheck(const std::string& why) {
  ++failedChecks_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Report::note(const std::string& text) { std::fprintf(stderr, "  %s\n", text.c_str()); }

void Report::absorb(i64 attempted, i64 failed, i64 failedChecks) {
  attempted_ += attempted;
  failed_ += failed;
  failedChecks_ += failedChecks;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

namespace {

/// Round `i` of a run draws its own stream.
u64 roundSeed(u64 seed, int round) {
  return emm::testgen::mixSeed(seed, static_cast<u64>(round) + 100);
}

/// Binds the calling process, and the emmapcd it will spawn, to one core:
/// the highest-numbered core it may run on, the same for every round. One
/// request is in flight at a time, so a round never needs more than one
/// core; on one core a hand-off between the client, the daemon's connection
/// thread and a pool worker is a context switch rather than the wake-up of
/// another virtual CPU, whose delay on a shared host depends on the
/// neighbours. The machine-speed probe runs on the same core.
void pinToOneCpu() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

void runRound(const RunConfig& cfg, Report& report, RoundRecord& record) {
  if (cfg.workload == "cold_mix")
    runColdMix(cfg, report, record);
  else
    runDaemon(cfg, report, record);
}

/// Runs one round in a forked child, which sends its record and counts
/// back as text lines over a pipe.
void forkRound(const RunConfig& cfg, Report& report, std::vector<RoundRecord>& rounds) {
  int fds[2];
  if (::pipe(fds) != 0) {
    report.failCheck("cannot create a pipe for a round");
    return;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    pinToOneCpu();
    ::close(fds[0]);
    Report mine;
    RoundRecord rec;
    int status = 0;
    try {
      runRound(cfg, mine, rec);
    } catch (const std::exception& e) {
      mine.failCheck(e.what());
      status = 1;
    }
    std::string out;
    char line[160];
    for (const auto& [kind, ms] : rec.ops) {
      std::snprintf(line, sizeof line, "op %s %.17g\n", kind.c_str(), ms);
      out += line;
    }
    for (double ms : rec.probeMs) {
      std::snprintf(line, sizeof line, "probe %.17g\n", ms);
      out += line;
    }
    std::snprintf(line, sizeof line, "round %.17g %.17g %.17g %.17g %lld\n", rec.wallS,
                  rec.setupS, rec.rssMb, rec.artifactBytes,
                  static_cast<long long>(rec.artifactOps));
    out += line;
    std::snprintf(line, sizeof line, "counts %lld %lld %lld\n",
                  static_cast<long long>(mine.attempted()), static_cast<long long>(mine.failed()),
                  static_cast<long long>(mine.failedChecks()));
    out += line;
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0 && errno != EINTR) break;
      if (n > 0) done += static_cast<size_t>(n);
    }
    std::fflush(stderr);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string in;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) in.append(buf, static_cast<size_t>(n));
    else if (errno != EINTR) break;
  }
  ::close(fds[0]);
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    report.failCheck("round process ended abnormally (status " + std::to_string(status) + ")");

  RoundRecord rec;
  bool complete = false;
  std::istringstream lines(in);
  for (std::string tag; lines >> tag;) {
    if (tag == "op") {
      std::string kind;
      double ms = 0;
      lines >> kind >> ms;
      rec.ops.emplace_back(kind, ms);
    } else if (tag == "probe") {
      double ms = 0;
      lines >> ms;
      rec.probeMs.push_back(ms);
    } else if (tag == "round") {
      lines >> rec.wallS >> rec.setupS >> rec.rssMb >> rec.artifactBytes >> rec.artifactOps;
    } else if (tag == "counts") {
      i64 attempted = 0, failed = 0, failedChecks = 0;
      lines >> attempted >> failed >> failedChecks;
      report.absorb(attempted, failed, failedChecks);
      complete = static_cast<bool>(lines);
    }
  }
  if (!complete) report.failCheck("a round reported no result");
  rounds.push_back(std::move(rec));
}

}  // namespace

}  // namespace emmbench

int main(int argc, char** argv) {
  using namespace emmbench;
  emm::cli::Args args(argc, argv);
  RunConfig cfg;
  cfg.workload = args.str("workload");
  cfg.seed = static_cast<u64>(args.integer("seed", 1));
  const std::string seconds = args.str("seconds", "10");
  char* end = nullptr;
  cfg.seconds = std::strtod(seconds.c_str(), &end);
  if (end == seconds.c_str() || *end != '\0') cfg.seconds = 0;
  cfg.trace = args.integer("trace", 0) != 0;
  cfg.emmapcd = args.str("emmapcd");
  cfg.workDir = args.str("work-dir", ".bench_build");
  cfg.plantWrongArtifact = args.flag("plant-wrong-artifact");
  cfg.tracePath = cfg.workDir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
  if (!args.validate(kUsage)) return 2;
  const bool daemon = cfg.workload == "daemon_repeat" || cfg.workload == "daemon_new_sizes";
  if ((!daemon && cfg.workload != "cold_mix") ||
      !(cfg.seconds > 0) || (daemon && cfg.emmapcd.empty()) ||
      (cfg.plantWrongArtifact && cfg.workload != "daemon_repeat")) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  std::fprintf(stderr, "emmbench %s seed %llu, %.1f s, tracing %s\n", cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed), cfg.seconds,
               cfg.trace ? "on" : "off");
  Report report;
  try {
    const int rounds = cfg.trace ? 1 : kRounds;
    emm::Hasher streams;
    for (int i = 0; i < rounds; ++i)
      streams.mix(Stream::prefixHash(cfg.workload, roundSeed(cfg.seed, i), kHashedRequests));
    std::fprintf(stderr, "  stream hash %016llx (first %d requests of %d round%s)\n",
                 static_cast<unsigned long long>(streams.digest()), kHashedRequests, rounds,
                 rounds == 1 ? "" : "s");
    if (cfg.trace) {
      RunConfig round = cfg;
      round.seed = roundSeed(cfg.seed, 0);
      RoundRecord unused;
      pinToOneCpu();  // as an untraced round is
      runRound(round, report, unused);
    } else {
      std::vector<RoundRecord> records;
      for (int i = 0; i < rounds; ++i) {
        RunConfig round = cfg;
        round.seed = roundSeed(cfg.seed, i);
        round.seconds = cfg.seconds / rounds;
        forkRound(round, report, records);
      }
      // The tail percentile is fixed per workload. daemon_new_sizes uses
      // p99, which falls inside its 5% of out-of-envelope compiles;
      // daemon_repeat uses p95, inside its me cluster: its p99 doubled
      // whenever a neighbour kept the shared machine busy. cold_mix uses
      // p90, inside its jacobi2d cluster.
      const double tailQ = cfg.workload == "daemon_new_sizes" ? 0.99
                           : cfg.workload == "daemon_repeat"  ? 0.95
                                                              : 0.90;
      reportEndToEnd(report, records, tailQ);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emmbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "  fail_ratio %lld / %lld\n", static_cast<long long>(report.failed()),
               static_cast<long long>(report.attempted()));
  if (report.attempted() < 1) report.failCheck("no op was attempted");
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
