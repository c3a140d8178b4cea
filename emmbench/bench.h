// Shared declarations of the end-to-end benchmark driver (see NOTES.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "driver/compiler.h"
#include "testgen/rng.h"

namespace emmbench {

using emm::i64;
using u64 = std::uint64_t;
using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- seeded request streams (stream.cpp) ---------------------------------

/// One op of a workload: a built-in kernel at a full problem-size binding,
/// rendered for one backend.
struct Request {
  i64 id = 0;
  std::string kernel;      ///< buildKernelByName name
  std::string backend;     ///< "cuda" or "cell"
  std::vector<i64> sizes;  ///< full parameter binding (empty for figure1)
  bool outOfEnvelope = false;  ///< daemon_new_sizes: drawn outside the bind envelope
};

/// The deterministic op sequence of one workload: the same (workload, seed)
/// yields the same requests in the same order. Not thread-safe.
class Stream {
public:
  Stream(std::string workload, u64 seed);
  Request next();
  /// Fingerprint of the first `count` requests of this (workload, seed).
  static u64 prefixHash(const std::string& workload, u64 seed, int count);

private:
  void refillBlock();
  std::vector<i64> freshSizes(const std::string& kernel, bool outOfEnvelope);

  std::string workload_;
  emm::testgen::Rng rng_;
  std::vector<Request> block_;  ///< current shuffled block, consumed from the back
  std::set<std::pair<std::string, std::vector<i64>>> seen_;
  std::vector<Request> keys_;  ///< warmSet(workload): the keys repeat draws reuse
  i64 nextId_ = 0;
};

/// The keys a workload compiles in set-up: the ten kernel x backend keys at
/// default sizes for cold_mix and daemon_repeat (in daemon_repeat
/// popularity order), one per size family for daemon_new_sizes.
std::vector<Request> warmSet(const std::string& workload);

/// Configures `c` exactly as `emmapc --kernel=K --emit=BACKEND` would.
void configureCompiler(emm::Compiler& c, const Request& r);

// ---- spans (trace.cpp) ---------------------------------------------------

/// One timed interval. Names point at string literals or at the static
/// pass registry, so they outlive the run.
struct Span {
  const char* name = "";
  i64 startNs = 0;
  i64 endNs = 0;
  int parent = -1;  ///< index into the same thread's span list, -1 for a root
  i64 request = -1;
};

/// Per-thread span recorder. Spans stay in memory until the run ends.
class Tracer {
public:
  explicit Tracer(int tid) : tid_(tid) {}
  int begin(const char* name, i64 request);
  void end(int index);
  void rename(int index, const char* name) { spans_[index].name = name; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
public:
  ScopedSpan(Tracer* tracer, const char* name, i64 request = -1)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  /// Renames the span once its outcome is known.
  void rename(const char* name) {
    if (tracer_ != nullptr) tracer_->rename(index_, name);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer* tracer_;
  int index_;
};

/// Sum and count of the spans with one name.
struct SpanTotal {
  i64 count = 0;
  double ms = 0;
};

/// Totals by span name over all tracers.
std::map<std::string, SpanTotal> spanTotals(const std::vector<const Tracer*>& tracers);

/// Share of the wall time of roots named `root` covered by their leaf
/// descendants (spans with no children), or 0 without such roots.
double leafCoverage(const std::vector<const Tracer*>& tracers, std::string_view root);

/// Writes every span as a Chrome trace-event JSON file ("X" events).
bool writeChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers);

/// Replaces every standard pass of `c` with a wrapper that records a span
/// named after the pass around the original implementation.
void tracePasses(emm::Compiler& c, Tracer* tracer);

// ---- the emmapcd child process (daemon.cpp) ------------------------------

/// VmHWM (peak resident set) from a /proc/<pid>/status file, in MB; 0 when
/// the file cannot be read.
double vmHwmMb(const std::string& statusPath);

/// An emmapcd child serving a private socket in its own temporary
/// directory. The destructor kills a daemon that was not stopped, reaps it
/// and removes the directory.
class Daemon {
public:
  Daemon(const std::string& exe, const std::string& workDir, int jobs);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  /// Peak resident set of the live daemon, in MB.
  double peakRssMb() const { return vmHwmMb("/proc/" + std::to_string(pid_) + "/status"); }

  struct Drain {
    bool ok = false;
    std::string error;   ///< why the drain check failed
    i64 requests = -1;   ///< from the "served ..." line
  };
  /// SIGTERM, then checks the drain lines and the exit status.
  Drain stop();

private:
  std::string readLine(int timeoutMs);
  void cleanup();

  std::string dir_;
  std::string socket_;
  int pid_ = -1;
  int outFd_ = -1;
  std::string outBuf_;
};

// ---- results ---------------------------------------------------------------

/// What a workload reports: attempts, failures with reasons, and metrics.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(i64 n = 1) { attempted_ += n; }
  /// Records a failed op (counted against attempted).
  void fail(const std::string& why);
  /// Records a failed check that is not an op (drain, STATS totals).
  void failCheck(const std::string& why);
  void note(const std::string& text);
  /// Adds the counts a round reported from its own process.
  void absorb(i64 attempted, i64 failed, i64 failedChecks);

  i64 attempted() const { return attempted_; }
  i64 failed() const { return failed_; }
  i64 failedChecks() const { return failedChecks_; }
  bool correct() const { return failed_ == 0 && failedChecks_ == 0; }
  std::string json() const;

private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  i64 attempted_ = 0;
  i64 failed_ = 0;
  i64 failedChecks_ = 0;
};

struct RunConfig {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string emmapcd;
  std::string workDir;
  std::string tracePath;  ///< where a traced round writes its spans
  bool plantWrongArtifact = false;
};

/// The untraced record of one round: set-up, then a timed window. A
/// --trace=0 run pools several rounds, each in its own process.
struct RoundRecord {
  std::vector<std::pair<std::string, double>> ops;  ///< "kernel/backend", latency in ms
  double wallS = 0;   ///< length of the timed window, probes excluded
  double setupS = 0;
  double rssMb = 0;
  double artifactBytes = 0;  ///< summed over the stream's first whole blocks
  i64 artifactOps = 0;
  /// probeSpeedMs() before the window's first slice and after each slice.
  std::vector<double> probeMs;

  void add(const Request& q, double ms) { ops.emplace_back(q.kernel + "/" + q.backend, ms); }
  double opsPerS() const { return wallS > 0 ? static_cast<double>(ops.size()) / wallS : 0; }
};

/// Wall time of a fixed unit of benchmark-owned work (speed.cpp), the
/// median of a few runs, in ms. It grows when the shared host runs slower.
double probeSpeedMs();

/// The probe time that defines the reference machine speed: the end-to-end
/// time metrics are scaled to the speed at which the probe takes this long.
constexpr double kReferenceProbeMs = 4.0;

/// Runs one round of a workload (workloads.cpp). Untraced, it fills
/// `record`; traced, it also reports the per-layer metrics.
void runColdMix(const RunConfig& cfg, Report& report, RoundRecord& record);
void runDaemon(const RunConfig& cfg, Report& report, RoundRecord& record);

/// The end-to-end metrics of a run: each time metric is the median of its
/// per-round values, each scaled to the reference machine speed by the
/// round's probes, so one round whose probe misjudged the machine does not
/// move it. `tailQ` is the fixed tail percentile of the workload.
void reportEndToEnd(Report& report, const std::vector<RoundRecord>& rounds, double tailQ);

}  // namespace emmbench
