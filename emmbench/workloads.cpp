// The three workloads. A round sets up once, then measures closed-loop ops
// for its seconds with tracing off; a traced round (--trace=1) splits the
// same seconds into an untraced and a traced part and reports the per-layer
// metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "bench.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "gpusim/bank_conflicts.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/protocol.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace emmbench {

namespace {

using emm::CompileResult;
using emm::Compiler;

/// The daemon's peak RSS is read once this many requests have been
/// answered, so it does not depend on how fast the machine ran.
constexpr i64 kRssRequests = 1500;
/// Exact counts are averaged over the first ops of the stream (whole
/// blocks), so they repeat exactly for a seed whatever the run length.
constexpr i64 kColdMixExactOps = 50;
constexpr i64 kDaemonExactRequests = 400;
/// Compile workers of the daemon. One client connection sends the
/// requests, so one request is in flight at a time and the round, daemon
/// included, runs on one core (pinToOneCpu in main.cpp).
constexpr int kDaemonJobs = 2;
/// daemon_new_sizes replies checked against a cold per-size compile.
constexpr size_t kNewSizeChecks = 5;
/// cold_mix configurations run on the interpreter against the references
/// (and through the bank-conflict walker) per round.
constexpr int kColdMixChecks = 4;

double secondsSince(Clock::time_point t0) { return msSince(t0) / 1e3; }

Clock::time_point deadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// A timed window runs in slices this long, with the machine-speed probe
/// between them.
constexpr double kSliceS = 0.5;

/// Runs `slice(deadline)` in slices of at most kSliceS until `seconds` of
/// slices have run, timing the machine-speed probe before the first slice
/// and after each. `slice` runs ops until the deadline; r.wallS counts the
/// slices only.
template <typename Slice>
void slicedWindow(double seconds, RoundRecord& r, Slice&& slice) {
  r.probeMs.push_back(probeSpeedMs());
  for (double left = seconds; left > 0;) {
    const auto start = Clock::now();
    slice(deadlineAfter(std::min(left, kSliceS)));
    const double took = secondsSince(start);
    r.wallS += took;
    left -= took;
    r.probeMs.push_back(probeSpeedMs());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::string describe(const Request& q) {
  std::string sizes;
  for (i64 s : q.sizes) sizes += (sizes.empty() ? "" : ",") + std::to_string(s);
  return q.kernel + "/" + q.backend + " (" + sizes + ")";
}

/// Inputs of the per-layer metrics that do not come from span totals.
struct LayerCounts {
  double hitRatio = 0, familyHitRatio = 0, fastPathRatio = 0;
  double serverMs = 0, roundTripMs = 0;  ///< means over the traced client window
  i64 bindAttempts = 0, bound = 0;
  i64 serializedBytes = 0;
  i64 stmts = 0, warpAccesses = 0;
  double genGlobalElems = 0, genBankExcessCycles = 0;  ///< per checked unit
  double coverage = 0, overhead = 0;
};

/// Every per-layer metric; a layer that did no work in this workload
/// reports 0 (its base count is 0).
void reportLayers(Report& rep, const std::vector<const Tracer*>& tracers, const LayerCounts& c) {
  const std::map<std::string, SpanTotal> t = spanTotals(tracers);
  auto total = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? SpanTotal{} : it->second;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto meanMs = [&](const char* name) { return per(total(name).ms, total(name).count); };

  const double compiles = total("driver.cold_compile").count;
  double passMs = 0;
  for (const std::string& pass : emm::PassRegistry::standard().order()) {
    passMs += total(pass.c_str()).ms;
    rep.metric(pass + ".ms", per(total(pass.c_str()).ms, compiles), "ms");
  }
  rep.metric("driver.compile_other.ms", per(total("driver.cold_compile").ms - passMs, compiles),
             "ms");
  rep.metric("plan_cache.lookup.us", 1e3 * meanMs("plan_cache.lookup"), "us");
  rep.metric("plan_cache.hit_ratio", c.hitRatio, "ratio");
  rep.metric("plan_cache.family_hit_ratio", c.familyHitRatio, "ratio");
  rep.metric("driver.family_key.us",
             1e3 * per(total("driver.tryBindFamily.probe").ms - total("runtime_binder.bind").ms,
                       total("driver.tryBindFamily.probe").count),
             "us");
  rep.metric("driver.hit_compile.us", 1e3 * meanMs("driver.hit_compile"), "us");
  rep.metric("runtime_binder.bind.us", 1e3 * meanMs("runtime_binder.bind"), "us");
  rep.metric("runtime_binder.accept_ratio", per(c.bound, c.bindAttempts), "ratio");
  rep.metric("driver.bind_and_emit.ms", meanMs("driver.bind_and_emit"), "ms");
  rep.metric("serialize.encode.us", 1e3 * meanMs("serialize.encode"), "us");
  rep.metric("serialize.decode.us", 1e3 * meanMs("serialize.decode"), "us");
  rep.metric("serialize.bytes", per(c.serializedBytes, total("serialize.encode").count), "bytes");
  rep.metric("protocol.request.us",
             1e3 * per(total("protocol.encode_request").ms + total("protocol.decode_request").ms,
                       total("protocol.decode_request").count),
             "us");
  rep.metric("service.server.ms", c.serverMs, "ms");
  const double transport = c.roundTripMs - c.serverMs - meanMs("protocol.decode_reply");
  rep.metric("service.transport.ms", c.roundTripMs > 0 ? transport : 0, "ms");
  rep.metric("service.fast_path_ratio", c.fastPathRatio, "ratio");
  rep.metric("kernels.build.us", 1e3 * meanMs("kernels.build"), "us");
  rep.metric("ir.interp.us_per_stmt", 1e3 * per(total("ir.execute").ms, c.stmts), "us");
  rep.metric("ir.stmts", per(c.stmts, total("ir.execute").count), "count");
  rep.metric("gpusim.bank.us_per_warp_access",
             1e3 * per(total("gpusim.bank_conflicts").ms, c.warpAccesses), "us");
  rep.metric("gpusim.warp_accesses", per(c.warpAccesses, total("gpusim.bank_conflicts").count),
             "count");
  rep.metric("gen_global_elems", c.genGlobalElems, "count");
  rep.metric("gen_bank_excess_cycles", c.genBankExcessCycles, "count");
  rep.metric("trace.coverage", c.coverage, "ratio");
  rep.metric("trace.overhead", c.overhead, "ratio");
}

void writeTrace(Report& rep, const RunConfig& cfg, const std::vector<const Tracer*>& tracers) {
  if (writeChromeTrace(cfg.tracePath, tracers))
    rep.note("spans written to " + cfg.tracePath);
  else
    rep.failCheck("cannot write " + cfg.tracePath);
}

/// Compiles `q` with no cache tier, as `emmapc` does; passes are traced
/// when `tracer` is set.
CompileResult coldCompile(const Request& q, Tracer* tracer) {
  emm::IntVec params;
  emm::ProgramBlock block = [&] {
    ScopedSpan span(tracer, "kernels.build");
    return emm::buildKernelByName(q.kernel, q.sizes, params);
  }();
  Compiler c;
  configureCompiler(c, q);
  if (tracer != nullptr) tracePasses(c, tracer);
  ScopedSpan span(tracer, "driver.cold_compile");
  return c.compile(std::move(block));
}

/// One interpreter run of a me or matmul unit over pattern-filled arrays,
/// with the hand-written reference's output computed up front.
struct ReferenceRun {
  emm::ArrayStore store;
  emm::IntVec ext;
  std::vector<double> expected;

  ReferenceRun(const CompileResult& r, const Request& q, unsigned pattern)
      : store(r.input->arrays), ext(q.sizes.begin(), q.sizes.end()) {
    if (r.kernel) ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);
    store.fillAllPattern(pattern);
    expected = store.raw(2);
    if (q.kernel == "me")
      emm::referenceMe(store.raw(0), store.raw(1), expected, q.sizes[0], q.sizes[1], q.sizes[2]);
    else
      emm::referenceMatmul(store.raw(0), store.raw(1), expected, q.sizes[0], q.sizes[1],
                           q.sizes[2]);
  }

  emm::MemTrace execute(const CompileResult& r, Tracer* tracer) {
    ScopedSpan span(tracer, "ir.execute");
    return emm::executeCodeUnit(*r.unit(), ext, store);
  }

  /// "" when the output array matches the reference element for element.
  std::string compare() const {
    const std::vector<double>& got = store.raw(2);
    if (got.size() != expected.size()) return "output array has the wrong size";
    i64 wrong = 0;
    for (size_t i = 0; i < got.size(); ++i) wrong += got[i] != expected[i];
    return wrong == 0 ? "" : std::to_string(wrong) + " output elements differ from the reference";
  }
};

}  // namespace

void reportEndToEnd(Report& rep, const std::vector<RoundRecord>& rounds, double tailQ) {
  // The time metrics of a round are scaled to the reference machine speed
  // by kReferenceProbeMs over the median of the round's probes; set-up,
  // which precedes the window, likewise. The wall-clock values are printed
  // beside them.
  std::vector<double> ops, p50, tail, setups, rss, rawOps, rawP50, rawTail, rawSetups;
  std::map<std::string, std::vector<double>> byKind;
  double artifactBytes = 0;
  i64 artifactOps = 0, fewestBeyond = -1;
  char buf[240];
  for (const RoundRecord& r : rounds) {
    const double probe = median(r.probeMs);
    if (!(probe > 0)) {
      rep.failCheck("a round reported no machine-speed probe");
      continue;
    }
    const double scale = kReferenceProbeMs / probe;
    std::vector<double> lat;
    for (const auto& [kind, ms] : r.ops) {
      lat.push_back(ms);
      byKind[kind].push_back(ms * scale);
    }
    const i64 n = static_cast<i64>(lat.size());
    const i64 beyond = n - static_cast<i64>(std::ceil(tailQ * static_cast<double>(n)));
    fewestBeyond = fewestBeyond < 0 ? beyond : std::min(fewestBeyond, beyond);
    rawOps.push_back(r.opsPerS());
    rawP50.push_back(percentile(lat, 0.5));
    rawTail.push_back(percentile(lat, tailQ));
    rawSetups.push_back(r.setupS);
    ops.push_back(rawOps.back() / scale);
    p50.push_back(rawP50.back() * scale);
    tail.push_back(rawTail.back() * scale);
    setups.push_back(rawSetups.back() * scale);
    rss.push_back(r.rssMb);
    artifactBytes += r.artifactBytes;
    artifactOps += r.artifactOps;
    std::snprintf(buf, sizeof buf,
                  "round: %6lld ops, %10.3f ops/s, p50 %8.3f ms, tail %8.3f ms; probe %.4f ms "
                  "(wall clock: %10.3f ops/s, p50 %8.3f ms, tail %8.3f ms)",
                  static_cast<long long>(n), ops.back(), p50.back(), tail.back(), probe,
                  rawOps.back(), rawP50.back(), rawTail.back());
    rep.note(buf);
  }
  std::snprintf(buf, sizeof buf,
                "tail_ms is p%.0f, with at least %lld samples beyond it in every round%s",
                tailQ * 100, static_cast<long long>(fewestBeyond),
                fewestBeyond < 10 ? " (fewer than 10: raise --seconds)" : "");
  rep.note(buf);
  for (const auto& [kind, lat] : byKind) {
    std::snprintf(buf, sizeof buf, "%-18s %6zu ops, p50 %9.3f ms", kind.c_str(), lat.size(),
                  percentile(lat, 0.5));
    rep.note(buf);
  }
  std::snprintf(buf, sizeof buf,
                "wall clock, unscaled: ops_per_s %.3f, p50_ms %.3f, tail_ms %.3f, setup_s %.4f",
                median(rawOps), median(rawP50), median(rawTail), median(rawSetups));
  rep.note(buf);
  rep.metric("ops_per_s", median(ops), "1/s");
  rep.metric("p50_ms", median(p50), "ms");
  rep.metric("tail_ms", median(tail), "ms");
  rep.metric("setup_s", median(setups), "s");
  rep.metric("peak_rss_mb", median(rss), "MB");
  rep.metric("artifact_bytes",
             artifactOps > 0 ? artifactBytes / static_cast<double>(artifactOps) : 0, "bytes");
}

// ---- cold_mix --------------------------------------------------------------

void runColdMix(const RunConfig& cfg, Report& rep, RoundRecord& rec) {
  Tracer tracer(0);
  // Set-up: one warm-up compile per kernel x backend at default sizes
  // (never drawn by the stream), so lazy start-up is not timed.
  const auto setupStart = Clock::now();
  for (const Request& w : warmSet(cfg.workload))
    if (!coldCompile(w, nullptr).ok) rep.failCheck("warm-up compile failed: " + describe(w));
  rec.setupS = secondsSince(setupStart);

  Stream stream(cfg.workload, cfg.seed);
  auto runWindow = [&](double seconds, Tracer* t, RoundRecord& r) {
    slicedWindow(seconds, r, [&](Clock::time_point deadline) {
      while (Clock::now() < deadline) {
        const Request q = stream.next();
        const auto t0 = Clock::now();
        CompileResult res = [&] {
          ScopedSpan op(t, "op", q.id);
          return coldCompile(q, t);
        }();
        r.add(q, msSince(t0));
        rep.attempt();
        if (!res.ok)
          rep.fail(describe(q) + ": " + res.firstError());
        else if (res.unit() == nullptr && res.dataPlan() == nullptr)
          rep.fail(describe(q) + ": no unit and no scratchpad plan");
        if (q.id < kColdMixExactOps) {
          r.artifactBytes += static_cast<double>(res.artifact.size());
          ++r.artifactOps;
        }
      }
    });
  };
  RoundRecord traced;
  runWindow(cfg.trace ? cfg.seconds / 2 : cfg.seconds, nullptr, rec);
  if (cfg.trace) runWindow(cfg.seconds / 2, &tracer, traced);
  rec.rssMb = vmHwmMb("/proc/self/status");

  // Correctness sample: seeded me/matmul configurations at small sizes,
  // compiled the same way, run on the interpreter against the reference and
  // through the bank-conflict walker — the work of `emmapc --emit=stats`.
  emm::testgen::Rng rng(emm::testgen::mixSeed(cfg.seed, 1));
  Tracer* const t = cfg.trace ? &tracer : nullptr;
  LayerCounts c;
  i64 checked = 0, banked = 0;
  for (int i = 0; i < kColdMixChecks; ++i) {
    Request q;
    q.id = i;
    q.kernel = i % 2 == 0 ? "me" : "matmul";
    q.backend = rng.pick(std::vector<std::string>{"cuda", "cell"});
    q.sizes = q.kernel == "me" ? std::vector<i64>{rng.range(8, 24), rng.range(8, 24), 4}
                               : std::vector<i64>{rng.range(8, 24), rng.range(8, 24),
                                                  rng.range(8, 24)};
    const CompileResult res = coldCompile(q, nullptr);
    rep.attempt();
    if (!res.ok || res.unit() == nullptr) {
      rep.fail("reference check " + describe(q) + ": no executable unit");
      continue;
    }
    ReferenceRun run(res, q, static_cast<unsigned>(rng.range(1, 1000)));
    ScopedSpan root(t, "check", q.id);
    const emm::MemTrace mt = run.execute(res, t);
    const std::string err = run.compare();
    if (!err.empty()) rep.fail("reference check " + describe(q) + ": " + err);
    ++checked;
    c.stmts += mt.stmtInstances;
    c.genGlobalElems += static_cast<double>(mt.globalReads + mt.globalWrites);
    if (res.bufferLayout) {
      emm::BankConflictOptions bc;
      bc.banks = static_cast<int>(res.bufferLayout->bank.banks);
      bc.bankWidthBytes = res.bufferLayout->bank.widthBytes;
      bc.elementBytes = res.bufferLayout->elementBytes;
      ScopedSpan span(t, "gpusim.bank_conflicts");
      const emm::BankConflictStats cs = emm::countBankConflicts(*res.unit(), run.ext, bc);
      ++banked;
      c.warpAccesses += cs.warpAccesses;
      c.genBankExcessCycles += static_cast<double>(cs.excessCycles());
    }
  }
  if (!cfg.trace) return;

  c.genGlobalElems = checked > 0 ? c.genGlobalElems / static_cast<double>(checked) : 0;
  c.genBankExcessCycles = banked > 0 ? c.genBankExcessCycles / static_cast<double>(banked) : 0;
  c.coverage = leafCoverage({&tracer}, "op");
  c.overhead = traced.opsPerS() > 0 ? rec.opsPerS() / traced.opsPerS() : 0;
  reportLayers(rep, {&tracer}, c);
  writeTrace(rep, cfg, {&tracer});
}

// ---- daemon_repeat and daemon_new_sizes ------------------------------------

namespace {

emm::svc::CompileRequest wireRequest(const Request& q) {
  Compiler c;
  configureCompiler(c, q);
  emm::svc::CompileRequest req;
  req.kernel = q.kernel;
  req.sizes = q.sizes;
  req.options = c.opts();
  return req;
}

/// The effective options of a request, as Compiler::effectiveOptions()
/// derives them (selecting cell forces every reference through the store).
emm::CompileOptions effectiveOptions(emm::CompileOptions o) {
  if (o.backendName == "cell") o.stageEverything = true;
  return o;
}

emm::u64 noSkippedPassesDigest() {
  emm::Hasher h;
  h.mix(std::vector<std::string>{});
  return h.digest();
}

/// The result-tier key Compiler::compile looks up for `block`. The replay
/// checks that the cache holds this key after every compile, so a key that
/// drifts from the compiler's fails the run instead of timing misses.
emm::PlanKey planKeyOf(const emm::ProgramBlock& block, const emm::CompileOptions& options) {
  emm::PlanKey key;
  key.block = emm::hashProgramBlock(block);
  key.options = emm::hashCompileOptions(options);
  key.passes = noSkippedPassesDigest();
  return key;
}

/// The family plan the server's tryBindFamily would find for `block`, so
/// bindFamilyArtifact can be timed on its own. The replay checks that a
/// bind with it succeeds exactly when tryBindFamily's does.
std::shared_ptr<const emm::FamilyPlan> familyOf(emm::PlanCache& cache,
                                                const emm::ProgramBlock& block,
                                                const emm::CompileOptions& options) {
  const emm::ProgramBlock famBlock = emm::familyCanonicalBlock(block);
  const emm::CompileOptions famOptions = emm::familyCanonicalOptions(options);
  emm::FamilyKey key;
  key.block = emm::hashProgramBlock(famBlock);
  key.options = emm::hashCompileOptions(famOptions);
  key.passes = noSkippedPassesDigest();
  return cache.lookupFamily(
      key, emm::hashCombine(emm::digestBytes(emm::serializeProgramBlock(famBlock)),
                            emm::digestBytes(emm::serializeCompileOptions(famOptions))));
}

/// A reply kept for the after-window check against a cold compile.
struct KeptReply {
  Request request;
  std::string artifact;
  std::vector<i64> tile;
};


}  // namespace

void runDaemon(const RunConfig& cfg, Report& rep, RoundRecord& rec) {
  const bool repeat = cfg.workload == "daemon_repeat";
  const std::vector<Request> warm = warmSet(cfg.workload);
  std::map<std::pair<std::string, std::string>, size_t> warmIndex;
  for (size_t i = 0; i < warm.size(); ++i) warmIndex[{warm[i].kernel, warm[i].backend}] = i;

  // Set-up: spawn the daemon, warm its working set, and (daemon_repeat)
  // make the cold reference compile of every key.
  std::vector<std::string> refArtifact(warm.size());
  std::vector<std::vector<i64>> refTile(warm.size());
  i64 frames = 0, compiles = 0, connections = 1;
  const auto setupStart = Clock::now();
  Daemon daemon(cfg.emmapcd, cfg.workDir, kDaemonJobs);
  {
    emm::svc::ServiceClient client(daemon.socket());
    for (const Request& w : warm) {
      ++frames;
      ++compiles;
      if (!client.compile(wireRequest(w)).result.ok)
        rep.failCheck("warm-up request failed: " + describe(w));
    }
  }
  if (repeat)
    for (size_t i = 0; i < warm.size(); ++i) {
      const CompileResult ref = coldCompile(warm[i], nullptr);
      if (!ref.ok) rep.failCheck("reference compile failed: " + describe(warm[i]));
      refArtifact[i] = ref.artifact;
      refTile[i] = ref.search.subTile;
    }
  rec.setupS = secondsSince(setupStart);
  if (cfg.plantWrongArtifact) refArtifact[0] += ' ';

  // New-size replies kept for the cold per-size comparison: a seeded
  // 1-in-16 sample of request ids, the lowest ids first.
  const u64 sampleSalt = emm::testgen::mixSeed(cfg.seed, 2);
  auto sampled = [&](i64 id) {
    return emm::testgen::mixSeed(sampleSalt, static_cast<u64>(id)) % 16 == 0;
  };

  Stream stream(cfg.workload, cfg.seed);
  Tracer clientTracer(1);
  double serverMsSum = 0;
  i64 answered = 0, outOfEnvelope = 0;
  double rssAtK = 0;
  std::vector<KeptReply> kept;
  auto runClient = [&](double seconds, bool traced, RoundRecord& r) {
    Tracer* t = traced ? &clientTracer : nullptr;
    serverMsSum = 0;
    std::optional<emm::svc::ServiceClient> client;
    try {
      ++connections;
      client.emplace(daemon.socket());
    } catch (const std::exception& e) {
      rep.attempt();
      rep.fail(std::string("client connection: ") + e.what());
      return;
    }
    slicedWindow(seconds, r, [&](Clock::time_point deadline) {
      while (client && Clock::now() < deadline) {
        const Request q = stream.next();
        const emm::svc::CompileRequest req = wireRequest(q);
        ++frames;
        ++compiles;
        const auto t0 = Clock::now();
        emm::svc::WireCompileReply reply;
        try {
          ScopedSpan span(t, "service.round_trip", q.id);
          reply = client->compile(req);
        } catch (const std::exception& e) {
          r.add(q, msSince(t0));
          rep.attempt();
          rep.fail(describe(q) + ": " + e.what());
          client.reset();  // the connection is unusable after a transport error
          break;
        }
        r.add(q, msSince(t0));
        serverMsSum += reply.serverMillis;
        if (++answered == kRssRequests) rssAtK = daemon.peakRssMb();
        rep.attempt();
        if (!reply.result.ok) rep.fail(describe(q) + ": " + reply.result.firstError());
        if (repeat) {
          const size_t i = warmIndex.at({q.kernel, q.backend});
          if (reply.result.artifact != refArtifact[i] ||
              reply.result.search.subTile != refTile[i])
            rep.fail(describe(q) + ": reply differs from the cold compile of its key");
        } else if (sampled(q.id) && kept.size() < 4 * kNewSizeChecks) {
          kept.push_back({q, reply.result.artifact, reply.result.search.subTile});
        }
        outOfEnvelope += q.outOfEnvelope;
        if (q.id < kDaemonExactRequests) {
          r.artifactBytes += static_cast<double>(reply.result.artifact.size());
          ++r.artifactOps;
        }
      }
    });
  };

  RoundRecord traced;
  LayerCounts c;
  runClient(cfg.trace ? cfg.seconds / 3 : cfg.seconds, false, rec);
  if (cfg.trace) {
    runClient(cfg.seconds / 3, true, traced);
    const double n = static_cast<double>(traced.ops.size());
    if (n > 0) {
      c.serverMs = serverMsSum / n;
      for (const auto& op : traced.ops) c.roundTripMs += op.second / n;
    }
  }
  const i64 consumed = stream.next().id;
  char buf[200];
  std::snprintf(buf, sizeof buf, "%lld requests drawn; %lld outside the bind envelope (%.2f%%)",
                static_cast<long long>(consumed), static_cast<long long>(outOfEnvelope),
                consumed > 0 ? 100.0 * static_cast<double>(outOfEnvelope) /
                                   static_cast<double>(consumed)
                             : 0.0);
  rep.note(buf);

  // The daemon's own totals must account for every frame sent.
  try {
    ++connections;
    emm::svc::ServiceClient client(daemon.socket());
    ++frames;
    const emm::svc::WireStats s = client.stats();
    if (s.requests != frames || s.compiles != compiles ||
        s.connections != connections || s.protocolErrors != 0 || s.compileErrors != 0)
      rep.failCheck("STATS totals: " + std::to_string(s.requests) + " requests, " +
                    std::to_string(s.compiles) + " compiles, " + std::to_string(s.connections) +
                    " connections, " + std::to_string(s.protocolErrors) + " protocol errors, " +
                    std::to_string(s.compileErrors) + " compile errors; sent " +
                    std::to_string(frames) + " frames, " +
                    std::to_string(compiles) + " compiles on " +
                    std::to_string(connections) + " connections");
    const double lookups = static_cast<double>(s.memory.hits + s.memory.misses);
    const double families = static_cast<double>(s.memory.familyHits + s.memory.familyMisses);
    c.hitRatio = lookups > 0 ? static_cast<double>(s.memory.hits) / lookups : 0;
    c.familyHitRatio = families > 0 ? static_cast<double>(s.memory.familyHits) / families : 0;
    c.fastPathRatio =
        s.requests > 0 ? static_cast<double>(s.familyFastPath) / static_cast<double>(s.requests)
                       : 0;
    std::snprintf(buf, sizeof buf,
                  "STATS: %lld requests, fast path %lld; memory %lld hits / %lld lookups; "
                  "family %lld hits / %lld lookups",
                  static_cast<long long>(s.requests), static_cast<long long>(s.familyFastPath),
                  static_cast<long long>(s.memory.hits), static_cast<long long>(lookups),
                  static_cast<long long>(s.memory.familyHits), static_cast<long long>(families));
    rep.note(buf);
  } catch (const std::exception& e) {
    rep.failCheck(std::string("STATS request: ") + e.what());
  }
  rec.rssMb = rssAtK > 0 ? rssAtK : daemon.peakRssMb();
  const Daemon::Drain drain = daemon.stop();
  if (!drain.ok)
    rep.failCheck("emmapcd drain: " + drain.error);
  else if (drain.requests != frames)
    rep.failCheck("emmapcd served " + std::to_string(drain.requests) + " requests, sent " +
                  std::to_string(frames));

  // Server-side split (traced run only): replay the same stream in-process
  // and single-threaded through the public calls handleCompile makes, in
  // its order, against a cache warmed like the daemon's.
  Tracer replayTracer(3);
  if (cfg.trace) {
    emm::PlanCache cache;
    for (const Request& w : warm) {
      emm::IntVec params;
      emm::ProgramBlock block = emm::buildKernelByName(w.kernel, w.sizes, params);
      Compiler comp;
      configureCompiler(comp, w);
      comp.cache(&cache);
      if (!comp.tryBindFamily(block)) comp.compile(std::move(block));
    }
    Stream replay(cfg.workload, cfg.seed);
    Tracer* t = &replayTracer;
    emm::PlanCache emptyCache;
    i64 bindDisagree = 0, lookupDisagree = 0, lookupHits = 0, lookupMisses = 0;
    const auto deadline = deadlineAfter(cfg.seconds / 3);
    while (Clock::now() < deadline) {
      const Request q = replay.next();
      emm::svc::CompileRequest req = wireRequest(q);
      req.schemaFingerprint = emm::serializeSchemaFingerprint();
      emm::svc::CompileRequest decoded;
      std::optional<CompileResult> bound;
      CompileResult res;
      {
        ScopedSpan op(t, "replay.request", q.id);
        std::string payload;
        {
          ScopedSpan span(t, "protocol.encode_request");
          payload = emm::svc::encodeCompileRequest(req);
        }
        {
          ScopedSpan span(t, "protocol.decode_request");
          decoded = emm::svc::decodeCompileRequest(payload);
        }
        emm::IntVec params;
        emm::ProgramBlock block;
        {
          ScopedSpan span(t, "kernels.build");
          block = emm::buildKernelByName(decoded.kernel, decoded.sizes, params);
        }
        Compiler comp;
        comp.options(decoded.options);
        comp.cache(&cache);
        const auto start = Clock::now();
        {
          ScopedSpan span(t, "driver.tryBindFamily");
          bound = comp.tryBindFamily(block);
        }
        if (bound) {
          ++c.bound;
          res = std::move(*bound);
        } else {
          comp.source(std::move(block));
          ScopedSpan span(t, "driver.compile");
          res = comp.compile();
          span.rename(res.cacheHit    ? "driver.hit_compile"
                      : res.familyHit ? "driver.bind_and_emit"
                                      : "driver.replay_cold_compile");
        }
        std::string reply;
        {
          ScopedSpan span(t, "protocol.encode_reply");
          reply = emm::svc::encodeCompileReply(res, msSince(start));
        }
        {
          ScopedSpan span(t, "protocol.decode_reply");
          emm::svc::decodeCompileReply(reply);
        }
      }
      if (!res.ok) rep.failCheck("replay compile failed: " + describe(q));

      // Probes, after the request and outside its span, so the request is
      // timed as the server meets it: the calls the server makes inside
      // others, timed on their own and only where the server makes them.
      // Binds and hits leave the cache as the request found it; a miss is
      // probed on an empty cache, because the compile has since stored its
      // result. The probes find the request's data in the CPU caches, so
      // tryBindFamily runs again beside the bind probe and the family-key
      // cost is the difference of two warm calls.
      ScopedSpan probe(t, "replay.probe", q.id);
      const emm::CompileOptions options = effectiveOptions(decoded.options);
      emm::IntVec params;
      const emm::ProgramBlock block = emm::buildKernelByName(q.kernel, q.sizes, params);
      const std::shared_ptr<const emm::FamilyPlan> family = familyOf(cache, block, options);
      bool probeBound = false;
      if (family != nullptr && family->haveRecord) {
        ++c.bindAttempts;
        ScopedSpan span(t, "runtime_binder.bind");
        probeBound = emm::bindFamilyArtifact(*family, block, options, nullptr).has_value();
      }
      bindDisagree += probeBound != bound.has_value();
      {
        Compiler comp;
        comp.options(decoded.options);
        comp.cache(&cache);
        ScopedSpan span(t, "driver.tryBindFamily.probe");
        comp.tryBindFamily(block);
      }
      if (!bound) {
        const emm::PlanKey key = planKeyOf(block, options);
        bool hit;
        {
          ScopedSpan span(t, "plan_cache.lookup");
          hit = (res.cacheHit ? cache : emptyCache).lookup(key).has_value();
        }
        ++(res.cacheHit ? lookupHits : lookupMisses);
        // The cache holds the key now: a hit found it there, a miss stored it.
        lookupDisagree += res.cacheHit ? !hit : !cache.lookup(key).has_value();
      }
      std::string bytes;
      {
        ScopedSpan span(t, "serialize.encode");
        bytes = emm::serializeCompileResult(res);
      }
      c.serializedBytes += static_cast<i64>(bytes.size());
      {
        ScopedSpan span(t, "serialize.decode");
        emm::deserializeCompileResult(bytes);
      }
    }
    std::snprintf(buf, sizeof buf,
                  "replay: %lld binds of %lld attempts; %lld lookups hit, %lld missed",
                  static_cast<long long>(c.bound), static_cast<long long>(c.bindAttempts),
                  static_cast<long long>(lookupHits), static_cast<long long>(lookupMisses));
    rep.note(buf);
    if (bindDisagree > 0)
      rep.failCheck("replay: the bind probe disagreed with tryBindFamily on " +
                    std::to_string(bindDisagree) + " requests (family key drift?)");
    if (lookupDisagree > 0)
      rep.failCheck("replay: the lookup probe's key missed the cache on " +
                    std::to_string(lookupDisagree) + " requests (plan key drift?)");
    // Every key of daemon_repeat was compiled in set-up.
    if (repeat && lookupMisses > 0)
      rep.failCheck("replay: " + std::to_string(lookupMisses) +
                    " daemon_repeat compiles missed a warm key");
  }

  // daemon_new_sizes: sampled replies against a cold per-size compile,
  // made after the timed window.
  if (!repeat) {
    std::sort(kept.begin(), kept.end(),
              [](const KeptReply& a, const KeptReply& b) { return a.request.id < b.request.id; });
    if (kept.size() > kNewSizeChecks) kept.resize(kNewSizeChecks);
    for (const KeptReply& k : kept) {
      const CompileResult ref = coldCompile(k.request, nullptr);
      rep.attempt();
      if (!ref.ok || ref.artifact != k.artifact || ref.search.subTile != k.tile)
        rep.fail(describe(k.request) + ": reply differs from a cold per-size compile");
    }
    rep.note(std::to_string(kept.size()) + " sampled replies checked against cold compiles");
  }

  if (!cfg.trace) return;
  const std::vector<const Tracer*> all = {&clientTracer, &replayTracer};
  c.coverage = leafCoverage({&replayTracer}, "replay.request");
  c.overhead = traced.opsPerS() > 0 ? rec.opsPerS() / traced.opsPerS() : 0;
  reportLayers(rep, all, c);
  writeTrace(rep, cfg, all);
}

}  // namespace emmbench
