// Service-layer benchmark: the emmapcd compile-service daemon.
//
// Drives an in-process ServiceServer over its real unix-domain socket (the
// same frames `emmapc --connect` speaks) and measures:
//  1. fresh-client warmth — client A compiles one ME size cold; a brand-new
//     client B then requests a DIFFERENT size of the same kernel family and
//     must be served warm (server-side family hit, bind-and-emit only),
//  2. sustained load — N concurrent clients (default 4) hammer the warm
//     store for a fixed window of about 2 s; reports compiles/sec plus
//     p50/p99 round-trip latency over every request of the window. A fixed
//     window, not a fixed request count, keeps the sample large enough for
//     a stable p50 on a busy machine.
//
// Correctness lines assert the fresh client's first family-member request
// was a family hit, that warm round trips replay the identical artifact,
// and that the daemon served every request without protocol errors.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "driver/compiler.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/server.h"

using namespace emm;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr std::chrono::seconds kLoadWindow{2};

/// The exact option set `emmapc --kernel=me --emit=cuda` would ship.
svc::CompileRequest meRequest(const std::vector<i64>& sizes) {
  IntVec params;
  buildKernelByName("me", sizes, params);
  Compiler c;
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda").kernelName("me_kernel");
  svc::CompileRequest req;
  req.kernel = "me";
  req.sizes = sizes;
  req.options = c.opts();
  return req;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t at = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[at];
}

}  // namespace

int main() {
  bench::header("Service S3: compile-service daemon (emmapcd)",
                "ROADMAP shared networked plan store; emmapc --connect");
  const std::string sock = "/tmp/emm_svc_daemon_" + std::to_string(::getpid()) + ".sock";
  svc::ServiceServer server({sock, /*jobs=*/0, /*cacheDir=*/"", /*cacheCapacity=*/256});
  server.start();

  // -- 1. fresh-client warmth ------------------------------------------------
  std::printf("\n-- fresh client is served from the shared family tier --\n");
  auto t0 = Clock::now();
  svc::WireCompileReply cold;
  {
    svc::ServiceClient a(sock);
    cold = a.compile(meRequest({256, 128, 16}));
  }
  double coldMs = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // A brand-new connection, a size the daemon has never seen: the kernel
  // FAMILY is warm, so this must be a bind-and-emit family hit.
  svc::ServiceClient b(sock);
  svc::WireCompileReply fresh = b.compile(meRequest({512, 128, 16}));
  std::printf("  cold       %10.2f ms  (client A, 256x128x16; server %s)\n", coldMs,
              cold.serverFamilyHit ? "family hit?!" : "cold compile");
  std::printf("  fresh      %10.2f ms  (client B, NEW size 512x128x16; server %.2f ms)\n",
              fresh.roundTripMillis, fresh.serverMillis);
  std::printf("  fresh client family hit: %s\n", fresh.serverFamilyHit ? "yes" : "NO");

  // Warm replay of an exact size must return the identical artifact.
  svc::WireCompileReply replay = b.compile(meRequest({512, 128, 16}));
  std::printf("  warm replay identical artifact: %s (server memory hit: %s)\n",
              replay.result.artifact == fresh.result.artifact ? "yes" : "NO",
              replay.serverCacheHit ? "yes" : "NO");

  // -- 2. sustained concurrent load ------------------------------------------
  std::printf("\n-- %d concurrent clients, warm compiles for %lld s --\n", kClients,
              static_cast<long long>(kLoadWindow.count()));
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::thread> threads;
  const auto loadStart = Clock::now();
  const auto loadEnd = loadStart + kLoadWindow;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      svc::ServiceClient client(sock);
      // Rotate over a small warm working set so the run measures service
      // overhead and cache replay, not pipeline time.
      const std::vector<std::vector<i64>> sizes = {
          {256, 128, 16}, {512, 128, 16}, {1024, 128, 16}, {256, 256, 16}};
      for (size_t i = 0; Clock::now() < loadEnd; ++i) {
        svc::WireCompileReply r = client.compile(meRequest(sizes[(c + i) % sizes.size()]));
        latencies[c].push_back(r.roundTripMillis);
        if (!r.result.ok) std::printf("  REQUEST FAILED: %s\n", r.result.firstError().c_str());
      }
    });
  for (std::thread& t : threads) t.join();
  double loadSec =
      std::chrono::duration<double>(Clock::now() - loadStart).count();

  std::vector<double> all;
  for (const std::vector<double>& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const double total = static_cast<double>(all.size());
  std::printf("  throughput %10.0f compiles/sec  (%zu compiles in %.2f s)\n",
              loadSec > 0 ? total / loadSec : 0.0, all.size(), loadSec);
  std::printf("  p50        %10.2f ms  (%zu requests)\n", percentile(all, 0.50), all.size());
  std::printf("  p99        %10.2f ms  (%zu requests)\n", percentile(all, 0.99), all.size());

  svc::WireStats s = server.stats();
  std::printf("\n  daemon: %lld connections, %lld requests, %lld compiles "
              "(%lld errors, %lld protocol errors)\n",
              s.connections, s.requests, s.compiles, s.compileErrors, s.protocolErrors);
  std::printf("  store : memory %lld hits / %lld misses; family %lld hits / %lld misses\n",
              s.memory.hits, s.memory.misses, s.memory.familyHits, s.memory.familyMisses);
  const bool clean = s.protocolErrors == 0 && s.compileErrors == 0;
  std::printf("  fresh-client family hit: %s; all requests served cleanly: %s\n",
              fresh.serverFamilyHit ? "yes" : "NO", clean ? "yes" : "NO");
  server.stop();
  return fresh.serverFamilyHit && clean ? 0 : 1;
}
