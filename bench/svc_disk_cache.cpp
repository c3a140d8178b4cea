// Service-layer benchmark: the persistent on-disk plan cache.
//
// Measures the three tiers of the plan-cache hierarchy for the ME block:
//  1. cold      — full pipeline run (empty caches),
//  2. disk-warm — fresh process simulated by a new Compiler with only the
//                 DiskPlanCache attached: one file read + header checks +
//                 payload deserialization replaces the whole pipeline,
//  3. mem-warm  — in-memory PlanCache hit: one copy sharing the entry's
//                 blocks and AST.
//
// Correctness lines assert that all three tiers emit byte-identical CUDA
// source and choose the same tile, and that corrupting the entry degrades
// to a cold compile instead of failing.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_util.h"
#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"

using namespace emm;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

Compiler meCompiler() {
  Compiler c(buildMeBlock(2048, 1024, 16));
  c.parameters({2048, 1024, 16}).memoryLimitBytes(16 * 1024).backend("cuda");
  return c;
}

void tiers(const std::string& dir) {
  std::printf("\n-- cold vs. disk-warm vs. memory-warm (ME 2048x1024, w=16, cuda) --\n");
  DiskPlanCache disk(dir);
  PlanCache memory;

  Compiler coldC = meCompiler();
  coldC.diskCache(&disk);
  auto t0 = Clock::now();
  CompileResult cold = coldC.compile();  // runs the pipeline, writes the entry
  double coldMs = msSince(t0);
  if (!cold.ok) {
    std::printf("  compile failed: %s\n", cold.firstError().c_str());
    return;
  }

  // New Compiler, empty memory tier: the plan comes back from disk.
  Compiler diskC = meCompiler();
  diskC.cache(&memory).diskCache(&disk);
  auto t1 = Clock::now();
  CompileResult diskWarm = diskC.compile();
  double diskMs = msSince(t1);

  // Same Compiler again: the promoted entry now hits in memory.
  auto t2 = Clock::now();
  CompileResult memWarm = diskC.compile();
  double memMs = msSince(t2);

  DiskPlanCache::Stats ds = disk.stats();
  std::printf("  cold       %10.2f ms  (pipeline; entry written: %lld bytes on disk)\n",
              coldMs, ds.bytes);
  std::printf("  disk-warm  %10.2f ms  (%s; %.0fx vs cold)\n", diskMs,
              diskWarm.diskHit ? "disk hit" : "MISS?!", diskMs > 0 ? coldMs / diskMs : 0.0);
  std::printf("  mem-warm   %10.2f ms  (%s; %.0fx vs cold)\n", memMs,
              memWarm.cacheHit ? "memory hit" : "MISS?!", memMs > 0 ? coldMs / memMs : 0.0);

  const bool sameArtifact =
      cold.artifact == diskWarm.artifact && cold.artifact == memWarm.artifact;
  const bool sameTile = cold.search.subTile == diskWarm.search.subTile &&
                        cold.search.subTile == memWarm.search.subTile;
  std::printf("  artifacts byte-identical: %s; tiles identical: %s; cost bit-identical: %s\n",
              sameArtifact ? "yes" : "NO", sameTile ? "yes" : "NO",
              cold.search.eval.cost == diskWarm.search.eval.cost ? "yes" : "NO");
}

void corruptionFallback(const std::string& dir) {
  std::printf("\n-- corruption: a damaged entry degrades to a cold compile --\n");
  DiskPlanCache disk(dir);
  for (const fs::directory_entry& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".emmplan") {
      std::fstream f(de.path(), std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(fs::file_size(de.path()) / 2));
      f.put('\x5A');
    }
  Compiler c = meCompiler();
  c.diskCache(&disk);
  auto t0 = Clock::now();
  CompileResult r = c.compile();
  double ms = msSince(t0);
  DiskPlanCache::Stats s = disk.stats();
  std::printf("  recompile  %10.2f ms  (ok: %s, disk hit: %s, rejects: %lld)\n", ms,
              r.ok ? "yes" : "NO", r.diskHit ? "yes?!" : "no", s.rejects);
}

}  // namespace

int main() {
  bench::header("Service S2: persistent on-disk plan cache",
                "ROADMAP cache sharing across processes; emmapc --cache-dir");
  const std::string dir =
      (fs::temp_directory_path() / ("emmplan_bench_" + std::to_string(::getpid()))).string();
  fs::remove_all(dir);
  tiers(dir);
  corruptionFallback(dir);
  fs::remove_all(dir);
  std::printf("\n  reading: a disk-warm start replaces the pipeline with one file read +\n"
              "  checksummed deserialization; memory-warm remains the fastest tier; a\n"
              "  corrupt entry costs one cold compile, never a failure\n");
  return 0;
}
