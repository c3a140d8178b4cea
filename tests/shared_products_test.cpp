// Tests for shared, immutable pipeline products.
//
// Program blocks and unit ASTs are held by shared_ptr<const T>, so a copy of
// a result, a memory-cache hit and a family bind share them rather than
// copying them. These tests pin both halves of that contract:
//  - sharing is real: copies, hits and binds point at the record's blocks
//    and AST by pointer equality;
//  - sharing never aliases: mutating a returned result, or binding other
//    sizes, never changes what the cache or the family record serves, and
//    every back-pointer of a result points into blocks that result holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace emm {
namespace {

/// The sweep configuration of the family tests: cuda, 16 KB scratchpad.
Compiler familyCompiler(const std::string& kernel, const std::vector<i64>& sizes,
                        PlanCache& cache) {
  IntVec params;
  Compiler c(buildKernelByName(kernel, sizes, params));
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda").cache(&cache);
  return c;
}

ProgramBlock blockOf(const std::string& kernel, const std::vector<i64>& sizes) {
  IntVec params;
  return buildKernelByName(kernel, sizes, params);
}

/// The jacobi/cell scratchpad-only configuration of
/// FamilyTierTest.ScratchpadOnlyCellSweepIsByteIdentical.
Compiler scratchpadCompiler(i64 n, i64 t, PlanCache& cache) {
  Compiler c(buildJacobiBlock(n, t));
  c.parameters({n, t})
      .scratchpadOnly(true)
      .stageEverything(true)
      .backend("cell")
      .memoryLimitBytes(16 * 1024)
      .cache(&cache);
  return c;
}

/// Serialized bytes with the wall-clock timings blanked: a bind records
/// its own duration, which is the only field that may differ per call.
std::string bytesOf(CompileResult r) {
  for (PassTiming& t : r.timings) t.millis = 0;
  return serializeCompileResult(r);
}

/// The family record stored in `cache` for a member of the family of
/// `block` compiled under `options` with no skipped pass.
std::shared_ptr<const CompileResult> familyRecord(PlanCache& cache, const ProgramBlock& block,
                                                  const CompileOptions& options) {
  const ProgramBlock famBlock = familyCanonicalBlock(block);
  const CompileOptions famOptions = familyCanonicalOptions(options);
  FamilyKey key;
  key.block = hashProgramBlock(famBlock);
  key.options = hashCompileOptions(famOptions);
  Hasher passes;
  passes.mix(std::vector<std::string>{});
  key.passes = passes.digest();
  const u64 digest = hashCombine(digestBytes(serializeProgramBlock(famBlock)),
                                 digestBytes(serializeCompileOptions(famOptions)));
  std::shared_ptr<const FamilyPlan> family = cache.lookupFamily(key, digest);
  return family == nullptr ? nullptr : family->record;
}

const AstNode* rootOf(const CompileResult& r) {
  return r.unit() == nullptr ? nullptr : r.unit()->root.get();
}

/// Every back-pointer of `r` lands on a block `r` itself holds.
void expectOwnBackPointers(const CompileResult& r) {
  const std::vector<const ProgramBlock*> own = {
      r.input.get(), r.transformed.get(),
      r.kernel ? r.kernel->analysis.tileBlock.get() : nullptr};
  auto owned = [&](const ProgramBlock* p) {
    return p != nullptr && std::find(own.begin(), own.end(), p) != own.end();
  };
  if (r.kernel) {
    EXPECT_EQ(r.kernel->unit.source, r.kernel->analysis.tileBlock.get());
    EXPECT_EQ(r.kernel->analysis.plan.block, r.kernel->analysis.tileBlock.get());
  }
  if (r.scratchpadUnit) {
    EXPECT_TRUE(owned(r.scratchpadUnit->source));
  }
  if (r.blockPlan && r.blockPlan->block != nullptr) {
    EXPECT_TRUE(owned(r.blockPlan->block));
  }
}

/// Mutates every per-request field of a returned result.
void scribble(CompileResult& r) {
  r.artifact = "scribbled";
  r.search.subTile.assign(r.search.subTile.size(), 1);
  r.search.eval.cost = -1;
  r.diagnostics.push_back({Severity::Error, "test", "scribbled"});
  r.boundArgs.emplace_back("scribbled", 7);
}

/// Copy and memory-hit checks shared by the tiled and scratchpad-only
/// configurations.
void expectCopyAndHitShare(Compiler& c) {
  CompileResult cold = c.compile();
  ASSERT_TRUE(cold.ok) << cold.firstError();
  ASSERT_NE(rootOf(cold), nullptr);

  const CompileResult copy = cold;
  EXPECT_EQ(copy.input.get(), cold.input.get());
  EXPECT_EQ(rootOf(copy), rootOf(cold));
  expectOwnBackPointers(copy);

  CompileResult hit = c.compile();
  ASSERT_TRUE(hit.cacheHit);
  EXPECT_EQ(hit.input.get(), cold.input.get());
  EXPECT_EQ(rootOf(hit), rootOf(cold));
  expectOwnBackPointers(hit);

  const std::string bytes = bytesOf(hit);
  scribble(hit);
  CompileResult next = c.compile();
  ASSERT_TRUE(next.cacheHit);
  EXPECT_EQ(bytesOf(next), bytes);
  EXPECT_TRUE(next.boundArgs.empty());
}

TEST(SharedProducts, TiledCopyAndHitShareBlocksAndAst) {
  PlanCache cache;
  Compiler c = familyCompiler("me", {}, cache);
  expectCopyAndHitShare(c);
}

TEST(SharedProducts, ScratchpadOnlyCopyAndHitShareBlocksAndAst) {
  PlanCache cache;
  Compiler c = scratchpadCompiler(512, 16, cache);
  expectCopyAndHitShare(c);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.scratchpadUnit.has_value());
  ASSERT_TRUE(r.blockPlan.has_value());
  EXPECT_EQ(r.scratchpadUnit->source, r.input.get());
  EXPECT_EQ(r.blockPlan->block, r.input.get());
}

/// Binds of the `kernel` family record (built at the default size) at
/// `sizes`, all of which lie inside the record's envelope.
void expectBindsShareTheRecord(const std::string& kernel,
                               const std::vector<std::vector<i64>>& sizes) {
  PlanCache cache;
  Compiler seed = familyCompiler(kernel, {}, cache);
  const ProgramBlock recordBlock = blockOf(kernel, {});
  ASSERT_TRUE(seed.compile().ok);
  std::shared_ptr<const CompileResult> record = familyRecord(cache, recordBlock, seed.opts());
  ASSERT_NE(record, nullptr);
  const std::string recordBytes = bytesOf(*record);
  const std::vector<ArrayDecl> recordArrays = record->input->arrays;

  // A bind at the record's own size changes no extents: it shares every
  // block, and the AST, with the record.
  std::optional<CompileResult> same = seed.tryBindFamily(recordBlock);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->input.get(), record->input.get());
  EXPECT_EQ(same->kernel->analysis.tileBlock.get(), record->kernel->analysis.tileBlock.get());
  EXPECT_EQ(rootOf(*same), rootOf(*record));
  expectOwnBackPointers(*same);

  for (const std::vector<i64>& size : sizes) {
    SCOPED_TRACE(std::to_string(size[0]) + "," + std::to_string(size[1]) + "," +
                 std::to_string(size[2]));
    const ProgramBlock request = blockOf(kernel, size);
    CompileResult bound = familyCompiler(kernel, size, cache).compile();
    ASSERT_TRUE(bound.ok) << bound.firstError();
    ASSERT_TRUE(bound.artifactBound);
    EXPECT_EQ(rootOf(bound), rootOf(*record));
    EXPECT_EQ(bound.input->arrays, request.arrays);
    EXPECT_EQ(bound.transformed->arrays, request.arrays);
    EXPECT_EQ(bound.kernel->analysis.tileBlock->arrays, request.arrays);
    EXPECT_NE(bound.input.get(), record->input.get());
    expectOwnBackPointers(bound);

    // Scribbling on the bound result reaches neither the record nor the
    // result tier's copy of it.
    const std::string boundBytes = bytesOf(bound);
    scribble(bound);
    CompileResult replay = familyCompiler(kernel, size, cache).compile();
    ASSERT_TRUE(replay.cacheHit);
    EXPECT_EQ(bytesOf(replay), boundBytes);
  }
  EXPECT_EQ(record->input->arrays, recordArrays);
  EXPECT_EQ(bytesOf(*record), recordBytes);
}

TEST(SharedProducts, MeBindsShareTheRecordAndCarryTheRequestExtents) {
  expectBindsShareTheRecord("me", {{512, 128, 16}, {256, 256, 256}});
}

TEST(SharedProducts, MatmulBindsShareTheRecordAndCarryTheRequestExtents) {
  expectBindsShareTheRecord("matmul", {{512, 128, 16}, {256, 256, 256}, {64, 64, 64}});
}

TEST(SharedProducts, ReplayOfABoundSizeKeepsItsArtifactFlags) {
  // The artifact of a bound size is the size-generic record's text, and it
  // needs the bound arguments; a memory replay keeps both and reports the
  // tier that served it.
  PlanCache cache;
  ASSERT_TRUE(familyCompiler("me", {}, cache).compile().ok);
  CompileResult bind = familyCompiler("me", {512, 128, 16}, cache).compile();
  ASSERT_TRUE(bind.ok) << bind.firstError();
  EXPECT_FALSE(bind.cacheHit);
  EXPECT_TRUE(bind.familyHit);
  EXPECT_TRUE(bind.artifactBound);
  EXPECT_FALSE(bind.boundArgs.empty());

  CompileResult replay = familyCompiler("me", {512, 128, 16}, cache).compile();
  ASSERT_TRUE(replay.ok);
  EXPECT_TRUE(replay.cacheHit);
  EXPECT_FALSE(replay.diskHit);
  EXPECT_FALSE(replay.familyHit);
  EXPECT_TRUE(replay.artifactBound);
  EXPECT_EQ(replay.boundArgs, bind.boundArgs);
  EXPECT_EQ(replay.artifact, bind.artifact);
}

TEST(SharedProducts, ConcurrentHitsAndBindsOnOneRecord) {
  // Four threads hit the record's own size and bind two others at once;
  // every result must serialize to the single-threaded bytes and compute
  // what the source block computes. Sizes are small so the interpreter
  // stays cheap under TSan.
  const std::vector<i64> recordSize = {64, 64, 32};
  const std::vector<std::vector<i64>> sizes = {recordSize, {64, 32, 32}, {64, 64, 16}};
  PlanCache cache;
  ASSERT_TRUE(familyCompiler("matmul", recordSize, cache).compile().ok);

  struct Expected {
    ProgramBlock block;
    IntVec params;
    std::string bytes;
    std::unique_ptr<ArrayStore> reference;
  };
  std::vector<Expected> expected;
  for (const std::vector<i64>& size : sizes) {
    Expected e;
    e.block = buildKernelByName("matmul", size, e.params);
    Compiler c = familyCompiler("matmul", size, cache);
    std::optional<CompileResult> r =
        size == recordSize ? std::optional<CompileResult>(c.compile()) : c.tryBindFamily(e.block);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->ok);
    EXPECT_TRUE(size == recordSize ? r->cacheHit : r->artifactBound);
    e.bytes = bytesOf(*r);
    e.reference = std::make_unique<ArrayStore>(e.block.arrays);
    e.reference->fillAllPattern(3);
    executeReference(e.block, e.params, *e.reference);
    expected.push_back(std::move(e));
  }

  std::vector<std::string> failures(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < failures.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < sizes.size(); ++i) {
        const Expected& e = expected[(i + t) % sizes.size()];
        Compiler c = familyCompiler("matmul", sizes[(i + t) % sizes.size()], cache);
        std::optional<CompileResult> r =
            (i + t) % sizes.size() == 0 ? std::optional<CompileResult>(c.compile())
                                        : c.tryBindFamily(e.block);
        if (!r.has_value() || !r->ok || r->unit() == nullptr) {
          failures[t] += "no result; ";
          continue;
        }
        if (bytesOf(*r) != e.bytes) failures[t] += "bytes differ; ";
        IntVec ext = e.params;
        ext.resize(r->unit()->source->paramNames.size(), 0);
        ArrayStore store(r->input->arrays);
        store.fillAllPattern(3);
        executeCodeUnit(*r->unit(), ext, store);
        if (ArrayStore::maxAbsDiff(store, *e.reference) != 0.0) failures[t] += "values differ; ";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < failures.size(); ++t) EXPECT_EQ(failures[t], "") << "thread " << t;
}

}  // namespace
}  // namespace emm
