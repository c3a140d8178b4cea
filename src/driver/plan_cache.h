// PlanCache: memoized compilation results for the service layer.
//
// The benches and any service built on emm::Compiler re-compile identical
// blocks constantly (the same ME/matmul shapes with the same options). A
// PlanCache keys a finished CompileResult on the structural fingerprint of
// the source block plus the canonical hash of the option set (plus the
// skipped-pass set), and hands out copies that share the entry's immutable
// blocks and ASTs, so a warm compile costs a few reference counts instead
// of the full pipeline.
//
// What is cached: the complete, re-emittable plan products — the rendered
// artifact, the tiled kernel / scratchpad unit IR, the data plan, the
// tile-search outcome, the diagnostics, and the per-pass timings of the
// producing run (a hit's timings describe how the plan was originally
// built; CompileResult::cacheHit tells the two apart). Only `ok` results
// are inserted. Pipelines with replaced passes are never cached (arbitrary
// code cannot be fingerprinted); Compiler::compile() skips the cache for
// them.
//
// Sharding: at daemon traffic levels a single cache mutex, not the
// pipeline, is the throughput ceiling — every warm hit serializes on it.
// The cache is therefore split into N shards (N = next power of two of the
// hardware concurrency by default, clamped so every shard owns at least one
// entry of capacity), selected by a mixed fingerprint of the key. Each
// shard has its own mutex, LRU recency list, in-flight map and counters,
// so requests for different shards never contend. Capacity is split across
// the shards (shard i gets capacity/N, the remainder distributed one
// each), and eviction is per shard: the shard's least recently USED entry
// goes, not its oldest insert. Hits re-touch their entry — under the shard
// mutex when the lookup already holds it, and via try_lock from the
// lock-free snapshot path, so a warm hit never blocks on a writer (a
// skipped touch under contention makes the recency order approximate;
// with `shards = 1` and no concurrency it is exact). A single-shard cache
// (`shards = 1`) reproduces the old global single-mutex behavior exactly —
// tests that need deterministic global eviction order and benchmark
// baselines use it.
//
// Lock-free warm path: every mutation republishes the shard's entry map as
// an immutable copy-on-write snapshot behind a `std::atomic<
// std::shared_ptr<const ...>>` (an epoch publication: writers install a new
// epoch under the shard mutex; readers atomically load whichever epoch is
// current). Result and family lookups probe the snapshot first and touch
// the shard mutex only on a snapshot miss (cold key, or a key whose epoch
// has not propagated yet) — a warm hit performs zero lock acquisitions. A
// stale snapshot can only under-report (a just-inserted key falls through
// to the mutex path; a just-evicted entry is served one last time, exactly
// as if the lookup had run before the eviction), never serve a wrong plan:
// entries are immutable once published and keyed by collision-guarded
// fingerprints.
//
// Encoded replies: each result-tier entry also memoizes the
// serializeCompileResult bytes of its result (lookupEncoded). The first
// replay that asks encodes them, once, under the entry's own once-flag —
// never at insert and never under a shard lock — and every later replay
// shares the same immutable string. The bytes live and die with the entry,
// so the memo is bounded by the result tier's capacity. They are kept next
// to the result, not inside it: a copy of a CompileResult may be overlaid
// (the runtime binder does exactly that), and a memo travelling with the
// copy would describe the original.
//
// Counters are per-shard relaxed atomics. Hit counts are bumped off-lock on
// the snapshot path; miss/eviction counts flip under the shard mutex, so a
// stats() snapshot of one shard is internally coherent (entries never
// exceed misses) and totals across shards are exact once traffic quiesces.
//
// This is the first tier of a two-tier hierarchy: driver/disk_cache.h
// persists plans across processes, and Compiler::compile() resolves
// memory hit -> disk hit (promoted here) -> cold compile.
//
// Single-flight: getOrCompute() collapses concurrent misses on the same key
// to ONE pipeline run. The first caller becomes the leader and computes;
// followers block on a per-key in-flight latch and receive the leader's
// result as a cache hit, so a batch of identical kernels performs exactly
// one compile no matter how many workers race. The latch, like everything
// keyed, lives on the key's shard: a leader failure wakes exactly the
// followers parked on that shard's condition variable.
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "support/fingerprint.h"

namespace emm {

/// Cache key: (block fingerprint, options fingerprint, skipped-pass set).
struct PlanKey {
  u64 block = 0;    ///< hashProgramBlock of the source
  u64 options = 0;  ///< hashCompileOptions of the effective option set
  u64 passes = 0;   ///< digest of the sorted skipped-pass names

  auto operator<=>(const PlanKey&) const = default;
};

/// Memoizes finished CompileResults by PlanKey (see file comment).
class PlanCache {
public:
  /// Counter totals aggregated over the shards. Each shard's contribution
  /// is read coherently (entries with the misses that produced them), so
  /// cross-field invariants like entries <= misses hold in every snapshot;
  /// totals are exact whenever no lookup is concurrently in flight.
  struct Stats {
    i64 hits = 0;       ///< lookups served from the cache
    i64 misses = 0;     ///< lookups that fell through (or led a compute)
    i64 entries = 0;    ///< results currently stored
    i64 evictions = 0;  ///< entries dropped by the capacity bound
    // Family tier (size-generic kernel-family plans; see family_plan.h).
    i64 familyHits = 0;       ///< family lookups served from the tier
    i64 familyMisses = 0;     ///< family lookups that fell through
    i64 familyEntries = 0;    ///< family plans currently stored
    i64 familyEvictions = 0;  ///< family plans dropped by the capacity bound
  };

  /// `capacity` = max entries before insertion-order eviction (>= 1),
  /// split across the shards. `shards` = 0 picks the next power of two of
  /// the hardware concurrency (clamped so each shard owns capacity);
  /// `shards` = 1 is the exact single-mutex behavior of the pre-sharded
  /// cache. Non-power-of-two counts are rounded up.
  explicit PlanCache(size_t capacity = 1024, size_t shards = 0);

  /// Number of shards actually in use (a power of two).
  size_t shardCount() const { return shardCount_; }
  /// Index of the shard serving a result key or a family key — stable for
  /// a given shard count. Exposed for shard-boundary tests and diagnostics.
  template <class Key>
    requires std::same_as<Key, PlanKey> || std::same_as<Key, FamilyKey>
  size_t shardOf(const Key& key) const {
    return shardIndex(hashCombine(key.block, hashCombine(key.options, key.passes)));
  }

  /// Returns a copy of the cached result (sharing its blocks and ASTs)
  /// with the replay's tier flags, or nullopt (counting a miss). Warm hits
  /// are served from the shard's lock-free snapshot.
  std::optional<CompileResult> lookup(const PlanKey& key);

  /// The serializeCompileResult bytes of the result stored under `key`,
  /// or nullptr. The bytes are encoded by the first call for an entry and
  /// shared by every later one (see file comment). A hit counts like
  /// lookup()'s; a miss counts NOTHING — the caller's compile that follows
  /// (getOrCompute) counts it, so `misses` keeps meaning one fall-through
  /// per compile.
  std::shared_ptr<const std::string> lookupEncoded(const PlanKey& key);

  /// Stores a snapshot of `result` under `key`, overwriting any previous
  /// entry and evicting the shard's least recently used entry when over
  /// its capacity. Both a fresh insert and an overwrite count as a use.
  void insert(const PlanKey& key, const CompileResult& result);

  /// Single-flight lookup-or-compute. Returns a cached result (hit), or —
  /// when another caller is already computing this key — waits on its
  /// in-flight latch and returns that result as a hit. Otherwise the caller
  /// becomes the leader: exactly one miss is counted, `compute` runs
  /// without any lock held, and an `ok` result is stored for followers and
  /// future lookups. A failed leader (result not ok, or compute throws)
  /// releases the key and wakes the followers, which retry — the next one
  /// becomes leader — so failures are never served from the cache.
  CompileResult getOrCompute(const PlanKey& key, const std::function<CompileResult()>& compute);

  // ---- family tier (size-generic kernel-family plans) ------------------
  /// Returns the stored family plan when both the key and the collision
  /// digest match, else nullptr (counting a family miss). The plan is
  /// shared, immutable and safe to use from any thread. Warm hits are
  /// served from the shard's lock-free snapshot.
  std::shared_ptr<const FamilyPlan> lookupFamily(const FamilyKey& key, u64 collisionDigest);
  /// Stores a family plan (first writer wins: a family is built once and
  /// republishing an identical plan is pointless churn). Capacity-bounded
  /// with per-shard least-recently-used eviction like the result tier:
  /// hits re-touch their family, so a hot family survives insert pressure.
  void insertFamily(const FamilyKey& key, u64 collisionDigest,
                    std::shared_ptr<const FamilyPlan> plan);

  Stats stats() const;
  size_t size() const;
  /// Drops entries (both tiers) and resets counters. Coherent across
  /// shards: every shard mutex is held for the duration, so no concurrent
  /// observer sees a half-cleared cache through the mutex path.
  void clear();

  /// Process-wide cache shared by every Compiler that enables caching
  /// without supplying its own.
  static PlanCache& global();

private:
  /// Result-tier entry: the immutable stored result and the memo of its
  /// encoded bytes (see file comment).
  class ResultEntry {
  public:
    explicit ResultEntry(const CompileResult& r) : result(r) {}
    const CompileResult result;
    /// serializeCompileResult(result), encoded on the first call.
    std::shared_ptr<const std::string> encoded() const;

  private:
    mutable std::once_flag encodeOnce_;
    mutable std::shared_ptr<const std::string> encoded_;
  };

  /// Per-key latch for in-flight computations. `done` flips under the
  /// owning shard's mutex; `result` is null when the leader failed.
  struct InFlight {
    bool done = false;
    std::shared_ptr<const ResultEntry> result;
  };

  /// Family-tier entry: the shared plan plus the digest guarding the
  /// 64-bit key against collisions.
  struct FamilyEntry {
    u64 digest = 0;
    std::shared_ptr<const FamilyPlan> plan;
  };

  using ResultMap = std::map<PlanKey, std::shared_ptr<const ResultEntry>>;
  using FamilyMap = std::map<FamilyKey, FamilyEntry>;

  /// One independently locked slice of the cache (see file comment).
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable flightDone;
    size_t capacity = 1;  ///< this shard's slice of the entry budget
    // Authoritative state; every access under `mutex`.
    ResultMap entries;
    std::map<PlanKey, std::shared_ptr<InFlight>> inflight;
    // LRU recency order (front = coldest) with O(1) re-touch via the
    // iterator map; hits splice their key to the back.
    std::list<PlanKey> lruOrder;
    std::map<PlanKey, std::list<PlanKey>::iterator> lruPos;
    // The family tier keeps the same recency discipline: a hot family is
    // hit from the snapshot for its whole life, so without a re-touch it
    // would age toward the cold end and be evicted under insert pressure.
    FamilyMap families;
    std::list<FamilyKey> familyOrder;
    std::map<FamilyKey, std::list<FamilyKey>::iterator> familyPos;
    // Epoch-published immutable copies for the lock-free warm path;
    // republished (store-release) after every mutation under `mutex`.
    std::atomic<std::shared_ptr<const ResultMap>> snapshot;
    std::atomic<std::shared_ptr<const FamilyMap>> familySnapshot;
    // Relaxed counters. Hits flip off-lock; the rest under `mutex`.
    std::atomic<i64> hits{0};
    std::atomic<i64> misses{0};
    std::atomic<i64> evictions{0};
    std::atomic<i64> familyHits{0};
    std::atomic<i64> familyMisses{0};
    std::atomic<i64> familyEvictions{0};
  };

  /// Shard index of a combined key hash.
  size_t shardIndex(u64 keyHash) const;
  template <class Key>
  Shard& shardFor(const Key& key) const {
    return shards_[shardOf(key)];
  }

  /// The one find-and-touch of a result lookup: probes the lock-free
  /// snapshot, then the authoritative map under the shard mutex; on a find
  /// re-touches the entry and counts a hit. A miss returns nullptr and
  /// counts nothing — each caller decides.
  static std::shared_ptr<const ResultEntry> findHit(Shard& shard, const PlanKey& key);
  /// Inserts a stored entry and republishes; requires shard mutex.
  void insertLocked(Shard& shard, const PlanKey& key, std::shared_ptr<const ResultEntry> entry);
  /// Splices `key` to the hot end of the shard's LRU list; requires shard
  /// mutex. No-op for a key that was evicted in the meantime.
  static void touchLocked(Shard& shard, const PlanKey& key);
  /// Best-effort touch from the lock-free hit path: try_lock, skip on
  /// contention (an approximate recency order beats blocking a warm hit).
  static void touchLockFree(Shard& shard, const PlanKey& key);
  /// Family-tier analogues of the result-tier touch pair.
  static void touchFamilyLocked(Shard& shard, const FamilyKey& key);
  static void touchFamilyLockFree(Shard& shard, const FamilyKey& key);
  /// Publishes the leader's outcome, stores it when non-null, erases the
  /// in-flight entry and wakes the shard's followers.
  void finishFlight(Shard& shard, const PlanKey& key, const std::shared_ptr<InFlight>& flight,
                    std::shared_ptr<const ResultEntry> entry);
  /// A memory replay of `entry`: a copy that shares its products, with
  /// cacheHit set and the serving-tier flags (diskHit, familyHit) cleared.
  /// artifactBound and boundArgs describe the artifact and are kept. The
  /// one place the replay's tier flags are decided.
  static CompileResult replayHit(const CompileResult& entry);

  size_t shardCount_ = 1;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace emm
