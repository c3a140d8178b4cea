// Seeded request streams. Every workload draws in shuffled blocks with a
// fixed composition, so the mix of kernels, backends and envelope sides is
// the same for every seed and only the order and the sizes vary; run-to-run
// spread then reflects the program, not the draw.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "kernels/blocks.h"
#include "support/diagnostics.h"
#include "support/fingerprint.h"

namespace emmbench {

namespace {

const std::vector<std::string> kBackends = {"cuda", "cell"};

/// Defaults of buildKernelByName, the sizes the warm sets use.
std::vector<i64> defaultSizes(const std::string& kernel) {
  emm::IntVec params;
  emm::buildKernelByName(kernel, {}, params);
  return params;
}

Request key(const std::string& kernel, const std::string& backend) {
  Request r;
  r.kernel = kernel;
  r.backend = backend;
  r.sizes = defaultSizes(kernel);
  return r;
}

/// daemon_repeat popularity, hottest first. The order is an assumption,
/// not observed traffic: it stands for users who mostly run the defaults.
/// emmapc's default machine (gpu, so cuda) ranks above cell, and within a
/// backend the kernels follow builtinKernelNames(), which lists me, the
/// default kernel, first.
std::vector<std::pair<std::string, std::string>> repeatByRank() {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const std::string& backend : kBackends)
    for (const std::string& kernel : emm::builtinKernelNames()) keys.emplace_back(kernel, backend);
  return keys;
}

/// Requests per rank in a daemon_repeat block of 100: Zipf with the
/// exponent bench/svc_stress draws with (s = 0.99), rounded to whole counts
/// by largest remainder.
std::vector<int> repeatPerBlock(size_t keys) {
  constexpr int kBlock = 100;
  constexpr double kZipfS = 0.99;
  std::vector<double> share(keys);
  double norm = 0;
  for (size_t r = 0; r < keys; ++r)
    norm += share[r] = std::pow(static_cast<double>(r + 1), -kZipfS);
  std::vector<int> counts(keys);
  std::vector<size_t> byRemainder(keys);
  int left = kBlock;
  for (size_t r = 0; r < keys; ++r) {
    share[r] *= kBlock / norm;
    left -= counts[r] = static_cast<int>(share[r]);
    byRemainder[r] = r;
  }
  std::stable_sort(byRemainder.begin(), byRemainder.end(), [&](size_t a, size_t b) {
    return share[a] - counts[a] > share[b] - counts[b];
  });
  for (int i = 0; i < left; ++i) ++counts[byRemainder[static_cast<size_t>(i)]];
  return counts;
}

}  // namespace

std::vector<Request> warmSet(const std::string& workload) {
  std::vector<Request> keys;
  if (workload == "cold_mix" || workload == "daemon_repeat") {
    for (const auto& [kernel, backend] : repeatByRank()) keys.push_back(key(kernel, backend));
  } else if (workload == "daemon_new_sizes") {
    for (const char* kernel : {"me", "matmul", "jacobi", "jacobi2d"})
      for (const std::string& backend : kBackends) keys.push_back(key(kernel, backend));
  }
  return keys;
}

void configureCompiler(emm::Compiler& c, const Request& r) {
  const bool fig1 = r.kernel == "figure1";
  const bool cell = r.backend == "cell";
  c.parameters(emm::IntVec(r.sizes.begin(), r.sizes.end()))
      .memoryLimitBytes(16 * 1024)
      .innerProcs(cell ? 4 : 32)
      .backend(r.backend)
      .kernelName(fig1 ? r.kernel : r.kernel + "_kernel")
      .scratchpadOnly(fig1)
      .stageEverything(cell || fig1)
      .partition(fig1 ? emm::PartitionMode::PerArrayUnion : emm::PartitionMode::MaximalDisjoint);
}

Stream::Stream(std::string workload, u64 seed)
    : workload_(std::move(workload)), rng_(emm::testgen::mixSeed(seed, 0x656d6d62)) {
  EMM_REQUIRE(workload_ == "cold_mix" || workload_ == "daemon_repeat" ||
                  workload_ == "daemon_new_sizes",
              "unknown workload '" + workload_ + "'");
  // Warm-set and warm-up sizes are never drawn again.
  for (const char* kernel : {"me", "matmul", "jacobi", "jacobi2d"})
    seen_.insert({kernel, defaultSizes(kernel)});
  keys_ = warmSet(workload_);
}

std::vector<i64> Stream::freshSizes(const std::string& kernel, bool outOfEnvelope) {
  if (kernel == "figure1") return {};  // the paper's fixed 200x200 example
  const bool daemon = workload_ == "daemon_new_sizes";
  for (;;) {
    std::vector<i64> s;
    if (kernel == "me") {
      // Inside the ME family's bind envelope nj stays in [96, 240] with
      // w = 16; another window size always needs bind-and-emit.
      s = daemon ? std::vector<i64>{rng_.range(96, 1024), rng_.range(96, 240),
                                    outOfEnvelope ? rng_.pick(std::vector<i64>{8, 32}) : 16}
                 : std::vector<i64>{rng_.range(128, 1024), rng_.range(128, 1024), 16};
    } else if (kernel == "matmul") {
      if (!daemon)
        s = {rng_.range(64, 512), rng_.range(64, 512), rng_.range(64, 512)};
      else if (outOfEnvelope)
        s = {rng_.range(24, 56), rng_.range(24, 56), rng_.range(24, 56)};
      else
        s = {rng_.range(256, 1024), rng_.range(288, 1024), rng_.range(128, 256)};
    } else if (kernel == "jacobi") {
      s = {rng_.range(1024, 16384), rng_.range(16, 256)};
    } else if (kernel == "jacobi2d") {
      s = {rng_.range(64, 256), rng_.range(64, 256), rng_.range(8, 32)};
    } else {
      throw emm::ApiError("no size ranges for kernel '" + kernel + "'");
    }
    if (seen_.insert({kernel, s}).second) return s;
  }
}

void Stream::refillBlock() {
  auto add = [&](const std::string& kernel, const std::string& backend) {
    Request r;
    r.kernel = kernel;
    r.backend = backend;
    block_.push_back(std::move(r));
  };
  if (workload_ == "daemon_repeat") {
    const std::vector<int> perBlock = repeatPerBlock(keys_.size());
    for (size_t rank = 0; rank < keys_.size(); ++rank)
      for (int i = 0; i < perBlock[rank]; ++i) block_.push_back(keys_[rank]);
  } else if (workload_ == "cold_mix") {
    for (const char* kernel : {"me", "matmul", "jacobi2d", "jacobi", "figure1"})
      for (const std::string& backend : kBackends) add(kernel, backend);
  } else if (workload_ == "daemon_new_sizes") {
    // 40 requests, an equal share per family and backend. One in ten of
    // the me and of the matmul requests (5% of all) is drawn outside the
    // bind envelope: a small fixed share of slow requests, on a seeded
    // backend.
    for (const char* kernel : {"me", "matmul", "jacobi", "jacobi2d"})
      for (const std::string& backend : kBackends)
        for (int i = 0; i < 5; ++i) add(kernel, backend);
    // The block holds the me requests at 0-9 and the matmul ones at 10-19.
    block_[static_cast<size_t>(rng_.range(0, 9))].outOfEnvelope = true;
    block_[static_cast<size_t>(rng_.range(10, 19))].outOfEnvelope = true;
  }
  for (size_t i = block_.size(); i > 1; --i)
    std::swap(block_[i - 1], block_[static_cast<size_t>(rng_.range(0, static_cast<i64>(i) - 1))]);
}

Request Stream::next() {
  if (block_.empty()) refillBlock();
  Request r = std::move(block_.back());
  block_.pop_back();
  if (workload_ != "daemon_repeat") {
    r.sizes = freshSizes(r.kernel, r.outOfEnvelope);
  }
  r.id = nextId_++;
  return r;
}

u64 Stream::prefixHash(const std::string& workload, u64 seed, int count) {
  Stream s(workload, seed);
  emm::Hasher h;
  for (int i = 0; i < count; ++i) {
    const Request r = s.next();
    h.mix(r.id);
    h.mix(r.kernel);
    h.mix(r.backend);
    h.mix(r.sizes);
    h.mix(r.outOfEnvelope);
  }
  return h.digest();
}

}  // namespace emmbench
