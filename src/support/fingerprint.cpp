#include "support/fingerprint.h"

#include <cstring>

#include "support/schema.h"

namespace emm {

namespace {

constexpr u64 kFnvPrime = 1099511628211ull;

}  // namespace

void Hasher::bytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    state_ ^= p[i];
    state_ *= kFnvPrime;
  }
}

void Hasher::mix(i64 v) {
  unsigned char buf[8];
  u64 u = static_cast<u64>(v);
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(u >> (8 * i));
  bytes(buf, 8);
}

void Hasher::mix(u64 v) { mix(static_cast<i64>(v)); }

void Hasher::mix(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void Hasher::mix(const std::string& s) {
  mix(static_cast<i64>(s.size()));
  bytes(s.data(), s.size());
}

void Hasher::mix(const std::vector<i64>& v) {
  mix(static_cast<i64>(v.size()));
  for (i64 x : v) mix(x);
}

void Hasher::mix(const std::vector<std::vector<i64>>& v) {
  mix(static_cast<i64>(v.size()));
  for (const std::vector<i64>& inner : v) mix(inner);
}

void Hasher::mix(const std::vector<std::string>& v) {
  mix(static_cast<i64>(v.size()));
  for (const std::string& s : v) mix(s);
}

u64 hashCombine(u64 a, u64 b) {
  Hasher h;
  h.mix(a);
  h.mix(b);
  return h.digest();
}

// The key hashes walk the same field lists as the serializer
// (support/schema.h), so a field added to either struct joins its key.

u64 hashProgramBlock(const ProgramBlock& block) {
  Hasher h;
  schema::hash(h, block);
  return h.digest();
}

u64 hashCompileOptions(const CompileOptions& options) {
  Hasher h;
  schema::hash(h, options);
  return h.digest();
}

}  // namespace emm
