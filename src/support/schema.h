// Field lists: the one place each persisted struct names its fields.
//
// A persisted struct T declares its fields once, as a list over a visitor:
//
//   template <class V, Is<T> S>
//   void fields(V& v, S& t) {
//     v.tag(kTagT, "T");              // composite tag byte + manifest name
//     v(t.count, "count");            // plain field
//     v(t.kind, "kind", T::Kind::Z);  // enum: its highest valid value
//     v(t.rank, "rank", kShape);      // int under the structural sanity cap
//     v(t.next, "next", kOptional);   // nullable pointer: presence byte first
//     v.onDecode(t, check);           // cross-check run after decoding
//   }
//
// Four visitors walk every list:
//  - Encoder writes the little-endian byte encoding through a ByteWriter;
//  - Decoder reads it back through a ByteReader with every hostile-input
//    check: tags, enum ranges, shape caps, counts validated before
//    allocation, booleans restricted to 0/1, nesting depth limits;
//  - Describer renders the schema manifest that serializeSchemaFingerprint()
//    digests, so a layout change retires stale .emmplan files by itself;
//  - HashVisitor feeds a Hasher for the cache keys (hashProgramBlock,
//    hashCompileOptions).
// Adding a field is therefore one line in its list.
//
// Generic field types: bool, int, i64, u64, double, std::string, enums (with
// their max), std::vector (list tag + count + elements), std::pair (both
// halves), std::optional (presence byte + value), and std::unique_ptr /
// std::shared_ptr<const T> (non-null unless marked kOptional). Types that
// are not plain field lists — matrices, polyhedra, expression trees —
// specialize Codec<T> with hand-written encode/decode/hash and a fixed
// manifest entry. A rule object that is invocable as rule(visitor, field,
// name) takes over a field entirely (see BlockRef in serialize.cpp).
//
// Field lists live in this namespace so the visitors find them by
// argument-dependent lookup; the lists shared by several translation units
// (the program block and the compile options) are at the bottom of this
// header, the plan products' in serialize.cpp and the wire payloads' in
// service/protocol.cpp.
#pragma once

#include <concepts>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "driver/options.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace emm::schema {

// One tag byte opens every composite value; a reader that lands on the
// wrong byte (truncation, bit flip, format drift) fails on the tag instead
// of misparsing the following fields as something else.
enum : unsigned char {
  kTagIntMat = 0x01,
  kTagPolyhedron,
  kTagDivExpr,
  kTagDimBounds,
  kTagExpr,
  kTagAccess,
  kTagStatement,
  kTagArrayDecl,
  kTagProgramBlock,
  kTagAffExpr,
  kTagBoundExpr,
  kTagAstNode,
  kTagLocalBuffer,
  kTagCodeUnit,
  kTagDependence,
  kTagLoopDepSummary,
  kTagParallelismPlan,
  kTagBufferTerm,
  kTagTileEvaluation,
  kTagTileSearchResult,
  kTagGeometryHint,
  kTagSmemOptions,
  kTagRefSummary,
  kTagPartitionPlan,
  kTagDataPlan,
  kTagTileAnalysis,
  kTagTiledKernel,
  kTagDiagnostic,
  kTagPassTiming,
  kTagPipelineProducts,
  kTagCompileResult,
  kTagCompileOptions,
  kTagSymExpr,
  kTagPairPredicate,
  kTagRefFormula,
  kTagComponentFormula,
  kTagArrayFormula,
  kTagGeometryRecord,
  kTagTileSearchOptions,
  kTagSizeBinding,
  kTagParametricPlan,
  kTagFamilyPlan,
  kTagBufferLayoutEntry,
  kTagBufferLayout,
  kTagBindSlot,
  kTagFamilyGuard,
  kTagArtifactInfo,
  kTagList = 0xA0,
};

// Structural sanity cap for dimension/shape fields. Nothing in this
// codebase approaches it; a corrupt shape larger than this is rejected
// before any EMM_CHECK (which would abort) can see it.
inline constexpr i64 kMaxShape = 1 << 20;

void expectTag(ByteReader& r, unsigned char tag, const char* what);
/// Reads a non-negative shape/dimension field capped at kMaxShape.
int readShape(ByteReader& r, const char* what);

/// `S` is `T`, possibly const: field lists take const structs when
/// encoding, describing or hashing and mutable ones when decoding.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

// ---- Field rules ---------------------------------------------------------

/// int field read under the kMaxShape cap (negative values rejected too).
struct Shape {};
inline constexpr Shape kShape;
/// Nullable pointer field: a presence byte precedes the value.
struct Optional {};
inline constexpr Optional kOptional;
/// List of tree nodes: the decoder rejects nesting deeper than `limit`.
struct MaxDepth {
  int limit;
};

/// Hand-written codec for a type that is not a plain field list. A
/// specialization provides kTag, kSchema (its manifest entry, "Name{...}"),
/// encode(ByteWriter&, const T&), decode(ByteReader&) and, where the type
/// takes part in a cache key, hash(Hasher&, const T&).
template <class T>
struct Codec;

template <>
struct Codec<IntMat> {
  static constexpr unsigned char kTag = kTagIntMat;
  static constexpr const char* kSchema = "IntMat{rows:int,cols:int,data:i64*}";
  static void encode(ByteWriter& w, const IntMat& m);
  static IntMat decode(ByteReader& r);
  static void hash(Hasher& h, const IntMat& m);
};

template <>
struct Codec<Polyhedron> {
  static constexpr unsigned char kTag = kTagPolyhedron;
  static constexpr const char* kSchema =
      "Polyhedron{dim:int,nparam:int,eqs:IntMat,ineqs:IntMat,empty:bool}";
  static void encode(ByteWriter& w, const Polyhedron& p);
  static Polyhedron decode(ByteReader& r);
  static void hash(Hasher& h, const Polyhedron& p);
};

template <>
struct Codec<ExprPtr> {
  static constexpr unsigned char kTag = kTagExpr;
  static constexpr const char* kSchema = "Expr{kind:enum,const:f64|load:int|lhs:Expr,rhs:Expr}";
  static void encode(ByteWriter& w, const ExprPtr& e);
  static ExprPtr decode(ByteReader& r, int depth = 0);
  static void hash(Hasher& h, const ExprPtr& e);
};

/// How the engine makes the empty value it decodes into (or describes);
/// specialized for types whose default constructor is not public.
template <class T>
struct Blank {
  static T make() { return T(); }
};

namespace detail {

template <class T>
concept HasCodec = requires { Codec<T>::kSchema; };

template <class T>
struct IsVec : std::false_type {};
template <class T, class A>
struct IsVec<std::vector<T, A>> : std::true_type {};
template <class T>
struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T>
struct IsOpt : std::false_type {};
template <class T>
struct IsOpt<std::optional<T>> : std::true_type {};
template <class T>
struct IsPtr : std::false_type {};
template <class T>
struct IsPtr<std::unique_ptr<T>> : std::true_type {};
template <class T>
struct IsPtr<std::shared_ptr<T>> : std::true_type {};

template <class T>
concept Scalar = std::same_as<T, bool> || std::same_as<T, int> || std::same_as<T, i64> ||
                 std::same_as<T, u64> || std::same_as<T, double> || std::same_as<T, std::string>;

/// Fewest bytes one encoded element can occupy; a list count is checked
/// against the remaining input with it before anything is allocated.
template <class T>
constexpr u64 minBytes() {
  if constexpr (std::same_as<T, bool>)
    return 1;
  else if constexpr (Scalar<T>)
    return 8;  // fixed-width number or length prefix
  else if constexpr (IsPair<T>::value)
    return minBytes<typename T::first_type>() + minBytes<typename T::second_type>();
  else
    return 1;  // a tag, presence or discriminator byte
}

template <class Rule, class V, class F>
concept CustomRule = std::invocable<const Rule&, V&, F&, const char*>;

}  // namespace detail

template <class T>
T blank() {
  return Blank<T>::make();
}

// ---- Visitors ------------------------------------------------------------

class Encoder {
public:
  explicit Encoder(ByteWriter& w) : w(w) {}
  ByteWriter& w;

  void tag(unsigned char t, const char*) { w.u8(t); }
  bool present(bool flag) { return flag; }
  template <class T, class F>
  void onDecode(const T&, F) {}

  template <class F>
  void operator()(const F& f, const char* name) {
    put(f, name);
  }
  template <class F, class Rule>
  void operator()(const F& f, const char* name, const Rule& rule) {
    if constexpr (detail::CustomRule<Rule, Encoder, const F>) {
      rule(*this, f, name);
    } else if constexpr (std::same_as<Rule, Optional>) {
      w.boolean(f != nullptr);
      if (f != nullptr) put(f, name);
    } else if constexpr (std::is_enum_v<F>) {
      static_assert(std::same_as<Rule, F>, "an enum field's rule is its max value");
      w.i64v(static_cast<i64>(f));
    } else {
      static_assert(std::same_as<Rule, Shape> || std::same_as<Rule, MaxDepth>);
      put(f, name);
    }
  }

  template <class F>
  void put(const F& f, const char* name) {
    if constexpr (detail::HasCodec<F>) {
      Codec<F>::encode(w, f);
    } else if constexpr (std::same_as<F, bool>) {
      w.boolean(f);
    } else if constexpr (std::same_as<F, int> || std::same_as<F, i64>) {
      w.i64v(f);
    } else if constexpr (std::same_as<F, u64>) {
      w.u64v(f);
    } else if constexpr (std::same_as<F, double>) {
      w.f64(f);
    } else if constexpr (std::same_as<F, std::string>) {
      w.str(f);
    } else if constexpr (detail::IsVec<F>::value) {
      w.u8(kTagList);
      w.u64v(f.size());
      for (const auto& e : f) put(e, name);
    } else if constexpr (detail::IsPair<F>::value) {
      put(f.first, name);
      put(f.second, name);
    } else if constexpr (detail::IsOpt<F>::value) {
      w.boolean(f.has_value());
      if (f) put(*f, name);
    } else if constexpr (detail::IsPtr<F>::value) {
      if (f == nullptr) throw SerializeError(std::string("null ") + name);
      put(*f, name);
    } else {
      fields(*this, f);
    }
  }
};

class Decoder {
public:
  explicit Decoder(ByteReader& r) : r(r) {}
  ByteReader& r;

  void tag(unsigned char t, const char* name) { expectTag(r, t, name); }
  bool present(bool flag) { return flag; }
  template <class T, class F>
  void onDecode(T& t, F check) {
    check(t);
  }

  template <class F>
  void operator()(F& f, const char* name) {
    get(f, name);
  }
  template <class F, class Rule>
  void operator()(F& f, const char* name, const Rule& rule) {
    if constexpr (detail::CustomRule<Rule, Decoder, F>) {
      rule(*this, f, name);
    } else if constexpr (std::same_as<Rule, Optional>) {
      if (r.boolean()) get(f, name);
    } else if constexpr (std::same_as<Rule, Shape>) {
      f = readShape(r, name);
    } else if constexpr (std::same_as<Rule, MaxDepth>) {
      if (++depth_ > rule.limit) throw SerializeError(std::string(name) + " nesting too deep");
      get(f, name);
      --depth_;
    } else {
      static_assert(std::is_enum_v<F> && std::same_as<Rule, F>);
      const i64 v = r.i64v();
      if (v < 0 || v > static_cast<i64>(rule))
        throw SerializeError(std::string("out-of-range ") + name + " value " + std::to_string(v));
      f = static_cast<F>(v);
    }
  }

  template <class F>
  void get(F& f, const char* name) {
    if constexpr (detail::HasCodec<F>) {
      f = Codec<F>::decode(r);
    } else if constexpr (std::same_as<F, bool>) {
      f = r.boolean();
    } else if constexpr (std::same_as<F, int>) {
      f = r.intv();
    } else if constexpr (std::same_as<F, i64>) {
      f = r.i64v();
    } else if constexpr (std::same_as<F, u64>) {
      f = r.u64v();
    } else if constexpr (std::same_as<F, double>) {
      f = r.f64();
    } else if constexpr (std::same_as<F, std::string>) {
      f = r.str();
    } else if constexpr (detail::IsVec<F>::value) {
      using E = typename F::value_type;
      expectTag(r, kTagList, name);
      const u64 n = r.count(detail::minBytes<E>());
      if constexpr (std::is_arithmetic_v<E>) f.reserve(n);
      for (u64 i = 0; i < n; ++i) {
        E e = blank<E>();
        get(e, name);
        f.push_back(std::move(e));
      }
    } else if constexpr (detail::IsPair<F>::value) {
      get(f.first, name);
      get(f.second, name);
    } else if constexpr (detail::IsOpt<F>::value) {
      if (r.boolean()) get(f.emplace(blank<typename F::value_type>()), name);
    } else if constexpr (detail::IsPtr<F>::value) {
      using E = std::remove_const_t<typename F::element_type>;
      auto p = std::make_unique<E>(blank<E>());
      get(*p, name);
      f = std::move(p);
    } else {
      fields(*this, f);
    }
  }

private:
  int depth_ = 0;  ///< current MaxDepth nesting
};

class HashVisitor {
public:
  explicit HashVisitor(Hasher& h) : h(h) {}
  Hasher& h;

  void tag(unsigned char, const char*) {}
  bool present(bool flag) { return flag; }
  template <class T, class F>
  void onDecode(const T&, F) {}

  template <class F>
  void operator()(const F& f, const char* name) {
    put(f, name);
  }
  template <class F, class Rule>
  void operator()(const F& f, const char* name, const Rule& rule) {
    if constexpr (detail::CustomRule<Rule, HashVisitor, const F>) {
      rule(*this, f, name);
    } else if constexpr (std::same_as<Rule, Optional>) {
      h.mix(f != nullptr);
      if (f != nullptr) put(f, name);
    } else if constexpr (std::is_enum_v<F>) {
      h.mix(static_cast<i64>(f));
    } else {
      put(f, name);
    }
  }

  template <class F>
  void put(const F& f, const char* name) {
    if constexpr (detail::HasCodec<F>) {
      Codec<F>::hash(h, f);
    } else if constexpr (detail::Scalar<F>) {
      h.mix(f);
    } else if constexpr (detail::IsVec<F>::value) {
      h.mix(static_cast<i64>(f.size()));
      for (const auto& e : f) put(e, name);
    } else if constexpr (detail::IsPair<F>::value) {
      put(f.first, name);
      put(f.second, name);
    } else if constexpr (detail::IsOpt<F>::value) {
      h.mix(f.has_value());
      if (f) put(*f, name);
    } else if constexpr (detail::IsPtr<F>::value) {
      put(*f, name);
    } else {
      fields(*this, f);
    }
  }
};

/// Renders the manifest: one "Name@tag{field:type,...};" entry per struct
/// and codec, each once, nested types before the struct that uses them.
class Describer {
public:
  Describer(std::string& manifest, std::set<std::string>& seen)
      : manifest_(manifest), seen_(seen) {}

  void tag(unsigned char t, const char* name) {
    name_ = name;
    fresh_ = seen_.insert(name_).second;
    body_ = name_ + "@" + std::to_string(t) + "{";
  }
  /// Describes the conditional field that follows as present.
  bool present(bool) {
    conditional_ = true;
    return true;
  }
  template <class T, class F>
  void onDecode(const T&, F) {}

  template <class F>
  void operator()(const F&, const char* name) {
    if (fresh_) add(name, typeName<F>());
  }
  template <class F, class Rule>
  void operator()(const F& f, const char* name, const Rule& rule) {
    if (!fresh_) return;
    if constexpr (detail::CustomRule<Rule, Describer, const F>)
      rule(*this, f, name);
    else if constexpr (std::same_as<Rule, Optional>)
      add(name, "?" + typeName<F>());
    else if constexpr (std::is_enum_v<F>)
      add(name, "enum<=" + std::to_string(static_cast<i64>(rule)));
    else
      add(name, typeName<F>());
  }

  void add(const char* name, const std::string& type) {
    if (!fresh_) return;
    if (body_.back() != '{') body_ += ',';
    body_ += name;
    body_ += conditional_ ? ":if:" : ":";
    body_ += type;
    conditional_ = false;
  }

  template <class F>
  std::string typeName() {
    if constexpr (detail::HasCodec<F>) {
      std::string schema = Codec<F>::kSchema;
      const size_t brace = schema.find('{');
      std::string name = schema.substr(0, brace);
      schema.insert(brace, "@" + std::to_string(Codec<F>::kTag));
      if (seen_.insert(name).second) manifest_ += schema + ";";
      return name;
    } else if constexpr (std::same_as<F, bool>) {
      return "bool";
    } else if constexpr (std::same_as<F, int>) {
      return "int";
    } else if constexpr (std::same_as<F, i64>) {
      return "i64";
    } else if constexpr (std::same_as<F, u64>) {
      return "u64";
    } else if constexpr (std::same_as<F, double>) {
      return "f64";
    } else if constexpr (std::same_as<F, std::string>) {
      return "str";
    } else if constexpr (detail::IsVec<F>::value) {
      return "[" + typeName<typename F::value_type>() + "]";
    } else if constexpr (detail::IsPair<F>::value) {
      return "(" + typeName<typename F::first_type>() + "," +
             typeName<typename F::second_type>() + ")";
    } else if constexpr (detail::IsOpt<F>::value) {
      return "?" + typeName<typename F::value_type>();
    } else if constexpr (detail::IsPtr<F>::value) {
      return typeName<std::remove_const_t<typename F::element_type>>();
    } else {
      Describer nested(manifest_, seen_);
      const F empty = blank<F>();
      fields(nested, empty);
      if (nested.fresh_) manifest_ += nested.body_ + "};";
      return nested.name_;
    }
  }

private:
  std::string& manifest_;
  std::set<std::string>& seen_;
  std::string name_;
  std::string body_;
  bool fresh_ = false;  ///< first visit of this struct: its entry is written
  bool conditional_ = false;
};

// ---- Entry points --------------------------------------------------------

template <class T>
void encode(ByteWriter& w, const T& value) {
  Encoder(w).put(value, "value");
}

template <class T>
void decode(ByteReader& r, T& out) {
  Decoder(r).get(out, "value");
}

template <class T>
void hash(Hasher& h, const T& value) {
  HashVisitor(h).put(value, "value");
}

/// Encodes `value` as a standalone payload.
template <class T>
std::string encodeBytes(const T& value) {
  ByteWriter w;
  encode(w, value);
  return w.take();
}

/// Decodes a whole payload into `out`; trailing bytes reject. Decoding runs
/// real IR code (polyhedra, symbolic formulas, block validation) whose
/// preconditions hostile bytes can violate: its ApiErrors are decode
/// failures like any other, reported as SerializeErrors naming `what`.
template <class T>
void decodeBytes(std::string_view bytes, T& out, const char* what) {
  ByteReader r(bytes);
  try {
    decode(r, out);
    r.expectEnd();
  } catch (const ApiError& e) {
    throw SerializeError(std::string(what) + " decode failed: " + e.what());
  }
}

/// Appends the manifest entries of T and every type it reaches that
/// `seen` does not name yet.
template <class T>
void describe(std::string& manifest, std::set<std::string>& seen) {
  Describer(manifest, seen).typeName<T>();
}

// ---- Field lists shared by the plan payloads, the wire and the keys -------

template <class V, Is<Access> S>
void fields(V& v, S& a) {
  v.tag(kTagAccess, "Access");
  v(a.arrayId, "arrayId");
  v(a.fn, "fn");
  v(a.isWrite, "isWrite");
}

template <class V, Is<Statement> S>
void fields(V& v, S& s) {
  v.tag(kTagStatement, "Statement");
  v(s.name, "name");
  v(s.domain, "domain");
  v(s.accesses, "accesses");
  v(s.writeAccess, "writeAccess");
  v(s.rhs, "rhs", kOptional);
  v(s.schedule, "schedule");
}

template <class V, Is<ArrayDecl> S>
void fields(V& v, S& a) {
  v.tag(kTagArrayDecl, "ArrayDecl");
  v(a.name, "name");
  v(a.extents, "extents");
}

template <class V, Is<ProgramBlock> S>
void fields(V& v, S& b) {
  v.tag(kTagProgramBlock, "ProgramBlock");
  v(b.name, "name");
  v(b.paramNames, "paramNames");
  v(b.arrays, "arrays");
  v(b.statements, "statements");
}

template <class V, Is<CompileOptions> S>
void fields(V& v, S& o) {
  v.tag(kTagCompileOptions, "CompileOptions");
  v(o.paramValues, "paramValues");
  v(o.mode, "mode", PipelineMode::ScratchpadOnly);
  v(o.delta, "delta");
  v(o.partitionMode, "partitionMode", PartitionMode::PerArrayUnion);
  v(o.stageEverything, "stageEverything");
  v(o.optimizeCopySets, "optimizeCopySets");
  v(o.subTile, "subTile");
  v(o.blockTile, "blockTile");
  v(o.threadTile, "threadTile");
  v(o.hoistCopies, "hoistCopies");
  v(o.useScratchpad, "useScratchpad");
  v(o.searchMode, "searchMode", TileSearchMode::Exhaustive);
  v(o.memLimitBytes, "memLimitBytes");
  v(o.elementBytes, "elementBytes");
  v(o.innerProcs, "innerProcs");
  v(o.syncCost, "syncCost");
  v(o.transferCost, "transferCost");
  v(o.tileCandidates, "tileCandidates");
  v(o.parametricTileAnalysis, "parametricTileAnalysis");
  v(o.packBuffers, "packBuffers");
  v(o.smemBanks, "smemBanks");
  v(o.smemBankWidthBytes, "smemBankWidthBytes");
  v(o.backendName, "backendName");
  v(o.kernelName, "kernelName");
  v(o.elementType, "elementType");
  v(o.numBoundParams, "numBoundParams");
  v(o.doubleBuffer, "doubleBuffer");
  v(o.runtimeSizeArgs, "runtimeSizeArgs");
}

}  // namespace emm::schema
