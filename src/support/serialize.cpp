#include "support/serialize.h"

#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/options.h"
#include "support/fingerprint.h"
#include "support/schema.h"

namespace emm {

namespace schema {

// Recursion guards for tree payloads. Legitimate plans are far shallower;
// a hostile file claiming deeper nesting is rejected before the stack is.
constexpr int kMaxExprDepth = 512;
constexpr int kMaxAstDepth = 4096;

template <>
struct Codec<SymPtr> {
  static constexpr unsigned char kTag = kTagSymExpr;
  static constexpr const char* kSchema =
      "SymExpr{kind:enum,const:i64|param:(int,str)|lhs:SymExpr,rhs:SymExpr}";
  static void encode(ByteWriter& w, const SymPtr& e);
  static SymPtr decode(ByteReader& r, int depth = 0);
};

/// ParametricTilePlan keeps its compiled formulas private; this friend
/// opens them to the field lists below and to nothing else.
struct PlanFields {
  using Plan = ParametricTilePlan;
  using PairPredicate = Plan::PairPredicate;
  using RefFormula = Plan::RefFormula;
  using ComponentFormula = Plan::ComponentFormula;
  using ArrayFormula = Plan::ArrayFormula;
  using GeometryRecord = Plan::GeometryRecord;

  static Plan blank() { return Plan(); }

  template <class V, class S>
  static void fields(V& v, S& p) {
    v.tag(kTagParametricPlan, "ParametricTilePlan");
    v(p.depth_, "depth", kShape);
    v(p.np_, "np", kShape);
    v(p.options_, "options");
    v(p.analysis_, "analysis");
    v(p.defaultBinding_, "defaultBinding");
    v(p.arrays_, "arrays");
    v(p.geometry_, "geometry");
    v(p.hoist_, "hoist");
    v(p.benefitDelta_, "benefitDelta");
    v(p.volumeCap_, "volumeCap");
    v(p.onlyBeneficial_, "onlyBeneficial");
    v.onDecode(p, check);
  }

  static void check(Plan& plan);
};

template <>
struct Blank<ParametricTilePlan> {
  static ParametricTilePlan make() { return PlanFields::blank(); }
};

// ---- Helpers -------------------------------------------------------------

void expectTag(ByteReader& r, unsigned char tag, const char* what) {
  unsigned char got = r.u8();
  if (got != tag)
    throw SerializeError(std::string("bad tag for ") + what + " (got " + std::to_string(got) +
                         ", want " + std::to_string(tag) + ")");
}

int readShape(ByteReader& r, const char* what) {
  i64 v = r.i64v();
  if (v < 0 || v > kMaxShape)
    throw SerializeError(std::string("implausible ") + what + " " + std::to_string(v));
  return static_cast<int>(v);
}

// ---- Hand-written codecs -------------------------------------------------

void Codec<IntMat>::encode(ByteWriter& w, const IntMat& m) {
  w.u8(kTag);
  w.intv(m.rows());
  w.intv(m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) w.i64v(m.at(i, j));
}

IntMat Codec<IntMat>::decode(ByteReader& r) {
  expectTag(r, kTag, "IntMat");
  int rows = readShape(r, "matrix rows");
  int cols = readShape(r, "matrix cols");
  u64 cells = static_cast<u64>(rows) * static_cast<u64>(cols);
  if (cells * 8 > r.remaining()) throw SerializeError("truncated matrix data");
  IntMat m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m.at(i, j) = r.i64v();
  return m;
}

void Codec<IntMat>::hash(Hasher& h, const IntMat& m) {
  h.mix(m.rows());
  h.mix(m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) h.mix(m.at(i, j));
}

void Codec<Polyhedron>::encode(ByteWriter& w, const Polyhedron& p) {
  w.u8(kTag);
  w.intv(p.dim());
  w.intv(p.nparam());
  Codec<IntMat>::encode(w, p.equalities());
  Codec<IntMat>::encode(w, p.inequalities());
  // simplify() may have dropped the witness constraint after marking the
  // set empty, so emptiness is carried explicitly.
  w.boolean(p.isEmpty());
}

Polyhedron Codec<Polyhedron>::decode(ByteReader& r) {
  expectTag(r, kTag, "Polyhedron");
  int dim = readShape(r, "polyhedron dim");
  int nparam = readShape(r, "polyhedron nparam");
  IntMat eqs = Codec<IntMat>::decode(r);
  IntMat ineqs = Codec<IntMat>::decode(r);
  bool empty = r.boolean();
  int cols = dim + nparam + 1;
  if ((eqs.rows() > 0 && eqs.cols() != cols) || (ineqs.rows() > 0 && ineqs.cols() != cols))
    throw SerializeError("polyhedron constraint width mismatch");
  Polyhedron p(dim, nparam);
  for (int i = 0; i < eqs.rows(); ++i) p.addEquality(eqs.row(i));
  for (int i = 0; i < ineqs.rows(); ++i) p.addInequality(ineqs.row(i));
  if (empty && !p.isEmpty()) {
    // Original was marked empty by an integer-infeasibility test the
    // rational relaxation cannot reproduce; reinstate with 0 >= 1.
    IntVec contradiction(cols, 0);
    contradiction.back() = -1;
    p.addInequality(contradiction);
  }
  return p;
}

// The emptiness bit stays out of the key: deciding it is a projection, far
// too slow for the warm path, and the constraint rows already determine it.
void Codec<Polyhedron>::hash(Hasher& h, const Polyhedron& p) {
  h.mix(p.dim());
  h.mix(p.nparam());
  Codec<IntMat>::hash(h, p.equalities());
  Codec<IntMat>::hash(h, p.inequalities());
}

void Codec<ExprPtr>::encode(ByteWriter& w, const ExprPtr& e) {
  if (e == nullptr) throw SerializeError("null expression");
  w.u8(kTag);
  w.i64v(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case Expr::Kind::Const:
      w.f64(e->constValue());
      break;
    case Expr::Kind::Load:
      w.intv(e->accessIndex());
      break;
    case Expr::Kind::Abs:
      encode(w, e->lhs());
      break;
    default:  // binary
      encode(w, e->lhs());
      encode(w, e->rhs());
      break;
  }
}

ExprPtr Codec<ExprPtr>::decode(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("expression nesting too deep");
  expectTag(r, kTag, "Expr");
  const i64 k = r.i64v();
  if (k < 0 || k > static_cast<i64>(Expr::Kind::Max))
    throw SerializeError("out-of-range Expr kind value " + std::to_string(k));
  const auto kind = static_cast<Expr::Kind>(k);
  switch (kind) {
    case Expr::Kind::Const:
      return Expr::constant(r.f64());
    case Expr::Kind::Load:
      return Expr::load(r.intv());
    case Expr::Kind::Abs:
      return Expr::abs(decode(r, depth + 1));
    default: {
      ExprPtr a = decode(r, depth + 1);
      ExprPtr b = decode(r, depth + 1);
      switch (kind) {
        case Expr::Kind::Add:
          return Expr::add(std::move(a), std::move(b));
        case Expr::Kind::Sub:
          return Expr::sub(std::move(a), std::move(b));
        case Expr::Kind::Mul:
          return Expr::mul(std::move(a), std::move(b));
        case Expr::Kind::Div:
          return Expr::div(std::move(a), std::move(b));
        case Expr::Kind::Min:
          return Expr::min(std::move(a), std::move(b));
        default:
          return Expr::max(std::move(a), std::move(b));
      }
    }
  }
}

void Codec<ExprPtr>::hash(Hasher& h, const ExprPtr& e) {
  h.mix(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case Expr::Kind::Const:
      h.mix(e->constValue());
      break;
    case Expr::Kind::Load:
      h.mix(e->accessIndex());
      break;
    case Expr::Kind::Abs:
      hash(h, e->lhs());
      break;
    default:
      hash(h, e->lhs());
      hash(h, e->rhs());
      break;
  }
}

void Codec<SymPtr>::encode(ByteWriter& w, const SymPtr& e) {
  if (e == nullptr) throw SerializeError("null symbolic expression");
  w.u8(kTag);
  w.i64v(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case SymExpr::Kind::Const:
      w.i64v(e->constValue());
      break;
    case SymExpr::Kind::Param:
      w.intv(e->paramIndex());
      w.str(e->paramName());
      break;
    default:
      encode(w, e->lhs());
      encode(w, e->rhs());
      break;
  }
}

SymPtr Codec<SymPtr>::decode(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("symbolic expression nesting too deep");
  expectTag(r, kTag, "SymExpr");
  const i64 k = r.i64v();
  if (k < 0 || k > static_cast<i64>(SymExpr::Kind::Max))
    throw SerializeError("out-of-range SymExpr kind value " + std::to_string(k));
  const auto kind = static_cast<SymExpr::Kind>(k);
  switch (kind) {
    case SymExpr::Kind::Const:
      return SymExpr::constant(r.i64v());
    case SymExpr::Kind::Param: {
      int idx = readShape(r, "SymExpr param index");
      return SymExpr::param(idx, r.str());
    }
    default: {
      SymPtr a = decode(r, depth + 1);
      SymPtr b = decode(r, depth + 1);
      // Every divisor a compiled plan produces is a positive constant
      // (compileDiv wraps DivExpr::den); anything else would only surface
      // as an eval-time checked-arithmetic abort, so reject it here.
      if ((kind == SymExpr::Kind::FloorDiv || kind == SymExpr::Kind::CeilDiv) &&
          (b->kind() != SymExpr::Kind::Const || b->constValue() <= 0))
        throw SerializeError("symbolic divisor must be a positive constant");
      // The factories fold constant operands with checked (aborting)
      // arithmetic; pre-validate so corrupt constants throw instead.
      if (a->kind() == SymExpr::Kind::Const && b->kind() == SymExpr::Kind::Const) {
        const i128 x = a->constValue();
        const i128 y = b->constValue();
        i128 folded = 0;
        if (kind == SymExpr::Kind::Add) folded = x + y;
        if (kind == SymExpr::Kind::Mul) folded = x * y;
        if (folded < static_cast<i128>(INT64_MIN) || folded > static_cast<i128>(INT64_MAX))
          throw SerializeError("symbolic constant overflow");
      }
      switch (kind) {
        case SymExpr::Kind::Add:
          return SymExpr::add(std::move(a), std::move(b));
        case SymExpr::Kind::Mul:
          return SymExpr::mul(std::move(a), std::move(b));
        case SymExpr::Kind::FloorDiv:
          return SymExpr::floorDiv(std::move(a), std::move(b));
        case SymExpr::Kind::CeilDiv:
          return SymExpr::ceilDiv(std::move(a), std::move(b));
        case SymExpr::Kind::Min:
          return SymExpr::min(std::move(a), std::move(b));
        default:
          return SymExpr::max(std::move(a), std::move(b));
      }
    }
  }
}

// ---- Back-references and post-decode checks ------------------------------
// CodeUnit::source and DataPlan::block point into a block their owner holds;
// they are not fields. Each owner rebinds them to its decoded block, which
// it then shares with every copy.

void rebindPlanBlock(TileAnalysis& a) {
  a.plan.block = a.tileBlock.get();
}
void rebindUnitSource(TiledKernel& k) {
  k.unit.source = k.analysis.tileBlock.get();
}

// Back-pointer discriminators for the products' scratchpad unit and block
// plan, which may point at either of the products' blocks.
enum : unsigned char { kRefNone = 0, kRefInput = 1, kRefTransformed = 2 };

unsigned char blockRefOf(const PipelineProducts& p, const ProgramBlock* ptr) {
  if (ptr == nullptr) return kRefNone;
  if (ptr == p.input.get()) return kRefInput;
  if (ptr == p.transformed.get()) return kRefTransformed;
  return kRefNone;  // foreign pointer: not representable, dropped
}

const ProgramBlock* resolveBlockRef(const PipelineProducts& p, unsigned char ref) {
  switch (ref) {
    case kRefInput:
      return p.input.get();
    case kRefTransformed:
      return p.transformed.get();
    case kRefNone:
      return nullptr;
    default:
      throw SerializeError("bad block back-reference " + std::to_string(ref));
  }
}

/// Rule for an optional product whose back-pointer targets the products'
/// input or transformed block: the value is preceded by a discriminator
/// byte naming that block, and the decoder rebinds the pointer to it.
template <class P, class U>
struct BlockRef {
  P& products;
  const ProgramBlock* U::*back;

  void operator()(Encoder& v, const std::optional<U>& o, const char* name) const {
    v.w.boolean(o.has_value());
    if (!o) return;
    v.w.u8(blockRefOf(products, (*o).*back));
    v(*o, name);
  }
  void operator()(Decoder& v, std::optional<U>& o, const char* name) const {
    if (!v.r.boolean()) return;
    const ProgramBlock* target = resolveBlockRef(products, v.r.u8());
    v(o.emplace(), name);
    (*o).*back = target;
  }
  void operator()(Describer& v, const std::optional<U>&, const char* name) const {
    v.add(name, "?(blockRef," + v.typeName<U>() + ")");
  }
};

// A Formula slot with no formula would make the binder's argument fill
// reject every request; hostile bytes must surface here instead.
void checkBindSlot(const BindSlot& s) {
  if (s.kind == BindSlot::Kind::Formula && s.formula == nullptr)
    throw SerializeError("formula bind slot without a formula");
}

// Symbolic guards without both sides could never be evaluated; reject the
// bytes rather than admit a guard the binder must treat as violated.
void checkFamilyGuard(const FamilyGuard& g) {
  if (g.kind != FamilyGuard::Kind::BufExtentEq && (g.lhs == nullptr || g.rhs == nullptr))
    throw SerializeError("symbolic family guard missing an operand");
}

void PlanFields::check(Plan& plan) {
  for (const ArrayFormula& af : plan.arrays_) {
    for (const ComponentFormula& comp : af.comps) {
      if (comp.pairs.size() != comp.refs.size() * comp.refs.size())
        throw SerializeError("pair predicate count mismatch");
      if (comp.globalIdx.size() != comp.refs.size())
        throw SerializeError("component global index arity mismatch");
      // evaluate()/footprintInterval() index member 0's boxes, so every
      // component needs at least one reference and congruent shapes;
      // ragged or empty components would read out of bounds.
      if (comp.refs.empty()) throw SerializeError("empty component formula");
      for (const RefFormula& rf : comp.refs) {
        if (rf.ctxBox.size() != comp.refs[0].ctxBox.size() ||
            rf.rawBox.size() != comp.refs[0].rawBox.size())
          throw SerializeError("ragged reference box dimensions");
        if (rf.usesOrigin.size() != static_cast<size_t>(plan.depth_))
          throw SerializeError("reference origin-bit arity mismatch");
      }
    }
    if (af.refLoc.size() != static_cast<size_t>(af.numRefs))
      throw SerializeError("array reference location arity mismatch");
    for (const auto& [ci, li] : af.refLoc) {
      if (ci < 0 || static_cast<size_t>(ci) >= af.comps.size() || li < 0 ||
          static_cast<size_t>(li) >= af.comps[ci].refs.size())
        throw SerializeError("array reference location out of range");
    }
    // globalIdx must be the exact inverse of refLoc: evaluate() feeds it
    // into an unchecked union-find over numRefs members, so any other
    // value is memory-unsafe, not just wrong.
    for (size_t ci = 0; ci < af.comps.size(); ++ci) {
      const std::vector<int>& gidx = af.comps[ci].globalIdx;
      for (size_t li = 0; li < gidx.size(); ++li) {
        const int g = gidx[li];
        if (g < 0 || g >= af.numRefs ||
            af.refLoc[g] != std::make_pair(static_cast<int>(ci), static_cast<int>(li)))
          throw SerializeError("component global index inconsistent with refLoc");
      }
    }
  }
  // Structural validation + symbol-table reconstruction. The checks inside
  // run as EMM_REQUIRE (ApiError); convert so hostile input stays a clean
  // SerializeError for the disk tier.
  try {
    plan.rebuildSymbols();
  } catch (const ApiError& e) {
    throw SerializeError(std::string("parametric plan validation failed: ") + e.what());
  }
  if (static_cast<int>(plan.defaultBinding_.ext.size()) != plan.np_ + plan.depth_ ||
      static_cast<int>(plan.defaultBinding_.loopRange.size()) != plan.depth_)
    throw SerializeError("parametric plan binding arity mismatch");
  if (static_cast<int>(plan.analysis_.loopBounds.size()) != plan.depth_)
    throw SerializeError("parametric plan loop-bound arity mismatch");
}

// ---- Field lists ---------------------------------------------------------

template <class V, Is<DivExpr> S>
void fields(V& v, S& d) {
  v.tag(kTagDivExpr, "DivExpr");
  v(d.coeffs, "coeffs");
  v(d.den, "den");
}

template <class V, Is<DimBounds> S>
void fields(V& v, S& b) {
  v.tag(kTagDimBounds, "DimBounds");
  v(b.lower, "lower");
  v(b.upper, "upper");
}

template <class V, Is<AffExpr> S>
void fields(V& v, S& e) {
  v.tag(kTagAffExpr, "AffExpr");
  v(e.terms, "terms");
  v(e.cnst, "cnst");
  v(e.den, "den");
}

template <class V, Is<BoundExpr> S>
void fields(V& v, S& b) {
  v.tag(kTagBoundExpr, "BoundExpr");
  v(b.parts, "parts");
  v(b.isMax, "isMax");
}

template <class V, Is<AstNode> S>
void fields(V& v, S& n) {
  v.tag(kTagAstNode, "AstNode");
  v(n.kind, "kind", AstNode::Kind::Comment);
  v(n.children, "children", MaxDepth{kMaxAstDepth});
  v(n.iter, "iter");
  v(n.lb, "lb");
  v(n.ub, "ub");
  v(n.step, "step");
  v(n.loopKind, "loopKind", LoopKind::ThreadParallel);
  v(n.guards, "guards");
  v(n.stmtId, "stmtId");
  v(n.callArgs, "callArgs");
  v(n.dstArray, "dstArray");
  v(n.srcArray, "srcArray");
  v(n.dstIndex, "dstIndex");
  v(n.srcIndex, "srcIndex");
  v(n.text, "text");
}

template <class V, Is<LocalBuffer> S>
void fields(V& v, S& b) {
  v.tag(kTagLocalBuffer, "LocalBuffer");
  v(b.name, "name");
  v(b.ndim, "ndim");
  v(b.offset, "offset");
  v(b.sizeExpr, "sizeExpr");
  v(b.pad, "pad");
}

/// `source` is a back-reference its owner rebinds.
template <class V, Is<CodeUnit> S>
void fields(V& v, S& u) {
  v.tag(kTagCodeUnit, "CodeUnit");
  v(u.name, "name");
  v(u.statements, "statements");
  v(u.localBuffers, "localBuffers");
  v(u.root, "root", kOptional);
}

template <class V, Is<Dependence> S>
void fields(V& v, S& d) {
  v.tag(kTagDependence, "Dependence");
  v(d.srcStmt, "srcStmt");
  v(d.dstStmt, "dstStmt");
  v(d.srcAccess, "srcAccess");
  v(d.dstAccess, "dstAccess");
  v(d.kind, "kind", DepKind::Output);
  v(d.poly, "poly");
  v(d.srcDim, "srcDim");
  v(d.dstDim, "dstDim");
}

template <class V, Is<LoopDepSummary> S>
void fields(V& v, S& s) {
  v.tag(kTagLoopDepSummary, "LoopDepSummary");
  v(s.loop, "loop");
  v(s.sign, "sign", SignRange::Mixed);
}

template <class V, Is<ParallelismPlan> S>
void fields(V& v, S& p) {
  v.tag(kTagParallelismPlan, "ParallelismPlan");
  v(p.band, "band");
  v(p.spaceLoops, "spaceLoops");
  v(p.timeLoops, "timeLoops");
  v(p.needsInterBlockSync, "needsInterBlockSync");
  v(p.summaries, "summaries");
}

template <class V, Is<TileEvaluation::BufferTerm> S>
void fields(V& v, S& t) {
  v.tag(kTagBufferTerm, "BufferTerm");
  v(t.name, "name");
  v(t.occurrences, "occurrences");
  v(t.volumeIn, "volumeIn");
  v(t.volumeOut, "volumeOut");
  v(t.hoistLevel, "hoistLevel");
}

template <class V, Is<TileEvaluation> S>
void fields(V& v, S& e) {
  v.tag(kTagTileEvaluation, "TileEvaluation");
  v(e.feasible, "feasible");
  v(e.reason, "reason");
  v(e.cost, "cost");
  v(e.footprint, "footprint");
  v(e.terms, "terms");
}

template <class V, Is<TileSearchResult> S>
void fields(V& v, S& s) {
  v.tag(kTagTileSearchResult, "TileSearchResult");
  v(s.subTile, "subTile");
  v(s.eval, "eval");
  v(s.evaluations, "evaluations");
  v(s.memoHits, "memoHits");
  v(s.parametric, "parametric");
  v(s.familyAdopted, "familyAdopted");
  v(s.prunedBoxes, "prunedBoxes");
  v(s.parametricReason, "parametricReason");
  v(s.planBuildMillis, "planBuildMillis");
  v(s.evalMillis, "evalMillis");
}

template <class V, Is<GeometryHint> S>
void fields(V& v, S& h) {
  v.tag(kTagGeometryHint, "GeometryHint");
  v(h.arrayId, "arrayId");
  v(h.refs, "refs");
  v(h.lower, "lower");
  v(h.upper, "upper");
}

template <class V, Is<SmemOptions> S>
void fields(V& v, S& o) {
  v.tag(kTagSmemOptions, "SmemOptions");
  v(o.delta, "delta");
  v(o.partitionMode, "partitionMode", PartitionMode::PerArrayUnion);
  v(o.onlyBeneficial, "onlyBeneficial");
  v(o.optimizeCopySets, "optimizeCopySets");
  v(o.deadAfterBlock, "deadAfterBlock");
  v(o.blockLocalParams, "blockLocalParams");
  v(o.paramContext, "paramContext");
  v(o.sampleParams, "sampleParams");
  v(o.volumeCap, "volumeCap");
  v(o.geometryHints, "geometryHints");
}

template <class V, Is<RefSummary> S>
void fields(V& v, S& s) {
  v.tag(kTagRefSummary, "RefSummary");
  v(s.stmt, "stmt");
  v(s.access, "access");
  v(s.isWrite, "isWrite");
  v(s.rank, "rank");
  v(s.iterDim, "iterDim");
  v(s.dataSpace, "dataSpace");
}

template <class V, Is<PartitionPlan> S>
void fields(V& v, S& p) {
  v.tag(kTagPartitionPlan, "PartitionPlan");
  v(p.arrayId, "arrayId");
  v(p.refs, "refs");
  v(p.orderReuse, "orderReuse");
  v(p.constReuseFraction, "constReuseFraction");
  v(p.beneficial, "beneficial");
  v(p.hasBuffer, "hasBuffer");
  v(p.bufferName, "bufferName");
  v(p.offset, "offset");
  v(p.sizeExpr, "sizeExpr");
}

/// `block` is a back-reference its owner rebinds.
template <class V, Is<DataPlan> S>
void fields(V& v, S& p) {
  v.tag(kTagDataPlan, "DataPlan");
  v(p.options, "options");
  v(p.partitions, "partitions");
  v(p.partitionOf, "partitionOf");
}

template <class V, Is<TileAnalysis> S>
void fields(V& v, S& a) {
  v.tag(kTagTileAnalysis, "TileAnalysis");
  v(a.tileBlock, "tileBlock", kOptional);
  v(a.plan, "plan");
  v(a.originParams, "originParams");
  v(a.tileParams, "tileParams");
  v(a.loopBounds, "loopBounds");
  v(a.subTile, "subTile");
  v(a.depth, "depth");
  v(a.hoistLevel, "hoistLevel");
  v.onDecode(a, rebindPlanBlock);
}

template <class V, Is<TiledKernel> S>
void fields(V& v, S& k) {
  v.tag(kTagTiledKernel, "TiledKernel");
  v(k.analysis, "analysis");
  v(k.unit, "unit");
  v(k.spaceLoops, "spaceLoops");
  v(k.blockTileSizes, "blockTileSizes");
  v(k.spaceLoopRange, "spaceLoopRange");
  v.onDecode(k, rebindUnitSource);
}

template <class V, Is<Diagnostic> S>
void fields(V& v, S& d) {
  v.tag(kTagDiagnostic, "Diagnostic");
  v(d.severity, "severity", Severity::Error);
  v(d.stage, "stage");
  v(d.message, "message");
}

template <class V, Is<PassTiming> S>
void fields(V& v, S& t) {
  v.tag(kTagPassTiming, "PassTiming");
  v(t.pass, "pass");
  v(t.millis, "millis");
  v(t.ran, "ran");
  v(t.skipped, "skipped");
}

template <class V, Is<BufferLayoutEntry> S>
void fields(V& v, S& e) {
  v.tag(kTagBufferLayoutEntry, "BufferLayoutEntry");
  v(e.name, "name");
  v(e.extent, "extent");
  v(e.rowPadElems, "rowPadElems");
  v(e.offsetElems, "offsetElems");
  v(e.footprintElems, "footprintElems");
}

template <class V, Is<BufferLayout> S>
void fields(V& v, S& l) {
  v.tag(kTagBufferLayout, "BufferLayout");
  v(l.bank.banks, "banks");
  v(l.bank.widthBytes, "bankWidthBytes");
  v(l.elementBytes, "elementBytes");
  v(l.padded, "padded");
  v(l.note, "note");
  v(l.buffers, "buffers");
  v(l.totalElems, "totalElems", kOptional);
}

template <class V, Is<BindSlot> S>
void fields(V& v, S& s) {
  v.tag(kTagBindSlot, "BindSlot");
  v(s.name, "name");
  v(s.kind, "kind", BindSlot::Kind::Formula);
  v(s.a, "a");
  v(s.b, "b");
  v(s.formula, "formula", kOptional);
  v.onDecode(s, checkBindSlot);
}

template <class V, Is<FamilyGuard> S>
void fields(V& v, S& g) {
  v.tag(kTagFamilyGuard, "FamilyGuard");
  v(g.kind, "kind", FamilyGuard::Kind::BufExtentEq);
  v(g.lhs, "lhs", kOptional);
  v(g.rhs, "rhs", kOptional);
  v(g.bufferIndex, "bufferIndex");
  v(g.dim, "dim");
  v(g.expected, "expected");
  v(g.what, "what");
  v.onDecode(g, checkFamilyGuard);
}

template <class V, Is<ArtifactInfo> S>
void fields(V& v, S& info) {
  v.tag(kTagArtifactInfo, "ArtifactInfo");
  v(info.sizeGeneric, "sizeGeneric");
  v(info.note, "note");
  v(info.slots, "slots");
  v(info.guards, "guards");
}

template <class V, Is<PipelineProducts> S>
void fields(V& v, S& p) {
  v.tag(kTagPipelineProducts, "PipelineProducts");
  v(p.input, "input", kOptional);
  v(p.transformed, "transformed", kOptional);
  v(p.deps, "deps");
  v(p.haveDeps, "haveDeps");
  v(p.plan, "plan");
  v(p.havePlan, "havePlan");
  v(p.appliedSkews, "appliedSkews");
  v(p.search, "search");
  v(p.geometryHints, "geometryHints");
  v(p.kernel, "kernel");
  v(p.scratchpadUnit, "scratchpadUnit", BlockRef{p, &CodeUnit::source});
  v(p.blockPlan, "blockPlan", BlockRef{p, &DataPlan::block});
  v(p.bufferLayout, "bufferLayout");
  v(p.artifactInfo, "artifactInfo");
  v(p.artifact, "artifact");
}

/// cacheHit/diskHit/familyHit/artifactBound/boundArgs are transport flags
/// owned by the cache tiers and the binder, not part of the payload.
template <class V, Is<CompileResult> S>
void fields(V& v, S& r) {
  using Products = std::conditional_t<std::is_const_v<S>, const PipelineProducts, PipelineProducts>;
  v.tag(kTagCompileResult, "CompileResult");
  v(static_cast<Products&>(r), "products");
  v(r.ok, "ok");
  v(r.diagnostics, "diagnostics");
  v(r.timings, "timings");
}

template <class V, Is<TileSearchOptions> S>
void fields(V& v, S& o) {
  v.tag(kTagTileSearchOptions, "TileSearchOptions");
  v(o.memLimitElems, "memLimitElems");
  v(o.innerProcs, "innerProcs");
  v(o.syncCost, "syncCost");
  v(o.transferCost, "transferCost");
  v(o.paramValues, "paramValues");
  v(o.candidates, "candidates");
  v(o.hoistCopies, "hoistCopies");
  v(o.parametric, "parametric");
}

template <class V, Is<ParametricTilePlan::SizeBinding> S>
void fields(V& v, S& b) {
  v.tag(kTagSizeBinding, "SizeBinding");
  v(b.ext, "ext");
  v(b.loopRange, "loopRange");
}

template <class V, Is<PlanFields::PairPredicate> S>
void fields(V& v, S& p) {
  v.tag(kTagPairPredicate, "PairPredicate");
  v(p.always, "always");
  v(p.never, "never");
  v(p.cond, "cond");
}

template <class V, Is<PlanFields::RefFormula> S>
void fields(V& v, S& f) {
  v.tag(kTagRefFormula, "RefFormula");
  v(f.key, "key");
  v(f.isWrite, "isWrite");
  v(f.orderReuse, "orderReuse");
  v(f.ctxBox, "ctxBox");
  v(f.rawBox, "rawBox");
  v(f.usesOrigin, "usesOrigin");
}

template <class V, Is<PlanFields::ComponentFormula> S>
void fields(V& v, S& c) {
  v.tag(kTagComponentFormula, "ComponentFormula");
  v(c.refs, "refs");
  v(c.pairs, "pairs");
  v(c.hoistLevel, "hoistLevel");
  v(c.globalIdx, "globalIdx");
}

template <class V, Is<PlanFields::ArrayFormula> S>
void fields(V& v, S& a) {
  v.tag(kTagArrayFormula, "ArrayFormula");
  v(a.arrayId, "arrayId");
  v(a.arrayName, "arrayName");
  v(a.comps, "comps");
  v(a.numRefs, "numRefs", kShape);
  v(a.refLoc, "refLoc");
}

template <class V, Is<PlanFields::GeometryRecord> S>
void fields(V& v, S& g) {
  v.tag(kTagGeometryRecord, "GeometryRecord");
  v(g.arrayId, "arrayId");
  v(g.refKeys, "refKeys");
  v(g.lower, "lower");
  v(g.upper, "upper");
}

template <class V, Is<ParametricTilePlan> S>
void fields(V& v, S& p) {
  PlanFields::fields(v, p);
}

template <class V, Is<FamilyPlan> S>
void fields(V& v, S& p) {
  v.tag(kTagFamilyPlan, "FamilyPlan");
  v(p.haveDeps, "haveDeps");
  v(p.deps, "deps");
  v(p.haveTransform, "haveTransform");
  if (v.present(p.haveTransform)) v(p.transformedTemplate, "transformedTemplate");
  v(p.plan, "plan");
  v(p.appliedSkews, "appliedSkews");
  v(p.tilePlan, "tilePlan", kOptional);
  v(p.parametricReason, "parametricReason");
  // Codegen tier (plan format v4): the size-generic record that lets the
  // binder serve further sizes from disk with no re-emission.
  v(p.haveRecord, "haveRecord");
  if (v.present(p.haveRecord)) {
    v(p.recordOptions, "recordOptions");
    v(p.record, "record");
  }
}

}  // namespace schema

// ---- public API ----------------------------------------------------------

u64 digestBytes(std::string_view bytes) {
  Hasher h;  // the one FNV-1a implementation, shared with the cache keys
  h.bytes(bytes.data(), bytes.size());
  return h.digest();
}

u64 serializeSchemaFingerprint() {
  static const u64 fp = [] {
    std::string manifest = "emmplan-schema;";
    std::set<std::string> seen;
    schema::describe<CompileResult>(manifest, seen);
    schema::describe<FamilyPlan>(manifest, seen);
    return digestBytes(manifest);
  }();
  return fp;
}

void ByteWriter::u32v(u32 v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<unsigned char>(v >> (8 * i)));
}

void ByteWriter::u64v(u64 v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<unsigned char>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64v(bits);
}

void ByteWriter::str(const std::string& s) {
  u64v(s.size());
  buf_.append(s);
}

void ByteWriter::bytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

const unsigned char* ByteReader::need(size_t n) {
  if (n > remaining()) throw SerializeError("truncated input (" + std::to_string(n) +
                                            " bytes wanted, " + std::to_string(remaining()) +
                                            " left)");
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

unsigned char ByteReader::u8() { return *need(1); }

u32 ByteReader::u32v() {
  const unsigned char* p = need(4);
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

u64 ByteReader::u64v() {
  const unsigned char* p = need(8);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

int ByteReader::intv() {
  i64 v = i64v();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw SerializeError("int field out of range: " + std::to_string(v));
  return static_cast<int>(v);
}

bool ByteReader::boolean() {
  unsigned char v = u8();
  if (v > 1) throw SerializeError("bad boolean byte " + std::to_string(v));
  return v == 1;
}

double ByteReader::f64() {
  u64 bits = u64v();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  u64 n = count();
  const unsigned char* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

u64 ByteReader::count(u64 minBytesPerElement) {
  u64 n = u64v();
  if (minBytesPerElement > 0 && n > remaining() / minBytesPerElement)
    throw SerializeError("count " + std::to_string(n) + " exceeds remaining input");
  return n;
}

void ByteReader::expectEnd() const {
  if (!atEnd())
    throw SerializeError("trailing garbage: " + std::to_string(remaining()) + " bytes");
}

std::string serializeCompileResult(const CompileResult& result) {
  return schema::encodeBytes(result);
}

CompileResult deserializeCompileResult(std::string_view bytes) {
  CompileResult out;
  schema::decodeBytes(bytes, out, "compile result");
  return out;
}

std::string serializeProgramBlock(const ProgramBlock& block) {
  return schema::encodeBytes(block);
}

std::string serializeCompileOptions(const CompileOptions& o) {
  return schema::encodeBytes(o);
}

ProgramBlock deserializeProgramBlock(std::string_view bytes) {
  ProgramBlock b;
  schema::decodeBytes(bytes, b, "program block");
  try {
    b.validate();
  } catch (const ApiError& e) {
    throw SerializeError(std::string("program block decode failed: ") + e.what());
  }
  return b;
}

CompileOptions deserializeCompileOptions(std::string_view bytes) {
  CompileOptions o;
  schema::decodeBytes(bytes, o, "compile options");
  return o;
}

std::string serializeFamilyPlan(const FamilyPlan& plan) {
  return schema::encodeBytes(plan);
}

std::shared_ptr<const FamilyPlan> deserializeFamilyPlan(std::string_view bytes) {
  auto plan = std::make_shared<FamilyPlan>();
  schema::decodeBytes(bytes, *plan, "family plan");
  return plan;
}

}  // namespace emm
