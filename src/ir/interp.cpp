#include "ir/interp.h"

#include <algorithm>
#include <cmath>

namespace emm {

MemTrace& MemTrace::operator+=(const MemTrace& o) {
  globalReads += o.globalReads;
  globalWrites += o.globalWrites;
  localReads += o.localReads;
  localWrites += o.localWrites;
  syncs += o.syncs;
  stmtInstances += o.stmtInstances;
  copyElements += o.copyElements;
  return *this;
}

namespace {

/// An AffExpr with its variables resolved to slots; rounds as AffExpr does.
struct Row {
  std::vector<std::pair<int, i64>> terms;  ///< (slot, coefficient)
  i64 cnst = 0;
  i64 den = 1;

  i128 numerator(const i64* env) const {
    i128 acc = cnst;
    for (const auto& [slot, coeff] : terms) acc += static_cast<i128>(coeff) * env[slot];
    return acc;
  }
  i64 evalExact(const i64* env) const {
    const i128 num = numerator(env);
    if (den == 1) return narrow(num);  // the common case skips the division
    EMM_CHECK(num % den == 0, "non-exact division in AST expression");
    return narrow(num / den);
  }
  i64 evalFloor(const i64* env) const { return floorDiv(narrow(numerator(env)), den); }
  i64 evalCeil(const i64* env) const { return ceilDiv(narrow(numerator(env)), den); }
};

/// Max of ceilings (a lower bound) or min of floors (an upper bound).
i64 evalBound(const std::vector<Row>& parts, bool isMax, const i64* env) {
  i64 best = isMax ? parts[0].evalCeil(env) : parts[0].evalFloor(env);
  for (const Row& r : parts)
    best = isMax ? std::max(best, r.evalCeil(env)) : std::min(best, r.evalFloor(env));
  return best;
}

/// A lowered AST node; `ast` supplies the kind, step, loop kind and ids.
struct Node {
  const AstNode* ast = nullptr;
  std::vector<Row> first;   ///< For: lb parts; Guard: guards; Call: arguments; Copy: dst index
  std::vector<Row> second;  ///< For: ub parts; Copy: src index
  std::vector<int> slots;   ///< For: its iterator; Call: the statement's parameters
  std::vector<Node> children;
};

/// A local scratchpad buffer instantiated at concrete parameter values.
/// Bounds checks use the LOGICAL extents; flattening strides by the padded
/// (allocated) extents, exactly as the emitted array declarations do.
struct BufferGeometry {
  const std::string* name = nullptr;
  std::vector<i64> extents, strides;
  i64 size = 1;  ///< padded elements
  i64 base = 0;  ///< arena base offset, elements

  i64 flatten(const IntVec& index) const {
    EMM_CHECK(index.size() == extents.size(), "local index arity mismatch");
    i64 flat = base;
    for (size_t k = 0; k < extents.size(); ++k) {
      EMM_CHECK(index[k] >= 0 && index[k] < extents[k],
                "local buffer '" + *name + "' index out of bounds in dim " + std::to_string(k) +
                    ": " + std::to_string(index[k]) + " not in [0," +
                    std::to_string(extents[k]) + ")");
      flat += index[k] * strides[k];
    }
    return flat;
  }
};

/// Mirrors the packing planner's arena: padded strides, base offsets by
/// prefix sum rounded to multiples of `align` (bank rows).
std::vector<BufferGeometry> layoutLocals(const CodeUnit& unit, const IntVec& params, i64 align) {
  EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
  EMM_CHECK(static_cast<int>(params.size()) == unit.source->nparam(),
            "parameter arity mismatch");
  std::vector<std::pair<std::string, i64>> env;
  for (int j = 0; j < unit.source->nparam(); ++j)
    env.emplace_back(unit.source->paramNames[j], params[j]);
  std::vector<BufferGeometry> out;
  i64 offset = 0;
  for (const LocalBuffer& b : unit.localBuffers) {
    BufferGeometry g{&b.name, std::vector<i64>(b.ndim), std::vector<i64>(b.ndim), 1, offset};
    for (int d = b.ndim - 1; d >= 0; --d) {
      g.extents[d] = b.sizeExpr[d].eval(env);
      EMM_CHECK(g.extents[d] >= 0, "negative local buffer extent for " + b.name);
      g.strides[d] = g.size;
      g.size = mulChecked(g.size, b.paddedExtent(d, env));
    }
    const i64 end = addChecked(offset, g.size);
    offset = align > 1 ? mulChecked(align, ceilDiv(end, align)) : end;
    out.push_back(std::move(g));
  }
  return out;
}

using WarpAccessFn = std::function<void(const i64*, int)>;

/// Lowers `unit` at one binding and runs it. Data mode (`globals` set) keeps
/// one lane and moves array data; lane mode widens to `width` lanes inside
/// each outermost ThreadParallel loop and reports local word addresses.
class Engine {
public:
  Engine(const CodeUnit& unit, const IntVec& params, i64 align, int width, ArrayStore* globals,
         const WarpAccessFn* warpAccess, i64 wordsPerElement)
      : unit_(unit),
        locals_(layoutLocals(unit, params, align)),
        width_(width),
        globals_(globals),
        warpAccess_(warpAccess),
        wordsPerElement_(wordsPerElement),
        slots_(unit.source->nparam()) {
    for (int j = 0; j < slots_; ++j) scope_.emplace_back(&unit.source->paramNames[j], j);
    for (const Statement& st : unit.statements) lowerStatement(st);
    if (unit.root != nullptr) root_ = lower(*unit.root, 0, 0);
    env_.resize(static_cast<size_t>(width) * slots_);
    std::copy(params.begin(), params.end(), env_.begin());
    masks_.assign(static_cast<size_t>(width) * frames_, 1);
    addrs_.resize(static_cast<size_t>(width));
    if (globals_ != nullptr && !locals_.empty())
      arena_.assign(static_cast<size_t>(locals_.back().base + locals_.back().size), 0.0);
    if (unit.root != nullptr) exec(root_);
  }

  MemTrace trace;
  i64 scalarAccesses = 0;

private:
  bool isLocal(int arrayId) const { return arrayId >= unit_.numGlobalArrays(); }
  const BufferGeometry& local(int id) const { return locals_.at(id - unit_.numGlobalArrays()); }
  i64* lane(int l) { return env_.data() + static_cast<size_t>(l) * slots_; }
  char* frame(int f) { return masks_.data() + static_cast<size_t>(f) * width_; }

  Node lower(const AstNode& n, int depth, int nest) {
    Node out;
    out.ast = &n;
    if (n.kind == AstNode::Kind::For) {
      EMM_CHECK(!n.lb.parts.empty() && !n.ub.parts.empty(), "empty bound expression");
      out.first = rows(n.lb.parts);
      out.second = rows(n.ub.parts);
      out.slots = {unit_.source->nparam() + depth++};
      slots_ = std::max(slots_, out.slots[0] + 1);
      scope_.emplace_back(&n.iter, out.slots[0]);
    } else if (n.kind == AstNode::Kind::Guard) {
      out.first = rows(n.guards);
    } else if (n.kind == AstNode::Kind::Call) {
      const Statement& st = unit_.statements.at(n.stmtId);
      EMM_CHECK(static_cast<int>(n.callArgs.size()) == st.dim(),
                "call arity mismatch for " + st.name);
      out.first = rows(n.callArgs);
      // Parameters are looked up by name with the innermost binding
      // winning: tile-origin parameters are rebound by sub-tile loops.
      for (int j = 0; j < st.domain.nparam(); ++j)
        out.slots.push_back(resolve(unit_.source->paramNames.at(j)));
    } else if (n.kind == AstNode::Kind::Copy) {
      out.first = rows(n.dstIndex);
      out.second = rows(n.srcIndex);
    }
    if (n.kind == AstNode::Kind::For || n.kind == AstNode::Kind::Guard)
      frames_ = std::max(frames_, ++nest + 1);
    for (const AstPtr& c : n.children) out.children.push_back(lower(*c, depth, nest));
    if (n.kind == AstNode::Kind::For) scope_.pop_back();
    return out;
  }

  /// Each access keeps its matrix as rows over the call vector (arguments,
  /// then parameters), the constant column folded into `cnst`.
  void lowerStatement(const Statement& st) {
    const int cols = st.dim() + st.domain.nparam();
    callVec_.resize(std::max(callVec_.size(), static_cast<size_t>(cols)));
    std::vector<std::vector<Row>>& accesses = accesses_.emplace_back();
    for (const Access& a : st.accesses) {
      EMM_CHECK(a.fn.cols() == cols + 1, "vector length mismatch in apply");
      std::vector<Row>& rows = accesses.emplace_back();
      for (int r = 0; r < a.fn.rows(); ++r) {
        rows.push_back(Row{{}, a.fn.at(r, cols), 1});
        for (int c = 0; c < cols; ++c)
          if (a.fn.at(r, c) != 0) rows.back().terms.emplace_back(c, a.fn.at(r, c));
      }
    }
  }

  int resolve(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (*it->first == name) return it->second;
    EMM_CHECK(false, "unbound variable '" + name + "' in AST evaluation");
  }

  std::vector<Row> rows(const std::vector<AffExpr>& exprs) const {
    std::vector<Row> out;
    for (const AffExpr& e : exprs) {
      out.push_back(Row{{}, e.cnst, e.den});
      for (const auto& [name, coeff] : e.terms) {
        const int slot = resolve(name);
        if (coeff != 0) out.back().terms.emplace_back(slot, coeff);
      }
    }
    return out;
  }

  void exec(const Node& n) {
    switch (n.ast->kind) {
      case AstNode::Kind::Block:
      case AstNode::Kind::Comment:
        for (const Node& c : n.children) exec(c);
        return;
      case AstNode::Kind::For:
        return loop(n);
      case AstNode::Kind::Guard:
        // Inside the warp: mask lanes that fail, take the branch if any
        // lane survives.
        if (pushMask([&](int l) {
              return std::all_of(n.first.begin(), n.first.end(),
                                 [&](const Row& g) { return g.evalFloor(lane(l)) >= 0; });
            }))
          for (const Node& c : n.children) exec(c);
        --top_;
        return;
      case AstNode::Kind::Call:
        return call(n);
      case AstNode::Kind::Copy:
        return copy(n);
      case AstNode::Kind::Sync:
        ++trace.syncs;
        return;
    }
  }

  /// Pushes a lane-mask frame of the lanes active in the current one for
  /// which `keep(l)` holds; returns whether any lane is active.
  template <typename Keep>
  bool pushMask(Keep&& keep) {
    const char* saved = frame(top_);
    char* cur = frame(++top_);
    bool any = false;
    for (int l = 0; l < lanes_; ++l) any = (cur[l] = saved[l] && keep(l)) || any;
    return any;
  }

  /// Lockstep SIMT execution of a loop inside the warp: the trip count is
  /// driven by lane 0's bounds, but each lane binds ITS OWN value — its own
  /// lower bound plus the shared iteration offset — and lanes whose value
  /// passes their own upper bound are masked off for that iteration. This
  /// is what carries the lane identity through tiled point loops like
  /// `for (p0 = t0; p0 <= min(.., t0, ..); ...)`, which re-bind the spatial
  /// index per thread. With one lane this is sequential execution.
  /// The outermost ThreadParallel loop in lane mode: lanes are warpSize
  /// consecutive iterations; the walk advances by whole warps.
  void loop(const Node& n) {
    const AstNode& a = *n.ast;
    const int s = n.slots[0];
    const i64 lo = evalBound(n.first, a.lb.isMax, lane(0));
    const i64 hi = evalBound(n.second, a.ub.isMax, lane(0));
    const bool spawn =
        warpAccess_ != nullptr && !inWarp_ && a.loopKind == LoopKind::ThreadParallel;
    const i64 step = spawn ? mulChecked(a.step, static_cast<i64>(width_)) : a.step;
    if (spawn) {
      for (int l = 1; l < width_; ++l) std::copy(lane(0), lane(0) + s, lane(l));
      std::fill(frame(top_), frame(top_) + width_, 1);
      inWarp_ = true;
      lanes_ = width_;
    }
    for (i64 v = lo, k = 0; v <= hi; v += step, ++k) {
      lane(0)[s] = v;
      const bool any = pushMask([&](int l) {
        if (l == 0) return true;
        lane(l)[s] = (spawn ? lo + l * a.step : evalBound(n.first, a.lb.isMax, lane(l))) + k * step;
        return lane(l)[s] <= (spawn ? hi : evalBound(n.second, a.ub.isMax, lane(l)));
      });
      if (any)
        for (const Node& c : n.children) exec(c);
      --top_;
    }
    if (spawn) {
      inWarp_ = false;
      lanes_ = 1;
    }
  }

  static const IntVec& evalIndex(const std::vector<Row>& rows, const i64* env, IntVec& out) {
    out.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) out[k] = rows[k].evalExact(env);
    return out;
  }

  /// Fills the call vector in lane l: the call arguments, then the parameters.
  const i64* callVec(const Node& n, int l) {
    i64* vec = callVec_.data();
    for (const Row& a : n.first) *vec++ = a.evalExact(lane(l));
    for (int s : n.slots) *vec++ = lane(l)[s];
    return callVec_.data();
  }

  /// The element an access reads or writes, counted in the trace.
  double& element(int arrayId, const IntVec& index, bool write) {
    if (isLocal(arrayId)) {
      ++(write ? trace.localWrites : trace.localReads);
      return arena_[local(arrayId).flatten(index)];
    }
    ++(write ? trace.globalWrites : trace.globalReads);
    return globals_->at(arrayId, index);
  }

  double evalExpr(const Expr& e, const Statement& st, const i64* vec) {
    switch (e.kind()) {
      case Expr::Kind::Const:
        return e.constValue();
      case Expr::Kind::Load: {
        const int i = e.accessIndex();
        return element(st.accesses[i].arrayId, evalIndex(rows_[i], vec, idx_), false);
      }
      case Expr::Kind::Abs:
        return std::fabs(evalExpr(*e.lhs(), st, vec));
      case Expr::Kind::Min:
        return std::min(evalExpr(*e.lhs(), st, vec), evalExpr(*e.rhs(), st, vec));
      case Expr::Kind::Max:
        return std::max(evalExpr(*e.lhs(), st, vec), evalExpr(*e.rhs(), st, vec));
      case Expr::Kind::Add:
        return evalExpr(*e.lhs(), st, vec) + evalExpr(*e.rhs(), st, vec);
      case Expr::Kind::Sub:
        return evalExpr(*e.lhs(), st, vec) - evalExpr(*e.rhs(), st, vec);
      case Expr::Kind::Mul:
        return evalExpr(*e.lhs(), st, vec) * evalExpr(*e.rhs(), st, vec);
      case Expr::Kind::Div:
        return evalExpr(*e.lhs(), st, vec) / evalExpr(*e.rhs(), st, vec);
    }
    EMM_CHECK(false, "unreachable expression kind");
  }

  /// One local access site in lane mode: scalar outside a warp; inside one,
  /// the active lanes' word addresses, from `index(l)`, go to warpAccess_.
  template <typename IndexFn>
  void touch(int arrayId, IndexFn&& index) {
    int n = 0;
    for (int l = 0; inWarp_ && l < lanes_; ++l)
      if (frame(top_)[l])
        addrs_[n++] = mulChecked(local(arrayId).flatten(index(l)), wordsPerElement_);
    if (inWarp_)
      (*warpAccess_)(addrs_.data(), n);
    else
      ++scalarAccesses;
  }

  void call(const Node& n) {
    const Statement& st = unit_.statements[n.ast->stmtId];
    rows_ = accesses_[n.ast->stmtId].data();
    if (warpAccess_ != nullptr) {
      for (size_t i = 0; st.writeAccess >= 0 && i < st.accesses.size(); ++i)
        if (isLocal(st.accesses[i].arrayId))
          touch(st.accesses[i].arrayId,
                [&](int l) { return evalIndex(rows_[i], callVec(n, l), idx_); });
      return;
    }
    const i64* vec = callVec(n, 0);
    ++trace.stmtInstances;
    if (st.writeAccess < 0) return;
    const double v = evalExpr(*st.rhs, st, vec);
    const int w = st.writeAccess;
    element(st.accesses[w].arrayId, evalIndex(rows_[w], vec, idx_), true) = v;
  }

  void copy(const Node& n) {
    const AstNode& a = *n.ast;
    if (warpAccess_ != nullptr) {
      if (isLocal(a.srcArray))
        touch(a.srcArray, [&](int l) { return evalIndex(n.second, lane(l), idx_); });
      if (isLocal(a.dstArray))
        touch(a.dstArray, [&](int l) { return evalIndex(n.first, lane(l), idx_); });
      return;
    }
    evalIndex(n.first, lane(0), dst_);
    const double v = element(a.srcArray, evalIndex(n.second, lane(0), idx_), false);
    element(a.dstArray, dst_, true) = v;
    // Copy counts: the load/store above already tallied global/local.
    ++trace.copyElements;
  }

  const CodeUnit& unit_;
  std::vector<BufferGeometry> locals_;
  const int width_;
  ArrayStore* globals_;
  const WarpAccessFn* warpAccess_;
  const i64 wordsPerElement_;
  int slots_;  ///< parameters, then one per loop depth
  std::vector<std::pair<const std::string*, int>> scope_;  ///< innermost binding last
  std::vector<std::vector<std::vector<Row>>> accesses_;    ///< per statement and access
  const std::vector<Row>* rows_ = nullptr;                 ///< the called statement's
  Node root_;
  int frames_ = 1;  ///< lane-mask frames: deepest loop and guard nesting, plus one
  int top_ = 0;     ///< current lane-mask frame
  int lanes_ = 1;   ///< width_ inside a warp, else 1
  bool inWarp_ = false;
  std::vector<i64> env_;     ///< per lane: slot values
  std::vector<char> masks_;  ///< per frame: active lanes
  std::vector<i64> callVec_, addrs_;
  IntVec idx_, dst_;
  std::vector<double> arena_;  ///< local buffers, data mode only
};

}  // namespace

MemTrace executeCodeUnit(const CodeUnit& unit, const IntVec& paramValues, ArrayStore& globals) {
  return Engine(unit, paramValues, 1, 1, &globals, nullptr, 1).trace;
}

i64 executeLanes(const CodeUnit& unit, const IntVec& paramValues, int lanes, i64 arenaAlign,
                 i64 wordsPerElement, const WarpAccessFn& warpAccess) {
  EMM_CHECK(lanes >= 1, "lane count must be positive");
  return Engine(unit, paramValues, arenaAlign, lanes, nullptr, &warpAccess, wordsPerElement)
      .scalarAccesses;
}

i64 scratchpadFootprint(const CodeUnit& unit, const IntVec& paramValues) {
  i64 total = 0;
  for (const BufferGeometry& g : layoutLocals(unit, paramValues, 1))
    total = addChecked(total, g.size);
  return total;
}

}  // namespace emm
