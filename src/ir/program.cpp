#include "ir/program.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "poly/enumerate.h"

namespace emm {

// Expr factories. Members are private; we construct via a local mutable
// instance and copy into the shared_ptr (Expr is a value type internally).
struct ExprAccess {
  static ExprPtr make(Expr::Kind k, double c, int idx, ExprPtr a, ExprPtr b) {
    Expr e;
    e.kind_ = k;
    e.cval_ = c;
    e.accessIdx_ = idx;
    e.a_ = std::move(a);
    e.b_ = std::move(b);
    return std::make_shared<const Expr>(std::move(e));
  }
};

ExprPtr Expr::constant(double v) { return ExprAccess::make(Kind::Const, v, -1, nullptr, nullptr); }
ExprPtr Expr::load(int accessIdx) {
  EMM_CHECK(accessIdx >= 0, "negative access index");
  return ExprAccess::make(Kind::Load, 0, accessIdx, nullptr, nullptr);
}
ExprPtr Expr::add(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Add, 0, -1, std::move(a), std::move(b)); }
ExprPtr Expr::sub(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Sub, 0, -1, std::move(a), std::move(b)); }
ExprPtr Expr::mul(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Mul, 0, -1, std::move(a), std::move(b)); }
ExprPtr Expr::div(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Div, 0, -1, std::move(a), std::move(b)); }
ExprPtr Expr::abs(ExprPtr a) { return ExprAccess::make(Kind::Abs, 0, -1, std::move(a), nullptr); }
ExprPtr Expr::min(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Min, 0, -1, std::move(a), std::move(b)); }
ExprPtr Expr::max(ExprPtr a, ExprPtr b) { return ExprAccess::make(Kind::Max, 0, -1, std::move(a), std::move(b)); }

std::string Expr::str(const std::vector<std::string>& accessText) const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::Const: {
      os << cval_;
      break;
    }
    case Kind::Load: {
      EMM_CHECK(accessIdx_ < static_cast<int>(accessText.size()), "access index out of range");
      os << accessText[accessIdx_];
      break;
    }
    case Kind::Abs:
      os << "fabs(" << a_->str(accessText) << ")";
      break;
    case Kind::Min:
      os << "min(" << a_->str(accessText) << ", " << b_->str(accessText) << ")";
      break;
    case Kind::Max:
      os << "max(" << a_->str(accessText) << ", " << b_->str(accessText) << ")";
      break;
    default: {
      const char* op = kind_ == Kind::Add ? " + " : kind_ == Kind::Sub ? " - "
                       : kind_ == Kind::Mul ? " * " : " / ";
      os << "(" << a_->str(accessText) << op << b_->str(accessText) << ")";
      break;
    }
  }
  return os.str();
}

IntMat ProgramBlock::interleavedSchedule(int dim, int nparam, const std::vector<i64>& positions) {
  EMM_REQUIRE(static_cast<int>(positions.size()) == dim + 1,
              "interleavedSchedule needs dim+1 static positions");
  IntMat s(2 * dim + 1, dim + nparam + 1);
  for (int d = 0; d < dim; ++d) {
    s.at(2 * d, dim + nparam) = positions[d];  // static position
    s.at(2 * d + 1, d) = 1;                    // loop iterator
  }
  s.at(2 * dim, dim + nparam) = positions[dim];
  return s;
}

void ProgramBlock::validate() const {
  for (const Statement& st : statements) {
    EMM_REQUIRE(st.domain.nparam() == nparam(), "statement '" + st.name + "': nparam mismatch");
    EMM_REQUIRE(st.schedule.cols() == st.dim() + nparam() + 1,
                "statement '" + st.name + "': schedule width mismatch");
    for (const Access& a : st.accesses) {
      EMM_REQUIRE(a.arrayId >= 0 && a.arrayId < static_cast<int>(arrays.size()),
                  "statement '" + st.name + "': bad array id");
      EMM_REQUIRE(a.fn.rows() == arrays[a.arrayId].ndim(),
                  "statement '" + st.name + "': access rank mismatch for array " +
                      arrays[a.arrayId].name);
      EMM_REQUIRE(a.fn.cols() == st.dim() + nparam() + 1,
                  "statement '" + st.name + "': access width mismatch");
    }
    if (st.writeAccess >= 0) {
      EMM_REQUIRE(st.writeAccess < static_cast<int>(st.accesses.size()),
                  "statement '" + st.name + "': writeAccess out of range");
      EMM_REQUIRE(st.accesses[st.writeAccess].isWrite,
                  "statement '" + st.name + "': writeAccess is not a write");
      EMM_REQUIRE(st.rhs != nullptr, "statement '" + st.name + "': missing rhs");
    }
  }
}

ArrayStore::ArrayStore(const std::vector<ArrayDecl>& decls) : decls_(decls) {
  data_.reserve(decls.size());
  for (const ArrayDecl& d : decls_) data_.emplace_back(static_cast<size_t>(d.elementCount()), 0.0);
}

size_t ArrayStore::flatten(int arrayId, const IntVec& index) const {
  EMM_CHECK(arrayId >= 0 && arrayId < numArrays(), "array id out of range");
  const ArrayDecl& d = decls_[arrayId];
  EMM_CHECK(static_cast<int>(index.size()) == d.ndim(), "index arity mismatch");
  size_t flat = 0;
  for (int k = 0; k < d.ndim(); ++k) {
    EMM_CHECK(index[k] >= 0 && index[k] < d.extents[k],
              "index out of bounds for array " + d.name + " dim " + std::to_string(k) +
                  ": " + std::to_string(index[k]) + " not in [0," +
                  std::to_string(d.extents[k]) + ")");
    flat = flat * static_cast<size_t>(d.extents[k]) + static_cast<size_t>(index[k]);
  }
  return flat;
}

double ArrayStore::get(int arrayId, const IntVec& index) const {
  return data_[arrayId][flatten(arrayId, index)];
}

void ArrayStore::set(int arrayId, const IntVec& index, double v) {
  data_[arrayId][flatten(arrayId, index)] = v;
}

void ArrayStore::fillPattern(int arrayId, unsigned seed) {
  // Small deterministic LCG; values kept small so double arithmetic is exact.
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (double& v : data_[arrayId]) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<double>((state >> 33) % 1000) - 500.0;
  }
}

void ArrayStore::fillAllPattern(unsigned seed) {
  for (int a = 0; a < numArrays(); ++a) fillPattern(a, seed + static_cast<unsigned>(a) * 977u);
}

double ArrayStore::maxAbsDiff(const ArrayStore& a, const ArrayStore& b) {
  EMM_CHECK(a.numArrays() == b.numArrays(), "array store shape mismatch");
  double worst = 0;
  for (int i = 0; i < a.numArrays(); ++i) {
    EMM_CHECK(a.data_[i].size() == b.data_[i].size(), "array size mismatch");
    for (size_t j = 0; j < a.data_[i].size(); ++j)
      worst = std::max(worst, std::fabs(a.data_[i][j] - b.data_[i][j]));
  }
  return worst;
}

namespace {

double evalExpr(const Expr& e, const Statement& st, const IntVec& iterAndParams,
                const ArrayStore& store) {
  switch (e.kind()) {
    case Expr::Kind::Const:
      return e.constValue();
    case Expr::Kind::Load: {
      const Access& acc = st.accesses[e.accessIndex()];
      IntVec hom = iterAndParams;
      hom.push_back(1);
      return store.get(acc.arrayId, acc.fn.apply(hom));
    }
    case Expr::Kind::Abs:
      return std::fabs(evalExpr(*e.lhs(), st, iterAndParams, store));
    case Expr::Kind::Min:
      return std::min(evalExpr(*e.lhs(), st, iterAndParams, store),
                      evalExpr(*e.rhs(), st, iterAndParams, store));
    case Expr::Kind::Max:
      return std::max(evalExpr(*e.lhs(), st, iterAndParams, store),
                      evalExpr(*e.rhs(), st, iterAndParams, store));
    case Expr::Kind::Add:
      return evalExpr(*e.lhs(), st, iterAndParams, store) +
             evalExpr(*e.rhs(), st, iterAndParams, store);
    case Expr::Kind::Sub:
      return evalExpr(*e.lhs(), st, iterAndParams, store) -
             evalExpr(*e.rhs(), st, iterAndParams, store);
    case Expr::Kind::Mul:
      return evalExpr(*e.lhs(), st, iterAndParams, store) *
             evalExpr(*e.rhs(), st, iterAndParams, store);
    case Expr::Kind::Div:
      return evalExpr(*e.lhs(), st, iterAndParams, store) /
             evalExpr(*e.rhs(), st, iterAndParams, store);
  }
  EMM_CHECK(false, "unreachable expression kind");
}

}  // namespace

/// Executes one statement instance.
static void executeInstance(const Statement& st, const IntVec& iterAndParams, ArrayStore& store) {
  if (st.writeAccess < 0) return;
  double v = evalExpr(*st.rhs, st, iterAndParams, store);
  const Access& w = st.accesses[st.writeAccess];
  IntVec hom = iterAndParams;
  hom.push_back(1);
  store.set(w.arrayId, w.fn.apply(hom), v);
}

namespace {

/// Renders one affine row over [iters(dim), params, 1] as e.g. "i0+2*i1+N0-1".
std::string affineRowText(const IntVec& row, int dim, const std::vector<std::string>& paramNames) {
  std::ostringstream os;
  bool any = false;
  auto term = [&](i64 coeff, const std::string& var) {
    if (coeff == 0) return;
    if (any) os << (coeff > 0 ? "+" : "-");
    else if (coeff < 0) os << "-";
    const i64 mag = coeff < 0 ? -coeff : coeff;
    if (mag != 1) os << mag << "*";
    os << var;
    any = true;
  };
  for (int j = 0; j < dim; ++j) term(row[j], "i" + std::to_string(j));
  for (size_t p = 0; p < paramNames.size(); ++p) term(row[dim + p], paramNames[p]);
  const i64 c = row.back();
  if (c != 0 || !any) {
    if (any && c > 0) os << "+";
    os << c;
  }
  return os.str();
}

}  // namespace

std::string printProgramBlock(const ProgramBlock& block) {
  std::ostringstream os;
  os << "block '" << block.name << "'";
  if (!block.paramNames.empty()) {
    os << " params(";
    for (size_t p = 0; p < block.paramNames.size(); ++p)
      os << (p ? "," : "") << block.paramNames[p];
    os << ")";
  }
  os << "\n";
  for (const ArrayDecl& a : block.arrays) {
    os << "  array " << a.name;
    for (i64 e : a.extents) os << "[" << e << "]";
    os << "\n";
  }
  for (const Statement& st : block.statements) {
    os << "  stmt " << st.name << " dim=" << st.dim() << "\n";
    os << "    domain: " << st.domain.str() << "\n";
    std::vector<std::string> accessText;
    for (const Access& a : st.accesses) {
      std::string t = block.arrays[a.arrayId].name;
      for (int r = 0; r < a.fn.rows(); ++r)
        t += "[" + affineRowText(a.fn.row(r), st.dim(), block.paramNames) + "]";
      accessText.push_back(std::move(t));
    }
    if (st.writeAccess >= 0 && st.rhs != nullptr)
      os << "    " << accessText[st.writeAccess] << " = " << st.rhs->str(accessText) << "\n";
    for (size_t i = 0; i < st.accesses.size(); ++i)
      os << "    access[" << i << "] " << (st.accesses[i].isWrite ? "W " : "R ") << accessText[i]
         << "\n";
    os << "    schedule:";
    for (int r = 0; r < st.schedule.rows(); ++r)
      os << " (" << affineRowText(st.schedule.row(r), st.dim(), block.paramNames) << ")";
    os << "\n";
  }
  return os.str();
}

void executeReference(const ProgramBlock& block, const IntVec& paramValues, ArrayStore& store) {
  block.validate();
  // Collect (time vector, stmt, iter) for every instance, sort, execute.
  struct Instance {
    IntVec time;
    int stmt;
    IntVec iter;
  };
  std::vector<Instance> instances;
  int maxTime = 0;
  for (const Statement& st : block.statements)
    maxTime = std::max(maxTime, st.schedule.rows());
  for (size_t s = 0; s < block.statements.size(); ++s) {
    const Statement& st = block.statements[s];
    forEachPoint(st.domain, paramValues, [&](const IntVec& iter) {
      IntVec hom = iter;
      hom.insert(hom.end(), paramValues.begin(), paramValues.end());
      hom.push_back(1);
      IntVec time = st.schedule.apply(hom);
      time.resize(maxTime, 0);  // pad so lexicographic comparison is aligned
      instances.push_back({std::move(time), static_cast<int>(s), iter});
    });
  }
  std::stable_sort(instances.begin(), instances.end(), [](const Instance& a, const Instance& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.stmt < b.stmt;
  });
  for (const Instance& inst : instances) {
    IntVec ip = inst.iter;
    ip.insert(ip.end(), paramValues.begin(), paramValues.end());
    executeInstance(block.statements[inst.stmt], ip, store);
  }
}

}  // namespace emm
