// Pins the one CodeUnit engine (ir/interp.h) in both of its modes:
//  - the exact counts of the generated units bench/ext_bank_conflicts.cpp
//    grades (ME and the thread-per-row 2-D Jacobi unit, packed and
//    unpacked), bank statistics and memory trace alike;
//  - the closed-form rule the packing planner chooses its pads by: lanes
//    striding a buffer by pitch P cost gcd(P, banks) cycles per access;
//  - parameter rebinding: a loop that rebinds a parameter name (as sub-tile
//    loops rebind tile origins) shadows it, for call arguments and for the
//    statement's parameter columns, in data mode and in lane mode.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "driver/compiler.h"
#include "gpusim/bank_conflicts.h"
#include "ir/interp.h"
#include "kernels/blocks.h"

namespace emm {
namespace {

struct Counts {
  i64 warpAccesses, bankCycles, conflictedAccesses, scalarAccesses;
  i64 stmtInstances, globalReads, globalWrites, localReads, localWrites, copyElements, syncs;
};

void expectCounts(const CodeUnit& unit, const ProgramBlock& input, const IntVec& params,
                  const Counts& want) {
  const BankConflictStats s = countBankConflicts(unit, params, BankConflictOptions{});
  EXPECT_EQ(s.warpAccesses, want.warpAccesses);
  EXPECT_EQ(s.bankCycles, want.bankCycles);
  EXPECT_EQ(s.conflictedAccesses, want.conflictedAccesses);
  EXPECT_EQ(s.scalarAccesses, want.scalarAccesses);
  ArrayStore store(input.arrays);
  store.fillAllPattern(17);
  const MemTrace t = executeCodeUnit(unit, params, store);
  EXPECT_EQ(t.stmtInstances, want.stmtInstances);
  EXPECT_EQ(t.globalReads, want.globalReads);
  EXPECT_EQ(t.globalWrites, want.globalWrites);
  EXPECT_EQ(t.localReads, want.localReads);
  EXPECT_EQ(t.localWrites, want.localWrites);
  EXPECT_EQ(t.copyElements, want.copyElements);
  EXPECT_EQ(t.syncs, want.syncs);
}

void markThreadParallel(AstNode& n, const std::string& iter) {
  if (n.kind == AstNode::Kind::For && n.iter == iter) n.loopKind = LoopKind::ThreadParallel;
  for (const AstPtr& c : n.children) markThreadParallel(*c, iter);
}

TEST(BankConflicts, MeCountsArePinned) {
  const i64 ni = 64, nj = 64, w = 16;
  // Padding changes strides, never the instruction stream or the trace.
  const Counts unpacked = {262144, 2228224, 131072, 65344,  1048576, 61248,
                           4096,   3149824, 1109824, 65344, 80};
  Counts packed = unpacked;
  packed.bankCycles = 262144;
  packed.conflictedAccesses = 0;
  for (bool pack : {false, true}) {
    SCOPED_TRACE(pack ? "packed" : "unpacked");
    Compiler c(buildMeBlock(ni, nj, w));
    c.parameters({ni, nj, w}).tileSizes({32, 16, 16, 4}).backend("cuda");
    c.opts().packBuffers = pack;
    const CompileResult r = c.compile();
    ASSERT_TRUE(r.ok && r.unit() != nullptr);
    IntVec ext = {ni, nj, w};
    ext.resize(r.unit()->source->paramNames.size(), 0);
    expectCounts(*r.unit(), *r.input, ext, pack ? packed : unpacked);
  }
}

TEST(BankConflicts, Jacobi2dThreadPerRowCountsArePinned) {
  const i64 n = 18, m = 18, t = 2;
  const Counts unpacked = {256, 1408, 256, 1088, 1024, 576, 512, 3584, 1600, 1088, 0};
  Counts packed = unpacked;
  packed.bankCycles = 256;
  packed.conflictedAccesses = 0;
  for (bool pack : {false, true}) {
    SCOPED_TRACE(pack ? "packed" : "unpacked");
    Compiler c(buildJacobi2dBlock(n, m, t));
    c.parameters({n, m, t}).scratchpadOnly(true).stageEverything(true).memoryLimitBytes(64 * 1024);
    c.opts().packBuffers = pack;
    const CompileResult r = c.compile();
    ASSERT_TRUE(r.ok && r.scratchpadUnit.has_value());
    CodeUnit unit = *r.scratchpadUnit;
    AstPtr root = unit.root->clone();  // the result's AST is shared
    markThreadParallel(*root, "c1");
    unit.root = std::move(root);
    expectCounts(unit, *r.input, {n, m, t}, pack ? packed : unpacked);
  }
}

/// for (t = 0; t <= 31; t++) [ThreadParallel]  L[t][0] = G[t];
/// with L allocated 32 x pitch, so lane t writes word t * pitch.
CodeUnit pitchUnit(const ProgramBlock& block, i64 pitch) {
  CodeUnit unit;
  unit.source = &block;
  LocalBuffer buf;
  buf.name = "L";
  buf.ndim = 2;
  buf.offset = {AffExpr::constant(0), AffExpr::constant(0)};
  buf.sizeExpr = {BoundExpr::single(AffExpr::constant(32), false),
                  BoundExpr::single(AffExpr::constant(pitch), false)};
  unit.localBuffers.push_back(buf);
  AstPtr root = AstNode::block();
  AstNode* loop = root->addChild(AstNode::forLoop(
      "t", BoundExpr::single(AffExpr::constant(0), true),
      BoundExpr::single(AffExpr::constant(31), false), 1, LoopKind::ThreadParallel));
  loop->addChild(
      AstNode::copy(1, {AffExpr::var("t"), AffExpr::constant(0)}, 0, {AffExpr::var("t")}));
  unit.root = std::move(root);
  return unit;
}

TEST(BankConflicts, LaneStrideCostsGcdOfPitchAndBanks) {
  ProgramBlock block;
  block.name = "pitch";
  block.arrays = {{"G", {32}}};
  for (i64 pitch = 1; pitch <= 33; ++pitch) {
    SCOPED_TRACE("pitch " + std::to_string(pitch));
    const CodeUnit unit = pitchUnit(block, pitch);
    BankConflictOptions bc;  // 16 banks, 16 lanes: two warps
    BankConflictStats s = countBankConflicts(unit, {}, bc);
    EXPECT_EQ(s.warpAccesses, 2);
    EXPECT_EQ(s.bankCycles, 2 * std::gcd(pitch, i64{16}));
    EXPECT_EQ(s.scalarAccesses, 0);
    bc.banks = 1;
    s = countBankConflicts(unit, {}, bc);
    EXPECT_EQ(s.bankCycles, 2);
    EXPECT_EQ(s.conflictedAccesses, 0);
  }
}

/// Block with parameter T and a unit whose loop rebinds T per lane:
///   for (t = 0; t <= 15; t++) [ThreadParallel]
///     for (T = t; T <= t; T++)
///       S0(T): L[x][0] = A[T][1];   x from the call argument, T a column
///       S1(T): B[x][2] = L[T][0];
/// Read with the innermost binding, B[t][2] == A[t][1] for every t.
struct RebindCase {
  ProgramBlock block;
  CodeUnit unit;

  RebindCase() {
    block.name = "rebind";
    block.paramNames = {"T"};
    block.arrays = {{"A", {16, 2}}, {"B", {16, 3}}};
    unit.source = &block;
    LocalBuffer buf;
    buf.name = "L";
    buf.ndim = 2;
    buf.offset = {AffExpr::constant(0), AffExpr::constant(0)};
    buf.sizeExpr = {BoundExpr::single(AffExpr::constant(16), false),
                    BoundExpr::single(AffExpr::constant(16), false)};
    unit.localBuffers.push_back(buf);
    // Columns of every access matrix: (x, T, 1).
    unit.statements.push_back(statement("S0", {2, IntMat{{1, 0, 0}, {0, 0, 0}}},
                                        {0, IntMat{{0, 1, 0}, {0, 0, 1}}}));
    unit.statements.push_back(statement("S1", {1, IntMat{{1, 0, 0}, {0, 0, 2}}},
                                        {2, IntMat{{0, 1, 0}, {0, 0, 0}}}));
    AstPtr root = AstNode::block();
    AstNode* lanes = root->addChild(AstNode::forLoop(
        "t", BoundExpr::single(AffExpr::constant(0), true),
        BoundExpr::single(AffExpr::constant(15), false), 1, LoopKind::ThreadParallel));
    AstNode* rebind = lanes->addChild(AstNode::forLoop(
        "T", BoundExpr::single(AffExpr::var("t"), true),
        BoundExpr::single(AffExpr::var("t"), false)));
    rebind->addChild(AstNode::call(0, {AffExpr::var("T")}));
    rebind->addChild(AstNode::call(1, {AffExpr::var("T")}));
    unit.root = std::move(root);
  }

  static Statement statement(const std::string& name, std::pair<int, IntMat> write,
                             std::pair<int, IntMat> read) {
    Statement s;
    s.name = name;
    s.domain = Polyhedron(1, 1);
    Access w;
    w.arrayId = write.first;
    w.fn = write.second;
    w.isWrite = true;
    Access r;
    r.arrayId = read.first;
    r.fn = read.second;
    s.accesses = {w, r};
    s.writeAccess = 0;
    s.rhs = Expr::load(1);
    return s;
  }
};

TEST(Interp, ForRebindingAParameterIsReadInnermostFirst) {
  RebindCase c;
  ArrayStore store(c.block.arrays);
  store.fillAllPattern(5);
  const ArrayStore before = store;
  const MemTrace t = executeCodeUnit(c.unit, {0}, store);
  EXPECT_EQ(t.stmtInstances, 32);
  for (i64 i = 0; i < 16; ++i) {
    EXPECT_EQ(store.get(1, {i, 2}), before.get(0, {i, 1})) << "row " << i;
    EXPECT_EQ(store.get(1, {i, 0}), before.get(1, {i, 0}));
  }
}

TEST(BankConflicts, ForRebindingAParameterIsReadInnermostFirst) {
  RebindCase c;
  // Both local accesses put lane t at word 16 * t: all 16 lanes in bank 0.
  // An outer binding (T = 0) would broadcast one address in one cycle.
  const BankConflictStats s = countBankConflicts(c.unit, {0});
  EXPECT_EQ(s.warpAccesses, 2);
  EXPECT_EQ(s.bankCycles, 32);
  EXPECT_EQ(s.conflictedAccesses, 2);
  EXPECT_EQ(s.scalarAccesses, 0);
}

}  // namespace
}  // namespace emm
