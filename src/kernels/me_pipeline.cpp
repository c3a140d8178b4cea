#include "kernels/me_pipeline.h"

#include "driver/compiler.h"

namespace emm {

MePipeline buildMePipeline(const MeConfig& config) {
  MePipeline p;
  p.block = buildMeBlock(config.ni, config.nj, config.w);
  p.paramValues = {config.ni, config.nj, config.w};

  // Space loops are (i, j); divide the i range equally across blocks (the
  // paper distributes tiles equally, boundary tiles excepted). Block tiles
  // are rounded up to sub-tile multiples so sub-tiles nest exactly.
  i64 blockTileI = std::max<i64>(1, ceilDiv(config.ni, config.numBlocks));
  blockTileI = mulChecked(ceilDiv(blockTileI, config.subTile[0]), config.subTile[0]);
  i64 blockTileJ = mulChecked(ceilDiv(config.nj, config.subTile[1]), config.subTile[1]);

  // Threads cover the (i, j) sub-tile: distribute j across threads, i in
  // chunks of 1 (a thread-tile of 1 x 1 point per thread pass).
  CompileResult r = Compiler(p.block)
                        .parameters(p.paramValues)
                        .tileSizes(config.subTile)
                        .blockTileSizes({blockTileI, blockTileJ})
                        .threadTileSizes({1, 1})
                        .useScratchpad(config.useScratchpad)
                        .hoistCopies(config.hoistCopies)
                        .skipPass("tilesearch")  // sizes are given; no need to re-evaluate
                        .skipPass("codegen")     // callers render through a Backend themselves
                        .compile();
  EMM_REQUIRE(r.ok, "ME pipeline failed: " + r.firstError());
  EMM_REQUIRE(r.plan.spaceLoops.size() == 2, "ME should expose two space loops");
  EMM_REQUIRE(r.kernel.has_value(), "ME pipeline produced no tiled kernel");
  p.transform.block = *r.transformed;  // the result's blocks are shared and immutable
  p.transform.plan = std::move(r.plan);
  p.transform.appliedSkews = std::move(r.appliedSkews);
  p.kernel = std::move(*r.kernel);
  return p;
}

KernelModel modelMe(const MeConfig& c) {
  KernelModel m;
  // Work decomposition. Every statement instance performs:
  //   1 write + 3 reads (out, cur, ref) and ~5 scalar ops
  // (sub, abs, add, plus addressing folded into the op count).
  i64 points = mulChecked(c.ni, c.nj);
  i64 instances = mulChecked(points, mulChecked(c.w, c.w));
  i64 pointsPerBlock = ceilDiv(points, c.numBlocks);
  i64 instancesPerBlock = mulChecked(pointsPerBlock, mulChecked(c.w, c.w));

  m.launch.numBlocks = c.numBlocks;
  m.launch.threadsPerBlock = c.numThreads;
  m.launch.interBlockSyncs = 0;  // ME needs no inter-block synchronization

  const i64 ti = c.subTile[0], tj = c.subTile[1], tk = c.subTile[2], tl = c.subTile[3];
  if (!c.useScratchpad) {
    m.launch.smemBytesPerBlock = 0;
    m.perBlock.globalElems = mulChecked(4, instancesPerBlock);
    m.perBlock.smemElems = 0;
    m.perBlock.computeOps = mulChecked(5, instancesPerBlock);
    m.perBlock.intraSyncs = 0;
  } else {
    // Buffers per sub-tile: Lout = ti*tj; Lcur = Lref = (ti+tk-1)*(tj+tl-1)
    // ... except k, l tiles covering the full window give (ti+W-1)(tj+W-1).
    i64 kl = mulChecked(ceilDiv(c.w, tk), ceilDiv(c.w, tl));
    i64 curExt = mulChecked(ti + std::min(tk, c.w) - 1, tj + std::min(tl, c.w) - 1);
    m.launch.smemBytesPerBlock =
        mulChecked(4, addChecked(mulChecked(ti, tj), mulChecked(2, curExt)));

    i64 ijTilesPerBlock = ceilDiv(pointsPerBlock, mulChecked(ti, tj));
    // out: moved in+out once per (i,j) sub-tile (hoisted above k', l').
    i64 outTraffic = mulChecked(2, pointsPerBlock);
    // cur/ref: moved in once per full (i,j,k,l) sub-tile.
    i64 windowTraffic = mulChecked(mulChecked(ijTilesPerBlock, kl), mulChecked(2, curExt));
    m.perBlock.globalElems = addChecked(outTraffic, windowTraffic);
    // Compute touches the scratchpad 4x per instance; every copied element
    // additionally costs one scratchpad access (fill on move-in, drain on
    // move-out).
    m.perBlock.smemElems =
        addChecked(mulChecked(4, instancesPerBlock), m.perBlock.globalElems);
    m.perBlock.computeOps = mulChecked(5, instancesPerBlock);
    // One barrier after each copy fragment: 2 per (i,j) tile for out
    // (in+out), 2 per inner sub-tile for cur+ref move-ins.
    m.perBlock.intraSyncs =
        addChecked(mulChecked(2, ijTilesPerBlock), mulChecked(2, mulChecked(ijTilesPerBlock, kl)));
  }

  // CPU baseline: same instances on one core; effective memory touches are
  // mostly cache hits, modeled as one element per instance.
  m.cpuOps = mulChecked(5, instances);
  m.cpuMemElems = instances;
  return m;
}

}  // namespace emm
