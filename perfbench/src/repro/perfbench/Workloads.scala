package repro.perfbench

import repro.baseline.DualTreeBoruvka
import repro.core.{CoreDist, Dendrogram, EmstGfk, Hdbscan, MemoGfk, MstResult}
import repro.geometry.{Generators, PointSet}
import repro.kdtree.KdTree
import repro.mst.Prim
import repro.par.ParScheme
import repro.wspd.{Ctx, MutualReachMetric}

/** One solve's output: the MST, HDBSCAN* core distances (null for EMST) and
  * the ordered dendrogram (null when the workload builds none).
  */
final case class Solved(mst: MstResult, coreDist: Array[Double], dendro: Dendrogram)

/** Exact answer for one input, computed once per run outside every timed
  * interval: the MST weight and, for HDBSCAN*, the brute-force core distances.
  */
final case class Reference(weight: Double, coreDist: Array[Double])

/** A benchmark workload: an input generator, the solve it times (through
  * the program's public entry points) and a traced replay of that solve.
  * A run solves `inputs` independent inputs of `n` points each, so that one
  * unlucky input does not set the run's figures.
  */
sealed abstract class Workload(val name: String, val n: Int, val inputs: Int, val tinyN: Int) {
  def generate(n: Int, seed: Long): PointSet
  def reference(ps: PointSet): Reference
  /** `parallel` selects the parallel dendrogram where the workload has one. */
  def solve(ps: PointSet, par: ParScheme, parallel: Boolean): Solved
  def traced(ps: PointSet, par: ParScheme, parallel: Boolean, clock: LayerClock)
      : (Solved, ReplayCounts)
  /** Shares the engine makes for a run of `rounds` rounds. */
  def expectedShares(rounds: Int): Long
}

object Workloads {
  val MinPts = 10

  object GeoLife3d extends Workload("hdbscan-geolife3d", n = 4000, inputs = 6, tinyN = 600) {
    def generate(n: Int, seed: Long): PointSet = Generators.geoLifeLike(n, seed)

    /** Brute-force core distances and dense Prim over mutual reachability. */
    def reference(ps: PointSet): Reference = {
      val cd = Array.tabulate(ps.n)(i => bruteCoreDist(ps, i))
      val mst = Prim.denseMst(ps.n, (i, j) => math.max(math.max(cd(i), cd(j)), ps.dist(i, j)))
      Reference(Prim.weight(mst), cd)
    }

    def solve(ps: PointSet, par: ParScheme, parallel: Boolean): Solved = {
      val r = Hdbscan.mst(ps, MinPts, MemoGfk, par)
      Solved(r.mst, r.coreDist, dendrogram(ps.n, r.mst, parallel))
    }

    def traced(ps: PointSet, par: ParScheme, parallel: Boolean, clock: LayerClock) = {
      val tree = clock.span("kdtree")(KdTree.build(ps))
      val cd = clock.span("coredist")(CoreDist.compute(tree, MinPts, par))
      val ctx = Ctx.mutualReach(tree, cd)
      val (mst, counts) = Replay.memoGfk(ctx, MemoGfk.sep, MutualReachMetric, par, clock)
      val d = clock.span(if (parallel) "dendro.par" else "dendro.seq")(
        dendrogram(ps.n, mst, parallel))
      (Solved(mst, cd, d), counts)
    }

    // CoreDist shares the tree once, then the engine shares as for EMST.
    def expectedShares(rounds: Int): Long = 2L + 2L * rounds

    private def dendrogram(n: Int, mst: MstResult, parallel: Boolean): Dendrogram =
      if (parallel) Dendrogram.buildParallel(n, mst.edges, s = 0)
      else Dendrogram.buildSequential(n, mst.edges, s = 0)
  }

  object GfkVarden3d extends Workload("emst-gfk-varden3d", n = 5000, inputs = 8, tinyN = 800) {
    def generate(n: Int, seed: Long): PointSet = Generators.ssVarden(n, 3, seed)
    def reference(ps: PointSet): Reference = Reference(Prim.weight(DualTreeBoruvka.mst(ps)), null)
    def solve(ps: PointSet, par: ParScheme, parallel: Boolean): Solved =
      Solved(EmstGfk.mst(ps, par), null, null)
    def traced(ps: PointSet, par: ParScheme, parallel: Boolean, clock: LayerClock) = {
      val (mst, counts) = Replay.gfk(ps, par, clock)
      (Solved(mst, null, null), counts)
    }
    def expectedShares(rounds: Int): Long = 1L
  }

  val all: Seq[Workload] = Seq(GeoLife3d, GfkVarden3d)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Distance from `i` to its MinPts-th nearest point, counting `i` itself,
    * by a scan over all points.
    */
  def bruteCoreDist(ps: PointSet, i: Int): Double = {
    val best = Array.fill(MinPts)(Double.PositiveInfinity) // ascending
    var j = 0
    while (j < ps.n) {
      val d = ps.dist2(i, j)
      if (d < best(MinPts - 1)) {
        var k = MinPts - 1
        while (k > 0 && best(k - 1) > d) { best(k) = best(k - 1); k -= 1 }
        best(k) = d
      }
      j += 1
    }
    math.sqrt(best(MinPts - 1))
  }
}
