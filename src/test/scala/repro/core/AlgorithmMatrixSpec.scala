package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.{Generators, PointSet}
import repro.mst.Prim
import repro.par.SeqScheme

/** Fine-grained correctness matrix: one registered test per
  * (algorithm, data shape, dimension, seed) cell, so a regression pinpoints
  * the exact configuration that broke. Sizes are small enough for the dense
  * Prim oracle.
  */
class AlgorithmMatrixSpec extends AnyFunSuite {

  private val emstAlgos: Seq[(String, PointSet => IndexedSeq[repro.mst.Edge])] = Seq(
    ("EMST-Naive", ps => EmstNaive.mst(ps, SeqScheme).edges),
    ("EMST-GFK", ps => EmstGfk.mst(ps, SeqScheme).edges),
    ("EMST-MemoGFK", ps => EmstMemoGfk.mst(ps, SeqScheme).edges),
    ("DualTreeBoruvka", ps => repro.baseline.DualTreeBoruvka.mst(ps)),
  )

  private val shapes: Seq[(String, (Int, Int, Long) => PointSet)] = Seq(
    ("uniform", (n, d, s) => TestUtil.randomPoints(n, d, s)),
    ("varden", (n, d, s) => Generators.ssVarden(n, d, s)),
    ("clustered", (n, d, s) => TestUtil.clusteredPoints(n, d, s)),
    ("duplicates", (n, d, s) => TestUtil.pointsWithDuplicates(n, d, s)),
  )

  for {
    (aName, algo) <- emstAlgos
    (sName, gen) <- shapes
    dim <- Seq(2, 3, 5)
  } test(s"$aName / $sName / ${dim}D matches dense Prim") {
    val ps = gen(90, dim, 1000L + dim)
    val got = algo(ps)
    assert(got.size == ps.n - 1)
    TestUtil.assertSameWeight(got, TestUtil.bruteEmst(ps))
  }

  for {
    (vName, variant) <- Seq(("GanTao", GanTao: HdbscanVariant), ("MemoGFK", MemoGfk: HdbscanVariant))
    (sName, gen) <- shapes
    minPts <- Seq(2, 5, 10)
  } test(s"HDBSCAN*-$vName / $sName / minPts=$minPts matches dense Prim on G_MR") {
    val ps = gen(90, 2, 2000L + minPts)
    val got = Hdbscan.mst(ps, minPts, variant, SeqScheme)
    assert(got.mst.edges.size == ps.n - 1)
    TestUtil.assertSameWeight(got.mst.edges, TestUtil.bruteMutualReachMst(ps, minPts))
  }

  for {
    (sName, gen) <- shapes
    seed <- Seq(1L, 2L)
  } test(s"ordered dendrogram / $sName / seed=$seed: in-order equals Prim order") {
    val ps = gen(80, 2, 3000L + seed)
    val mst = TestUtil.bruteEmst(ps)
    // Tie-heavy inputs (duplicates) exercise the deterministic tie-breaking.
    val d = Dendrogram.buildSequential(ps.n, mst, s = 0)
    val (order, bars) = d.reachabilityPlot()
    val (wantOrder, wantBars) = Prim.treeOrder(ps.n, mst, 0)
    assert(order.sameElements(wantOrder))
    bars.zip(wantBars).foreach { case (a, b) => assert(a == b || math.abs(a - b) < 1e-12) }
  }

  for {
    (sName, gen) <- shapes
    cutoff <- Seq(8, 64)
  } test(s"parallel dendrogram / $sName / cutoff=$cutoff equals sequential") {
    val ps = gen(120, 2, 4000L + cutoff)
    val mst = TestUtil.bruteEmst(ps)
    val seq = Dendrogram.buildSequential(ps.n, mst, s = 0)
    val par = Dendrogram.buildParallel(ps.n, mst, s = 0, cutoff = cutoff)
    assert(par.root == seq.root)
    assert(par.left.sameElements(seq.left) && par.right.sameElements(seq.right))
  }
}
