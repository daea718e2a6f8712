package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.{SparkSpec, TestUtil}
import repro.geometry.{Generators, PointSet}
import repro.kdtree.KdTree
import repro.mst.{Edge, Kruskal, UnionFind}
import repro.par.{ParScheme, SeqScheme, SparkScheme}
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, MutualReachMetric, MutualUnreachableSep, Wspd}

/** Every algorithm must produce identical results under the sequential
  * scheme and the Spark RDD fan-out scheme — the paper's "1 thread" vs
  * "48 cores" methodology depends on the two code paths computing the same
  * thing.
  */
class SparkParitySpec extends SparkSpec {

  private lazy val par = new SparkScheme(spark.sparkContext)

  test("WSPD pairs match between seq and spark schemes") {
    val ps = TestUtil.randomPoints(400, 2, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    val seqPairs = Wspd.allPairs(SeqScheme.share(c), GeometricSep(2.0), SeqScheme).toSet
    val sc = par.share(c)
    try {
      val parPairs = Wspd.allPairs(sc, GeometricSep(2.0), par).toSet
      assert(parPairs == seqPairs)
    } finally sc.release()
  }

  // Rounds within one WorkBudget stay on the driver, so the small inputs
  // above never launch a WSPD job. Below, the tests that expect jobs use
  // inputs large enough that some traversals exceed the budget and fan out.

  test("small MemoGFK EMST under Spark runs no job and does the same work as Seq") {
    val ps = Generators.ssVarden(500, 2, 4)
    val seq = EmstMemoGfk.mst(ps, SeqScheme)
    val (jobs, spk) = jobsDuring(EmstMemoGfk.mst(ps, par))
    assert(jobs == 0)
    assert(spk.stats == seq.stats)
    assert(spk.edges == seq.edges)
  }

  /** HDBSCAN*-MemoGFK (minPts 10) on `ps` under Seq, then under Spark with
    * the number of jobs the Spark run launched.
    */
  private def hdbscanSeqAndSpark(ps: PointSet): (MstResult, Int, MstResult) = {
    val tree = KdTree.build(ps)
    val ctx = Ctx.mutualReach(tree, CoreDist.compute(tree, 10, SeqScheme))
    val seq = MemoGfkEngine.mst(ctx, MemoGfk.sep, MutualReachMetric, SeqScheme)
    val (jobs, spk) = jobsDuring(MemoGfkEngine.mst(ctx, MemoGfk.sep, MutualReachMetric, par))
    (seq, jobs, spk)
  }

  test("HDBSCAN*-MemoGFK on 4K GeoLife-like points runs no job and does the same work as Seq") {
    val (seq, jobs, spk) = hdbscanSeqAndSpark(Generators.geoLifeLike(4000, 1))
    assert(jobs == 0)
    assert(spk.stats == seq.stats)
    assert(spk.edges == seq.edges)
  }

  test("HDBSCAN*-MemoGFK on 4K 5D uniform points fans out a WSPD round and equals Seq") {
    val (seq, jobs, spk) = hdbscanSeqAndSpark(Generators.uniformFill(4000, 5, 1))
    assert(jobs >= 1, "no WSPD traversal exceeded the budget")
    assert(spk.edges == seq.edges)
  }

  test("7D WSPD and MemoGFK EMST fan out GetRho, GetPairs and allPairs and equal Seq") {
    val ps = Generators.uniformFill(2000, 7, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    val seqPairs = Wspd.allPairs(SeqScheme.share(c), GeometricSep(2.0), SeqScheme).toSet
    val sc = par.share(c)
    try {
      val (jobs, parPairs) = jobsDuring(Wspd.allPairs(sc, GeometricSep(2.0), par))
      assert(jobs == 1)
      assert(parPairs.toSet == seqPairs)
    } finally sc.release()
    // GetRho in round 2 and GetPairs in rounds 2 and 3 exceed the budget here.
    val (jobs, spk) = jobsDuring(EmstMemoGfk.mst(ps, par))
    assert(jobs >= 2)
    TestUtil.assertSameWeight(spk.edges, EmstMemoGfk.mst(ps, SeqScheme).edges)
    TestUtil.assertSameWeight(spk.edges, TestUtil.bruteEmst(ps))
  }

  /** The 7D context above, with no pair connected yet. */
  private def uniform7d(): (Ctx, Array[Int]) = {
    val ps = Generators.uniformFill(2000, 7, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    (c, Wspd.nodeComponents(c.tree, new UnionFind(ps.n).snapshot()))
  }

  test("7D getPairs fans out and returns Seq's edges and cache entries") {
    val (c, comp) = uniform7d()
    def run(par: ParScheme): Wspd.PairsRound = {
      val (sc, scomp) = (par.share(c), par.share(comp))
      val scache = par.share(new java.util.HashMap[Long, Edge])
      try Wspd.getPairs(sc, GeometricSep(2.0), EuclidMetric, 0.0, Double.PositiveInfinity,
        scomp, scache, par)
      finally { sc.release(); scomp.release(); scache.release() }
    }
    val seq = run(SeqScheme)
    val (jobs, spk) = jobsDuring(run(par))
    assert(jobs >= 1, "getPairs did not fan out")
    val byEdge = Ordering.by((e: Edge) => (e.u, e.v, e.w))
    assert(spk.edges.sorted(byEdge) == seq.edges.sorted(byEdge))
    assert(spk.newCacheEntries.map(_._1).sorted == seq.newCacheEntries.map(_._1).sorted)
    assert(spk.newCacheEntries.toMap == seq.newCacheEntries.toMap)
  }

  test("7D getRho fans out and lies between the min lb and the min BCCP of large pairs") {
    val (c, fresh) = uniform7d()
    val t = c.tree
    val sep = GeometricSep(2.0)
    // Components after MemoGFK's first round (under Seq), as round 2 sees them.
    val sc = SeqScheme.share(c)
    val rho1 = Wspd.getRho(sc, sep, EuclidMetric, 2L, SeqScheme.share(fresh), SeqScheme)
    val uf = new UnionFind(t.points.n)
    Kruskal.runBatch(Wspd.getPairs(sc, sep, EuclidMetric, 0.0, rho1, SeqScheme.share(fresh),
      SeqScheme.share(new java.util.HashMap[Long, Edge]), SeqScheme).edges, uf, ArrayBuffer.empty)
    val comp = Wspd.nodeComponents(t, uf.snapshot())
    val unconnected = Wspd.allPairs(sc, sep, SeqScheme)
      .filterNot { case (a, b) => comp(a) >= 0 && comp(a) == comp(b) }
    // Only beta = 4 exceeds the driver's work budget on this input.
    for (beta <- Seq(2L, 4L, 8L)) {
      val large = unconnected.filter { case (a, b) => t.size(a).toLong + t.size(b) > beta }
      val lo = large.map { case (a, b) => EuclidMetric.lb(c, a, b) }.min
      val hi = large.map { case (a, b) => EuclidMetric.bccp(c, a, b).w }.min
      val (spc, scomp) = (par.share(c), par.share(comp))
      try {
        val (jobs, rho) = jobsDuring(Wspd.getRho(spc, sep, EuclidMetric, beta, scomp, par))
        if (beta == 4L) assert(jobs >= 1, "getRho did not fan out")
        assert(rho >= lo && rho <= hi + 1e-9 * (1.0 + hi), s"beta=$beta: $rho not in [$lo, $hi]")
      } finally { spc.release(); scomp.release() }
    }
  }

  test("EMST-Naive spark equals seq") {
    val ps = Generators.uniformFill(600, 2, 2)
    val a = EmstNaive.mst(ps, SeqScheme)
    val b = EmstNaive.mst(ps, par)
    TestUtil.assertSameWeight(a.edges, b.edges)
    assert(a.stats.pairsMaterialized == b.stats.pairsMaterialized)
  }

  test("EMST-GFK spark equals seq") {
    val ps = Generators.uniformFill(600, 3, 3)
    TestUtil.assertSameWeight(
      EmstGfk.mst(ps, SeqScheme).edges,
      EmstGfk.mst(ps, par).edges)
  }

  test("EMST-MemoGFK spark equals seq and matches brute force") {
    val ps = Generators.ssVarden(500, 2, 4)
    val b = EmstMemoGfk.mst(ps, par)
    TestUtil.assertSameWeight(EmstMemoGfk.mst(ps, SeqScheme).edges, b.edges)
    TestUtil.assertSameWeight(b.edges, TestUtil.bruteEmst(ps))
  }

  test("EMST-Delaunay spark equals seq") {
    val ps = Generators.uniformFill(400, 2, 5)
    TestUtil.assertSameWeight(
      EmstDelaunay.mst(ps, SeqScheme).edges,
      EmstDelaunay.mst(ps, par).edges)
  }

  test("core distances spark equals seq") {
    val ps = Generators.ssVarden(500, 3, 6)
    val tree = KdTree.build(ps)
    val a = CoreDist.compute(tree, 10, SeqScheme)
    val b = CoreDist.compute(tree, 10, par)
    assert(a.sameElements(b))
  }

  test("HDBSCAN* (both variants) spark equals seq and matches brute force") {
    val ps = TestUtil.clusteredPoints(300, 2, 7)
    val want = TestUtil.bruteMutualReachMst(ps, 10)
    for (v <- Seq(GanTao: HdbscanVariant, MemoGfk: HdbscanVariant)) {
      val s = Hdbscan.mst(ps, 10, v, SeqScheme)
      val p = Hdbscan.mst(ps, 10, v, par)
      TestUtil.assertSameWeight(s.mst.edges, p.mst.edges)
      TestUtil.assertSameWeight(p.mst.edges, want)
      assert(s.coreDist.sameElements(p.coreDist))
    }
  }

  test("HDBSCAN* WSPD (new separation) parity between schemes") {
    val ps = TestUtil.randomPoints(300, 3, 8)
    val cd = CoreDist.compute(KdTree.build(ps), 10, SeqScheme)
    val c = Ctx.mutualReach(KdTree.build(ps), cd)
    val seqPairs = Wspd.allPairs(SeqScheme.share(c), MutualUnreachableSep, SeqScheme).toSet
    val sc = par.share(c)
    try {
      assert(Wspd.allPairs(sc, MutualUnreachableSep, par).toSet == seqPairs)
    } finally sc.release()
  }

  test("OPTICS approx spark equals seq") {
    val ps = TestUtil.randomPoints(250, 2, 9)
    val a = OpticsApprox.mst(ps, 10, 0.125, SeqScheme)
    val b = OpticsApprox.mst(ps, 10, 0.125, par)
    TestUtil.assertSameWeight(a.mst.edges, b.mst.edges)
  }

  test("end-to-end: spark EMST + parallel dendrogram equals seq pipeline") {
    val ps = Generators.ssVarden(800, 2, 10)
    val mstSeq = EmstMemoGfk.mst(ps, SeqScheme).edges
    val mstPar = EmstMemoGfk.mst(ps, par).edges
    TestUtil.assertSameWeight(mstSeq, mstPar)
    val dSeq = Dendrogram.buildSequential(ps.n, mstSeq, s = 0)
    // Build the parallel dendrogram on the Spark-produced MST: same point
    // set, same weights, so the plots must agree even if tie-broken edges
    // differ in identity (weights here are unique with probability 1).
    val dPar = Dendrogram.buildParallel(ps.n, mstPar, s = 0, cutoff = 64)
    val (o1, b1) = dSeq.reachabilityPlot()
    val (o2, b2) = dPar.reachabilityPlot()
    assert(o1.sameElements(o2))
    b1.zip(b2).foreach { case (x, y) => assert(x == y || math.abs(x - y) < 1e-9) }
  }
}
