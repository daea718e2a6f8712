package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core.{MstResult, MstStats}
import repro.geometry.PointSet
import repro.kdtree.KdTree
import repro.mst.{Edge, Kruskal, UnionFind}
import repro.par.ParScheme
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, Metric, Sep, Wspd}

/** Counters of one replayed MST run, beyond what `MstStats` carries. */
final case class ReplayCounts(edgesOffered: Long, cacheEntries: Long, allPairs: Long)

/** Re-runs the round loops of `MemoGfkEngine.mst` and `EmstGfk.mst` call for
  * call, with a [[LayerClock]] span around each call into a layer. The
  * benchmark checks every replay edge-for-edge against the engine, so a
  * replay that drifts from the engine fails the traced run.
  *
  * Span names: `kdtree`, `share`, `getrho`, `getpairs`, `allpairs`,
  * `nodecomp` (union-find snapshot + `Wspd.nodeComponents`), `kruskal`.
  */
object Replay {

  /** The MemoGFK round loop (Algorithm 3), as `MemoGfkEngine.mst` runs it. */
  def memoGfk(ctx: Ctx, sep: Sep, metric: Metric, par: ParScheme, clock: LayerClock)
      : (MstResult, ReplayCounts) = {
    val n = ctx.tree.points.n
    val sharedCtx = clock.span("share")(par.share(ctx))
    try {
      val uf = new UnionFind(n)
      val out = new ArrayBuffer[Edge](n - 1)
      val cache = new java.util.HashMap[Long, Edge]
      var beta = 2L
      var rhoLo = 0.0
      var rounds = 0
      var pairsMaterialized = 0L
      var bccpComputed = 0L
      var peak = 0L
      while (out.size < n - 1) {
        rounds += 1
        val comp = clock.span("nodecomp")(Wspd.nodeComponents(ctx.tree, uf.snapshot()))
        val scomp = clock.span("share")(par.share(comp))
        val scache = clock.span("share")(par.share(cache))
        try {
          val rhoHi = clock.span("getrho")(Wspd.getRho(sharedCtx, sep, metric, beta, scomp, par))
          val round = clock.span("getpairs")(
            Wspd.getPairs(sharedCtx, sep, metric, rhoLo, rhoHi, scomp, scache, par))
          round.newCacheEntries.foreach { case (k, e) => cache.put(k, e) }
          pairsMaterialized += round.edges.size
          bccpComputed += round.edges.size + round.newCacheEntries.size
          peak = math.max(peak, round.edges.size.toLong)
          clock.span("kruskal")(Kruskal.runBatch(round.edges, uf, out))
          beta *= 2
          rhoLo = rhoHi
          if (rhoHi.isPosInfinity && out.size < n - 1)
            throw new IllegalStateException(s"replay failed to span: ${out.size} of ${n - 1}")
        } finally { scomp.release(); scache.release() }
      }
      (MstResult(out.toIndexedSeq, MstStats(pairsMaterialized, peak, bccpComputed, rounds)),
        ReplayCounts(pairsMaterialized, cache.size, 0L))
    } finally sharedCtx.release()
  }

  private final class PairState(val a: Int, val b: Int, var edge: Edge)

  /** EMST-GFK (Algorithm 2), as `EmstGfk.mst` runs it. The round's ρ_hi scan
    * over large pairs is the `getrho` span and the BCCPs of the small pairs
    * plus the window split are the `getpairs` span, so the two spans mean
    * "find this round's bound" and "produce this round's edges" on both
    * engines.
    */
  def gfk(ps: PointSet, par: ParScheme, clock: LayerClock): (MstResult, ReplayCounts) = {
    val tree = clock.span("kdtree")(KdTree.build(ps))
    val ctx = Ctx.euclidean(tree)
    val sharedCtx = clock.span("share")(par.share(ctx))
    try {
      val wspd = clock.span("allpairs")(Wspd.allPairs(sharedCtx, GeometricSep(2.0), par))
      var s: IndexedSeq[PairState] = wspd.map { case (a, b) => new PairState(a, b, null) }
      val uf = new UnionFind(ps.n)
      val out = new ArrayBuffer[Edge](ps.n - 1)
      var beta = 2L
      var rounds = 0
      var bccpCount = 0L
      var offered = 0L
      def card(p: PairState): Long = tree.size(p.a).toLong + tree.size(p.b)
      while (out.size < ps.n - 1) {
        rounds += 1
        val (sl, su, rhoHi) = clock.span("getrho") {
          val (sl, su) = s.partition(card(_) <= beta)
          var rhoHi = Double.PositiveInfinity
          su.foreach { p =>
            val l = EuclidMetric.lb(ctx, p.a, p.b)
            if (l < rhoHi) rhoHi = l
          }
          (sl, su, rhoHi)
        }
        val (sl1, sl2) = clock.span("getpairs") {
          val missing = sl.filter(_.edge == null)
          bccpCount += missing.size
          val computed = par.mapItems(missing.map(p => (p.a, p.b))) { case (a, b) =>
            EuclidMetric.bccp(sharedCtx.value, a, b)
          }
          var i = 0
          while (i < missing.size) { missing(i).edge = computed(i); i += 1 }
          val cut = if (rhoHi.isInfinity) rhoHi else rhoHi - 1e-9 * (1.0 + rhoHi)
          sl.partition(_.edge.w <= cut)
        }
        offered += sl1.size
        clock.span("kruskal")(Kruskal.runBatch(sl1.map(_.edge), uf, out))
        val (snap, comp) = clock.span("nodecomp") {
          val snap = uf.snapshot()
          (snap, Wspd.nodeComponents(tree, snap))
        }
        s = (sl2 ++ su).filter { p =>
          if (p.edge != null) snap(p.edge.u) != snap(p.edge.v)
          else !(comp(p.a) >= 0 && comp(p.a) == comp(p.b))
        }
        beta *= 2
        if (s.isEmpty && out.size < ps.n - 1)
          throw new IllegalStateException(s"replay exhausted pairs: ${out.size} of ${ps.n - 1}")
      }
      (MstResult(out.toIndexedSeq, MstStats(wspd.size, wspd.size, bccpCount, rounds)),
        ReplayCounts(offered, bccpCount, wspd.size))
    } finally sharedCtx.release()
  }
}
