package repro.wspd

import scala.collection.mutable.ArrayBuffer

import repro.kdtree.KdTree
import repro.mst.Edge
import repro.par.{ParScheme, Shared, WorkBudget}

/** Shared read-only context for WSPD traversals: the kd-tree plus, for
  * HDBSCAN*, per-point core distances and per-node core-distance stats.
  * One instance is shared per algorithm run.
  */
final case class Ctx(
    tree: KdTree,
    coreDist: Array[Double],
    cdMin: Array[Double],
    cdMax: Array[Double],
) extends Serializable

object Ctx {
  /** Context for plain EMST (no core distances). */
  def euclidean(tree: KdTree): Ctx = Ctx(tree, null, null, null)

  /** Context for HDBSCAN* with the given per-point core distances. */
  def mutualReach(tree: KdTree, cd: Array[Double]): Ctx = {
    val (mn, mx) = KdTree.coreDistStats(tree, cd)
    Ctx(tree, cd, mn, mx)
  }
}

/** Well-separation criterion (stateless, reads everything from [[Ctx]]). */
sealed trait Sep extends Serializable {
  def wellSeparated(c: Ctx, a: Int, b: Int): Boolean
}

/** Classic Callahan–Kosaraju separation with constant `s`: the gap between
  * the bounding spheres is at least `s` times the larger radius. With the
  * paper's s = 2 this is exactly d(A,B) >= max(A_diam, B_diam).
  */
final case class GeometricSep(s: Double = 2.0) extends Sep {
  override def wellSeparated(c: Ctx, a: Int, b: Int): Boolean = {
    val t = c.tree
    t.sphereDist(a, b) >= s * math.max(t.radius(a), t.radius(b))
  }
}

/** The paper's new HDBSCAN* notion (§3.2.2): well-separated iff
  * geometrically-separated OR mutually-unreachable. Termination happens no
  * later than under [[GeometricSep]], giving fewer pairs.
  */
case object MutualUnreachableSep extends Sep {
  private val geom = GeometricSep(2.0)

  /** max{d(A,B), cd_min(A), cd_min(B)} >= max{A_diam, B_diam, cd_max(A), cd_max(B)} */
  def mutuallyUnreachable(c: Ctx, a: Int, b: Int): Boolean = {
    val t = c.tree
    val lhs = math.max(t.sphereDist(a, b), math.max(c.cdMin(a), c.cdMin(b)))
    val rhs = math.max(math.max(t.diameter(a), t.diameter(b)),
                       math.max(c.cdMax(a), c.cdMax(b)))
    lhs >= rhs
  }

  override def wellSeparated(c: Ctx, a: Int, b: Int): Boolean =
    geom.wellSeparated(c, a, b) || mutuallyUnreachable(c, a, b)
}

/** Distance notion for pair edges: Euclidean BCCP or mutual-reachability
  * BCCP* — with the lower/upper bounds MemoGFK's pruned traversals need
  * (Figure 3: lb == the paper's d(A,B) analogue, ub == d_max(A,B)).
  * The pruning invariant is that lb/ub bracket the weight of EVERY cross
  * pair of (A,B) — hence of every descendant pair's BCCP.
  */
sealed trait Metric extends Serializable {
  def lb(c: Ctx, a: Int, b: Int): Double
  def ub(c: Ctx, a: Int, b: Int): Double

  /** Exact bichromatic closest pair of (a, b) under this metric: the first
    * minimum in A×B order of the kd-tree permutation.
    */
  final def bccp(c: Ctx, a: Int, b: Int): Edge = bccp(c, a, b, WorkBudget.unlimited)

  /** As above, charging `work` for the distances it evaluates. Once `work`
    * is exhausted the result is meaningless and must be dropped.
    */
  def bccp(c: Ctx, a: Int, b: Int, work: WorkBudget): Edge
}

/** Plain Euclidean distance (EMST). */
case object EuclidMetric extends Metric {
  override def lb(c: Ctx, a: Int, b: Int): Double = c.tree.sphereDist(a, b)
  override def ub(c: Ctx, a: Int, b: Int): Double = c.tree.sphereMaxDist(a, b)

  /** Brute-force scan, charging |A|·|B| before it runs. */
  override def bccp(c: Ctx, a: Int, b: Int, work: WorkBudget): Edge = {
    val t = c.tree
    if (work.spend(t.size(a).toLong * t.size(b))) return Edge(-1, -1, Double.PositiveInfinity)
    val ps = t.points
    var bi = -1; var bj = -1
    var best2 = Double.PositiveInfinity
    var i = t.lo(a)
    while (i < t.hi(a)) {
      val pi = t.perm(i)
      var j = t.lo(b)
      while (j < t.hi(b)) {
        val pj = t.perm(j)
        val d2 = ps.dist2(pi, pj)
        if (d2 < best2) { best2 = d2; bi = pi; bj = pj }
        j += 1
      }
      i += 1
    }
    Edge(bi, bj, math.sqrt(best2))
  }
}

/** Mutual reachability distance d_m(p,q) = max{cd(p), cd(q), d(p,q)} —
  * BCCP* of the paper.
  */
case object MutualReachMetric extends Metric {
  override def lb(c: Ctx, a: Int, b: Int): Double =
    math.max(c.tree.sphereDist(a, b), math.max(c.cdMin(a), c.cdMin(b)))

  override def ub(c: Ctx, a: Int, b: Int): Double =
    math.max(c.tree.sphereMaxDist(a, b), math.max(c.cdMax(a), c.cdMax(b)))

  /** Dual-tree search (March et al., KDD 2010), see [[BccpStarSearch]]. */
  override def bccp(c: Ctx, a: Int, b: Int, work: WorkBudget): Edge =
    new BccpStarSearch(c, work).run(a, b)
}

/** One exact dual-tree BCCP* over kd-subtrees A and B. A sub-pair (A', B')
  * is pruned when its bound max(box distance, cd_min(A'), cd_min(B')) is
  * above the best weight so far; the closer half of a split is searched
  * first, and blocks of at most [[BccpStarSearch.ScanBlock]] pairs are
  * scanned directly.
  *
  * The result is the edge a row-by-row scan of A×B in permutation order
  * returns, its first minimum: the incumbent keeps its permutation
  * positions, and on a tie a sub-pair is searched only if (lo(A'), lo(B'))
  * comes before them. The bound never exceeds a cross pair's weight, even
  * in floating point (see [[KdTree.boxDist2]]), so no slack is needed.
  *
  * Charges `work` one unit per box bound and per point distance; once it
  * is exhausted everything is pruned.
  */
private final class BccpStarSearch(c: Ctx, work: WorkBudget) {
  private val t = c.tree
  private val ps = t.points
  private val cd = c.coreDist
  private var best = Double.PositiveInfinity
  private var bi = -1 // permutation positions of the incumbent edge
  private var bj = -1

  def run(a: Int, b: Int): Edge = {
    work.spend(1)
    visit(a, b, bound(a, b))
    if (bi < 0) Edge(-1, -1, best) else Edge(t.perm(bi), t.perm(bj), best)
  }

  private def bound(a: Int, b: Int): Double =
    math.max(math.sqrt(t.boxDist2(a, b)), math.max(c.cdMin(a), c.cdMin(b)))

  /** True iff position pair (i, j) comes before the incumbent's. */
  @inline private def before(i: Int, j: Int): Boolean = i < bi || (i == bi && j < bj)

  private def visit(a: Int, b: Int, lb: Double): Unit =
    if (!work.exhausted && (lb < best || (lb == best && before(t.lo(a), t.lo(b))))) {
      if (t.size(a).toLong * t.size(b) <= BccpStarSearch.ScanBlock) scan(a, b)
      else if (!t.isLeaf(a) && (t.isLeaf(b) || t.size(a) >= t.size(b)))
        closerFirst(t.left(a), b, t.right(a), b)
      else closerFirst(a, t.left(b), a, t.right(b))
    }

  private def closerFirst(a1: Int, b1: Int, a2: Int, b2: Int): Unit = {
    work.spend(2)
    val l1 = bound(a1, b1)
    val l2 = bound(a2, b2)
    if (l2 < l1) { visit(a2, b2, l2); visit(a1, b1, l1) }
    else { visit(a1, b1, l1); visit(a2, b2, l2) }
  }

  private def scan(a: Int, b: Int): Unit = {
    var i = t.lo(a)
    while (i < t.hi(a)) {
      val pi = t.perm(i)
      val cdi = cd(pi)
      if (cdi <= best) { // a row whose cd is above the best cannot improve
        work.spend(t.size(b))
        var j = t.lo(b)
        while (j < t.hi(b)) {
          val pj = t.perm(j)
          val w = math.max(math.max(cdi, cd(pj)), ps.dist(pi, pj))
          if (w < best || (w == best && before(i, j))) { best = w; bi = i; bj = j }
          j += 1
        }
      }
      i += 1
    }
  }
}

private object BccpStarSearch {
  /** Sub-pairs with at most this many cross pairs are scanned, not split. */
  val ScanBlock: Int = 16
}

/** WSPD construction and the MemoGFK pruned traversals (Algorithms 1 & 3).
  *
  * Every traversal exists in one body that runs either fully sequentially
  * or as a fan-out: the top of the recursion is expanded breadth-first into
  * independent (a, b) "FindPair" tasks, which executors then run against
  * the shared [[Ctx]] and per-round state (union-find components, BCCP
  * cache), re-shared by the caller every round.
  *
  * Under a scheme that fans out, each traversal first runs sequentially on
  * the driver against a [[WorkBudget]] of about one Spark job's cost. A
  * traversal that finishes within it is the result and launches no job;
  * otherwise its partial result is dropped and the fan-out runs, so the
  * work wasted is at most one budget.
  */
object Wspd extends Serializable {

  /** Safety slack for the lb/ub *pruning* tests: the sphere-based bounds
    * can over/undershoot the exact BCCP by a few ulps (e.g. in 1D the
    * interval gap equals a point distance but is computed via centers and
    * radii), so pruning must only fire when a bound is comfortably outside
    * the window. The exact per-edge window test stays untouched, so the
    * slack costs a little pruning but can never change the result.
    */
  @inline private def slack(x: Double): Double =
    if (x.isInfinity) 0.0 else 1e-9 * (1.0 + math.abs(x))

  /** True iff `lbVal` is comfortably at or above `rhoHi` (safe to prune). */
  @inline def lbPrunes(lbVal: Double, rhoHi: Double): Boolean =
    lbVal >= rhoHi + slack(rhoHi)

  /** True iff `ubVal` is comfortably below `rhoLo` (safe to prune). */
  @inline def ubPrunes(ubVal: Double, rhoLo: Double): Boolean =
    ubVal < rhoLo - slack(rhoLo)

  /** A pending FindPair(a, b) call; `a == b` encodes a WSPD(a) split call. */
  final case class Task(a: Int, b: Int) extends Serializable

  /** Expands the Algorithm-1 recursion breadth-first until at least
    * `target` independent tasks exist. `emit` receives pairs that become
    * well-separated during expansion. `pruneNode`/`prunePair` allow
    * MemoGFK-style cuts; both default to no pruning.
    */
  private def expandFrontier(
      c: Ctx,
      sep: Sep,
      target: Int,
      emit: (Int, Int) => Unit,
      pruneNode: Int => Boolean,
      prunePair: (Int, Int) => Boolean,
  ): IndexedSeq[Task] = {
    val t = c.tree
    val queue = scala.collection.mutable.Queue[Task](Task(t.root, t.root))
    while (queue.nonEmpty && queue.size < target) {
      val Task(a, b) = queue.dequeue()
      if (a == b) {
        if (!t.isLeaf(a) && !pruneNode(a)) {
          queue.enqueue(Task(t.left(a), t.left(a)))
          queue.enqueue(Task(t.right(a), t.right(a)))
          queue.enqueue(Task(t.left(a), t.right(a)))
        }
      } else if (!prunePair(a, b)) {
        if (sep.wellSeparated(c, a, b)) emit(a, b)
        else {
          // Split the node with the larger bounding sphere (Algorithm 1).
          val (p, q) = if (t.radius(a) >= t.radius(b)) (a, b) else (b, a)
          queue.enqueue(Task(t.left(p), q))
          queue.enqueue(Task(t.right(p), q))
        }
      }
    }
    queue.toIndexedSeq
  }

  /** Sequential FindPair recursion body shared by every traversal. Each
    * node-pair visit charges `budget` one unit; once it is exhausted every
    * pair and node is pruned, so the recursion unwinds without throwing.
    */
  private def findPairsRec(
      c: Ctx,
      sep: Sep,
      a0: Int,
      b0: Int,
      emit: (Int, Int) => Unit,
      pruneNode: Int => Boolean,
      prunePair: (Int, Int) => Boolean,
      budget: WorkBudget,
  ): Unit = {
    val t = c.tree
    def pair(a: Int, b: Int): Unit =
      if (!budget.spend(1) && !prunePair(a, b)) {
        if (sep.wellSeparated(c, a, b)) emit(a, b)
        else {
          val (p, q) = if (t.radius(a) >= t.radius(b)) (a, b) else (b, a)
          pair(t.left(p), q)
          pair(t.right(p), q)
        }
      }
    def split(a: Int): Unit =
      if (!t.isLeaf(a) && !budget.exhausted && !pruneNode(a)) {
        split(t.left(a))
        split(t.right(a))
        pair(t.left(a), t.right(a))
      }
    if (a0 == b0) split(a0) else pair(a0, b0)
  }

  /** Full WSPD of the tree (Algorithm 1): every well-separated pair under
    * `sep`. Parallel under `par` via frontier fan-out.
    */
  def allPairs(sc: Shared[Ctx], sep: Sep, par: ParScheme): IndexedSeq[(Int, Int)] = {
    def pairsUnder(c: Ctx, a0: Int, b0: Int, budget: WorkBudget): ArrayBuffer[(Int, Int)] = {
      val buf = ArrayBuffer.empty[(Int, Int)]
      findPairsRec(c, sep, a0, b0, (a, b) => buf += ((a, b)), _ => false, (_, _) => false, budget)
      buf
    }
    val c0 = sc.value
    val root = c0.tree.root
    WorkBudget.onDriver(par)(pairsUnder(c0, root, root, _).toIndexedSeq).getOrElse {
      val head = ArrayBuffer.empty[(Int, Int)]
      val tasks = expandFrontier(c0, sep, par.targetTasks,
        (a, b) => head += ((a, b)), _ => false, (_, _) => false)
      val rest = par.flatMapItems(tasks) { task =>
        pairsUnder(sc.value, task.a, task.b, WorkBudget.unlimited).toSeq
      }
      (head ++ rest).toIndexedSeq
    }
  }

  /** Per-node union-find purity: `nodeComp(a)` is the component root if all
    * points under `a` share one component, else -1. Recomputed each GFK
    * round from a union-find snapshot; drives the "already connected"
    * pruning of Algorithm 3.
    */
  def nodeComponents(t: KdTree, snap: Array[Int]): Array[Int] = {
    val out = new Array[Int](t.nNodes)
    var a = t.nNodes - 1
    while (a >= 0) {
      if (t.isLeaf(a)) {
        var comp = snap(t.perm(t.lo(a)))
        var i = t.lo(a) + 1
        while (i < t.hi(a) && comp >= 0) {
          if (snap(t.perm(i)) != comp) comp = -1
          i += 1
        }
        out(a) = comp
      } else {
        val l = out(t.left(a)); val r = out(t.right(a))
        out(a) = if (l >= 0 && l == r) l else -1
      }
      a -= 1
    }
    out
  }

  /** MemoGFK's GetRho (Algorithm 3, line 4): a lower bound on the weight of
    * every edge that a not-yet-connected well-separated pair of cardinality
    * greater than `beta` can produce. Infinity if no such pair remains.
    */
  def getRho(
      sc: Shared[Ctx],
      sep: Sep,
      metric: Metric,
      beta: Long,
      scomp: Shared[Array[Int]],
      par: ParScheme,
  ): Double = {
    def localRho(c: Ctx, comp: Array[Int], a0: Int, b0: Int, init: Double,
        budget: WorkBudget): Double = {
      val t = c.tree
      var rho = init
      findPairsRec(c, sep, a0, b0,
        emit = (a, b) => {
          if (t.size(a).toLong + t.size(b) > beta) {
            val l = metric.lb(c, a, b)
            if (l < rho) rho = l
          }
        },
        pruneNode = a => comp(a) >= 0,
        prunePair = (a, b) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          t.size(a).toLong + t.size(b) <= beta ||
          metric.lb(c, a, b) >= rho
        },
        budget)
      rho
    }
    val c0 = sc.value
    val comp0 = scomp.value
    val t0 = c0.tree
    WorkBudget.onDriver(par)(
      localRho(c0, comp0, t0.root, t0.root, Double.PositiveInfinity, _)).getOrElse {
      var headRho = Double.PositiveInfinity
      val tasks = expandFrontier(c0, sep, par.targetTasks,
        emit = (a, b) =>
          if (t0.size(a).toLong + t0.size(b) > beta) {
            val l = metric.lb(c0, a, b)
            if (l < headRho) headRho = l
          },
        pruneNode = a => comp0(a) >= 0,
        prunePair = (a, b) => comp0(a) >= 0 && comp0(a) == comp0(b))
      val seed = headRho
      val locals = par.mapItems(tasks) { task =>
        localRho(sc.value, scomp.value, task.a, task.b, seed, WorkBudget.unlimited)
      }
      (locals :+ headRho).min
    }
  }

  /** Pack a node pair into one Long cache key. */
  @inline def pairKey(a: Int, b: Int): Long = (a.toLong << 32) | (b.toLong & 0xffffffffL)

  /** Only pairs at least this large are worth caching across rounds: their
    * BCCP is expensive and their wide [lb, ub] interval straddles many
    * windows (small pairs are cheap to recompute and rarely revisited).
    */
  val CacheMinCardinality: Int = 16

  /** Result of one GetPairs round: the in-window edges plus the BCCP results
    * of large out-of-window pairs, which the engine folds into its
    * cross-round cache (the paper: "we cache the BCCP results of pairs to
    * avoid repeated computations").
    */
  final case class PairsRound(edges: IndexedSeq[Edge], newCacheEntries: IndexedSeq[(Long, Edge)])

  /** MemoGFK's GetPairs (Algorithm 3, line 5): materializes the BCCP edges
    * of well-separated, not-yet-connected pairs whose BCCP weight falls in
    * `[rhoLo, rhoHi)`, pruning subtrees whose bounds put them out of range
    * (Figure 3b). `scache` carries BCCPs computed in earlier rounds.
    */
  def getPairs(
      sc: Shared[Ctx],
      sep: Sep,
      metric: Metric,
      rhoLo: Double,
      rhoHi: Double,
      scomp: Shared[Array[Int]],
      scache: Shared[java.util.HashMap[Long, Edge]],
      par: ParScheme,
  ): PairsRound = {
    def run(
        c: Ctx,
        comp: Array[Int],
        cache: java.util.HashMap[Long, Edge],
        a0: Int,
        b0: Int,
        out: ArrayBuffer[Edge],
        fresh: ArrayBuffer[(Long, Edge)],
        budget: WorkBudget,
    ): Unit =
      findPairsRec(c, sep, a0, b0,
        emit = (a, b) => {
          // Bounds may not exclude the pair, but the exact BCCP decides.
          val key = pairKey(a, b)
          var e = cache.get(key)
          if (e == null) {
            e = metric.bccp(c, a, b, budget)
            // Cache every large computed pair: out-of-window pairs (above OR
            // below — a below-window pair survives when its edge was made
            // redundant but its nodes still span several components) are
            // revisited next round and must not pay the BCCP again.
            if (c.tree.size(a) + c.tree.size(b) >= CacheMinCardinality)
              fresh += ((key, e))
          }
          if (e.w >= rhoLo && e.w < rhoHi) out += e
        },
        pruneNode = a => comp(a) >= 0,
        prunePair = (a, b) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          lbPrunes(metric.lb(c, a, b), rhoHi) ||
          ubPrunes(metric.ub(c, a, b), rhoLo)
        },
        budget)
    val c0 = sc.value
    val comp0 = scomp.value
    val root = c0.tree.root
    WorkBudget.onDriver(par) { budget =>
      val out = ArrayBuffer.empty[Edge]
      val fresh = ArrayBuffer.empty[(Long, Edge)]
      run(c0, comp0, scache.value, root, root, out, fresh, budget)
      PairsRound(out.toIndexedSeq, fresh.toIndexedSeq)
    }.getOrElse {
      val headEdges = ArrayBuffer.empty[Edge]
      val headFresh = ArrayBuffer.empty[(Long, Edge)]
      val headPairs = ArrayBuffer.empty[(Int, Int)]
      val tasks = expandFrontier(c0, sep, par.targetTasks,
        emit = (a, b) => headPairs += ((a, b)),
        pruneNode = a => comp0(a) >= 0,
        prunePair = (a, b) => {
          (comp0(a) >= 0 && comp0(a) == comp0(b)) ||
          lbPrunes(metric.lb(c0, a, b), rhoHi) ||
          ubPrunes(metric.ub(c0, a, b), rhoLo)
        })
      headPairs.foreach { case (a, b) =>
        run(c0, comp0, scache.value, a, b, headEdges, headFresh, WorkBudget.unlimited)
      }
      val rest = par.flatMapItems(tasks) { task =>
        val out = ArrayBuffer.empty[Edge]
        val fresh = ArrayBuffer.empty[(Long, Edge)]
        run(sc.value, scomp.value, scache.value, task.a, task.b, out, fresh, WorkBudget.unlimited)
        Seq((out.toIndexedSeq, fresh.toIndexedSeq))
      }
      PairsRound(
        (headEdges ++ rest.flatMap(_._1)).toIndexedSeq,
        (headFresh ++ rest.flatMap(_._2)).toIndexedSeq)
    }
  }
}
