package repro.wspd

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

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

/** What one WSPD traversal does inside the shared Algorithm-1 recursion:
  * its prune rules, its action at each well-separated pair and its result
  * (the split of Curtin et al., "Tree-Independent Dual-Tree Algorithms",
  * ICML 2013). [[Wspd.traverse]] makes one visitor for a driver run, or
  * one for the fan-out's head and one inside each task.
  */
private abstract class Visitor[R] {
  /** True to skip WSPD(a), the call that splits node `a`. */
  def pruneNode(a: Int): Boolean = false

  /** True to skip FindPair(a, b) and every call below it. */
  def prunePair(a: Int, b: Int): Boolean = false

  /** Visits a well-separated pair that no prune rule cut. */
  def emit(a: Int, b: Int): Unit

  /** A prune bound that tightens as pairs are emitted (GetRho's ρ); each
    * task's visitor starts from the head's.
    */
  def bound: Double = Double.PositiveInfinity

  def result: R

  /** This (head) visitor's result followed by the tasks' results. */
  def merge(tasks: IndexedSeq[R]): R
}

/** The prune rules GetRho and GetPairs share (Algorithm 3): skip what one
  * union-find component already holds. `comp` is [[Wspd.nodeComponents]].
  */
private abstract class Unconnected[R](comp: Array[Int]) extends Visitor[R] {
  override def pruneNode(a: Int): Boolean = comp(a) >= 0
  override def prunePair(a: Int, b: Int): Boolean = comp(a) >= 0 && comp(a) == comp(b)
}

/** Algorithm 1's recursion under one [[Visitor]]. Call (a, a) is WSPD(a),
  * which splits node a; call (a, b) with a != b is FindPair(a, b). Each
  * FindPair visit charges `budget` one unit; once it is exhausted every call
  * is pruned, so the recursion unwinds without throwing.
  */
private final class FindPairs[R](c: Ctx, sep: Sep, v: Visitor[R], budget: WorkBudget) {
  private val t = c.tree

  /** The Algorithm-1 step on call (a, b): prune it, emit it if it is well
    * separated, or else hand its sub-calls to `next` in depth-first order,
    * splitting the node with the larger bounding sphere.
    */
  private def step(a: Int, b: Int, next: (Int, Int) => Unit): Unit =
    if (a == b) {
      if (!t.isLeaf(a) && !budget.exhausted && !v.pruneNode(a)) {
        val l = t.left(a); val r = t.right(a)
        next(l, l); next(r, r); next(l, r)
      }
    } else if (!budget.spend(1) && !v.prunePair(a, b)) {
      if (sep.wellSeparated(c, a, b)) v.emit(a, b)
      else if (t.radius(a) >= t.radius(b)) { next(t.left(a), b); next(t.right(a), b) }
      else { next(t.left(b), a); next(t.right(b), a) }
    }

  private val recurse: (Int, Int) => Unit = (a, b) => step(a, b, recurse)

  /** Runs call (a, b) depth first to the end; returns the visitor's result. */
  def run(a: Int, b: Int): R = { step(a, b, recurse); v.result }

  /** Expands the root call breadth first until at least `target` calls are
    * pending, and returns those calls.
    */
  def frontier(target: Int): IndexedSeq[Wspd.Task] = {
    val queue = mutable.Queue(Wspd.Task(t.root, t.root))
    val enqueue: (Int, Int) => Unit = (a, b) => queue.enqueue(Wspd.Task(a, b))
    while (queue.nonEmpty && queue.size < target) {
      val task = queue.dequeue()
      step(task.a, task.b, enqueue)
    }
    queue.toIndexedSeq
  }
}

/** WSPD construction and the MemoGFK pruned traversals (Algorithms 1 & 3).
  *
  * `allPairs`, `getRho` and `getPairs` are visitors of one traversal,
  * [[traverse]]. Under a scheme that fans out, it first runs the whole
  * recursion on the driver against a [[WorkBudget]] of about one Spark
  * job's cost; a run that finishes within it is the result and launches no
  * job. Otherwise its partial result is dropped (so the work wasted is at
  * most one budget), the top of the recursion is expanded breadth first on
  * the driver (the head), and the pending calls fan out as independent
  * tasks that read the shared [[Ctx]] and per-round state (union-find
  * components, BCCP cache), re-shared by the caller every round. Under Seq
  * the driver run has no limit.
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

  /** Runs Algorithm 1 from the root under the visitors `visitor(budget,
    * bound)` makes: driver first, else head plus fan-out (see [[Wspd]]).
    * `visitor` is called inside each task, so it must read per-round state
    * through its [[Shared]] handles there.
    */
  private def traverse[R: ClassTag](sc: Shared[Ctx], sep: Sep, par: ParScheme)(
      visitor: (WorkBudget, Double) => Visitor[R]): R = {
    val c = sc.value
    val root = c.tree.root
    WorkBudget.onDriver(par) { budget =>
      new FindPairs(c, sep, visitor(budget, Double.PositiveInfinity), budget).run(root, root)
    }.getOrElse {
      val head = visitor(WorkBudget.unlimited, Double.PositiveInfinity)
      val tasks = new FindPairs(c, sep, head, WorkBudget.unlimited).frontier(par.targetTasks)
      val bound = head.bound
      head.merge(par.mapItems(tasks) { task =>
        val budget = WorkBudget.unlimited
        new FindPairs(sc.value, sep, visitor(budget, bound), budget).run(task.a, task.b)
      })
    }
  }

  /** Full WSPD of the tree (Algorithm 1): every well-separated pair under
    * `sep`.
    */
  def allPairs(sc: Shared[Ctx], sep: Sep, par: ParScheme): IndexedSeq[(Int, Int)] =
    traverse(sc, sep, par) { (_, _) =>
      new Visitor[IndexedSeq[(Int, Int)]] {
        private val pairs = ArrayBuffer.empty[(Int, Int)]
        override def emit(a: Int, b: Int): Unit = pairs += ((a, b))
        override def result: IndexedSeq[(Int, Int)] = pairs.toIndexedSeq
        override def merge(tasks: IndexedSeq[IndexedSeq[(Int, Int)]]): IndexedSeq[(Int, Int)] =
          (pairs ++ tasks.flatten).toIndexedSeq
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
  ): Double =
    traverse(sc, sep, par) { (_, seed) =>
      val c = sc.value
      new Unconnected[Double](scomp.value) {
        private val t = c.tree
        private var rho = seed
        override def prunePair(a: Int, b: Int): Boolean =
          super.prunePair(a, b) || t.size(a).toLong + t.size(b) <= beta || metric.lb(c, a, b) >= rho
        // Not pruned, so the pair is large and its lb is below rho.
        override def emit(a: Int, b: Int): Unit = rho = metric.lb(c, a, b)
        override def bound: Double = rho
        override def result: Double = rho
        override def merge(tasks: IndexedSeq[Double]): Double = (tasks :+ rho).min
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
  ): PairsRound =
    traverse(sc, sep, par) { (budget, _) =>
      val c = sc.value
      val cache = scache.value
      new Unconnected[PairsRound](scomp.value) {
        private val edges = ArrayBuffer.empty[Edge]
        private val fresh = ArrayBuffer.empty[(Long, Edge)]
        override def prunePair(a: Int, b: Int): Boolean =
          super.prunePair(a, b) ||
          lbPrunes(metric.lb(c, a, b), rhoHi) ||
          ubPrunes(metric.ub(c, a, b), rhoLo)
        override def emit(a: Int, b: Int): Unit = {
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
          if (e.w >= rhoLo && e.w < rhoHi) edges += e
        }
        override def result: PairsRound = PairsRound(edges.toIndexedSeq, fresh.toIndexedSeq)
        override def merge(tasks: IndexedSeq[PairsRound]): PairsRound = PairsRound(
          (edges ++ tasks.flatMap(_.edges)).toIndexedSeq,
          (fresh ++ tasks.flatMap(_.newCacheEntries)).toIndexedSeq)
      }
    }
}
