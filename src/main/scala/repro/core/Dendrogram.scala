package repro.core

import java.util.concurrent.{ForkJoinPool, RecursiveTask}

import scala.collection.mutable

import repro.mst.{Edge, UnionFind}

/** An ordered dendrogram over `n` points (§4.1).
  *
  * Nodes `0 until n` are the point leaves; node `n + i` is the internal
  * node corresponding to MST edge `i` (every internal node of a dendrogram
  * corresponds to exactly one tree edge, so edge index doubles as node id —
  * this also lets the parallel builder fill disjoint slots without
  * synchronization). `root` is the final merge. The in-order traversal of
  * the leaves equals Prim's visit order from the chosen start vertex, which
  * is what makes it *ordered*.
  */
final class Dendrogram(
    val n: Int,
    val left: Array[Int],
    val right: Array[Int],
    val weight: Array[Double],
    val root: Int,
) extends Serializable {

  @inline def isLeaf(node: Int): Boolean = node < n

  /** Leaves in in-order, paired with their reachability-plot bar: the bar
    * of the first leaf is +inf and each later leaf's bar is the weight of
    * the internal node separating it from its in-order predecessor —
    * exactly the reachability plot (§2.1) when the dendrogram is ordered.
    */
  def reachabilityPlot(): (Array[Int], Array[Double]) = {
    val order = new Array[Int](n)
    val bars = new Array[Double](n)
    var count = 0
    // Explicit stack of (node, pendingWeight) — dendrograms can be deep.
    val nodeStack = new mutable.ArrayDeque[(Int, Double)]
    nodeStack.prepend((root, Double.PositiveInfinity))
    while (nodeStack.nonEmpty) {
      val (node, pending) = nodeStack.removeHead()
      if (isLeaf(node)) {
        order(count) = node
        bars(count) = pending
        count += 1
      } else {
        val i = node - n
        nodeStack.prepend((right(i), weight(i)))
        nodeStack.prepend((left(i), pending))
      }
    }
    require(count == n, s"dendrogram traversal visited $count of $n leaves")
    (order, bars)
  }
}

object Dendrogram {

  /** Internal edge record: `u`/`v` are the original endpoints (used for the
    * in-order left/right rule), `cu`/`cv` the current contracted endpoints
    * (light components collapse to one vertex in the heavy subproblem),
    * `node` the dendrogram node id this edge will become.
    */
  private final case class DEdge(u: Int, v: Int, cu: Int, cv: Int, w: Double, node: Int)

  private val dEdgeOrdering: Ordering[DEdge] =
    Ordering.by((e: DEdge) => (e.w, math.min(e.u, e.v), math.max(e.u, e.v)))

  /** Unweighted distance from every vertex to `s` along the tree (§4.2's
    * vertex distances), by BFS.
    */
  def vertexDistances(n: Int, edges: IndexedSeq[Edge], s: Int): Array[Int] = {
    val adj = Array.fill(n)(List.empty[Int])
    edges.foreach { e =>
      adj(e.u) = e.v :: adj(e.u)
      adj(e.v) = e.u :: adj(e.v)
    }
    val dist = Array.fill(n)(-1)
    val queue = new mutable.ArrayDeque[Int]
    dist(s) = 0
    queue.append(s)
    while (queue.nonEmpty) {
      val u = queue.removeHead()
      adj(u).foreach { v =>
        if (dist(v) < 0) { dist(v) = dist(u) + 1; queue.append(v) }
      }
    }
    require(dist.forall(_ >= 0), "input edges do not form a connected tree")
    dist
  }

  /** Sequential ordered-dendrogram construction: process edges in
    * increasing weight, merging clusters bottom-up (the classic
    * union-find algorithm), with the §4.2 ordering rule — the subtree
    * holding the endpoint with smaller vertex distance becomes the left
    * child. This is the reference implementation and the sub-problem
    * base case of the parallel algorithm.
    */
  def buildSequential(n: Int, edges: IndexedSeq[Edge], s: Int): Dendrogram = {
    val vdist = vertexDistances(n, edges, s)
    val left = new Array[Int](n - 1)
    val right = new Array[Int](n - 1)
    val weight = new Array[Double](n - 1)
    val dEdges = edges.zipWithIndex.map { case (e, i) =>
      DEdge(e.u, e.v, e.u, e.v, e.w, n + i)
    }
    val root = buildRange(n, dEdges.sorted(dEdgeOrdering), identity, vdist, left, right, weight)
    new Dendrogram(n, left, right, weight, root)
  }

  /** Parallel top-down construction (§4.2): split off the heaviest tenth of
    * the edges, build the dendrograms of the light connected components in
    * parallel (fork-join — the shared-memory parallelism of the paper's
    * Cilk implementation), contract each light component to a single vertex
    * for the heavy subproblem, recurse on it, and attach the light roots at
    * the corresponding heavy leaves. Falls back to the sequential
    * construction below `cutoff` edges.
    */
  def buildParallel(
      n: Int,
      edges: IndexedSeq[Edge],
      s: Int,
      cutoff: Int = 1024,
      heavyFraction: Double = 0.1,
  ): Dendrogram = {
    val vdist = vertexDistances(n, edges, s)
    val left = new Array[Int](n - 1)
    val right = new Array[Int](n - 1)
    val weight = new Array[Double](n - 1)
    val dEdges = edges.zipWithIndex.map { case (e, i) =>
      DEdge(e.u, e.v, e.u, e.v, e.w, n + i)
    }
    val pool = ForkJoinPool.commonPool()
    val root = pool.invoke(new BuildTask(n, dEdges, identity, vdist, left, right, weight,
      cutoff, heavyFraction))
    new Dendrogram(n, left, right, weight, root)
  }

  /** Bottom-up base case over an arbitrary edge subset. `leafOf` maps a
    * contracted vertex to the dendrogram node standing in for it (a point
    * leaf at the top level; a light-subproblem root inside the heavy
    * recursion). Returns the subproblem's root node.
    */
  private def buildRange(
      n: Int,
      sorted: IndexedSeq[DEdge],
      leafOf: Int => Int,
      vdist: Array[Int],
      left: Array[Int],
      right: Array[Int],
      weight: Array[Double],
  ): Int = {
    val parent = mutable.HashMap.empty[Int, Int]
    def find(x: Int): Int = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val nxt = parent(c); parent(c) = r; c = nxt }
      r
    }
    val clusterNode = mutable.HashMap.empty[Int, Int]
    var last = -1
    sorted.foreach { e =>
      val ru = find(e.cu)
      val rv = find(e.cv)
      require(ru != rv, s"cycle in dendrogram input at edge (${e.u},${e.v})")
      val nu = clusterNode.getOrElse(ru, leafOf(ru))
      val nv = clusterNode.getOrElse(rv, leafOf(rv))
      val i = e.node - n
      // Ordering rule: the side of the endpoint nearer the start goes left.
      if (vdist(e.u) <= vdist(e.v)) { left(i) = nu; right(i) = nv }
      else { left(i) = nv; right(i) = nu }
      weight(i) = e.w
      parent(ru) = rv // merge
      clusterNode(rv) = e.node
      last = e.node
    }
    require(last >= 0, "empty edge set has no dendrogram")
    last
  }

  /** Fork-join task for one (sub)problem of the top-down recursion. */
  private final class BuildTask(
      n: Int,
      edges: IndexedSeq[DEdge],
      leafOf: Int => Int,
      vdist: Array[Int],
      left: Array[Int],
      right: Array[Int],
      weight: Array[Double],
      cutoff: Int,
      heavyFraction: Double,
  ) extends RecursiveTask[Int] {

    override def compute(): Int = {
      if (edges.size <= cutoff)
        return buildRange(n, edges.sorted(dEdgeOrdering), leafOf, vdist, left, right, weight)

      val sorted = edges.sorted(dEdgeOrdering)
      val nHeavy = math.max(1, math.ceil(edges.size * heavyFraction).toInt)
      val lightEdges = sorted.dropRight(nHeavy)
      val heavyEdges = sorted.takeRight(nHeavy)

      // Light connected components over contracted endpoints.
      val uf = new mutable.HashMap[Int, Int]
      def find(x: Int): Int = {
        var r = x
        while (uf.getOrElse(r, r) != r) r = uf(r)
        var c = x
        while (uf.getOrElse(c, c) != c) { val nxt = uf(c); uf(c) = r; c = nxt }
        r
      }
      lightEdges.foreach { e =>
        val ru = find(e.cu); val rv = find(e.cv)
        if (ru != rv) uf(ru) = rv
      }
      val groups = lightEdges.groupBy(e => find(e.cu))

      // Build each light component in parallel.
      val tasks = groups.toIndexedSeq.map { case (comp, ge) =>
        (comp, new BuildTask(n, ge, leafOf, vdist, left, right, weight, cutoff, heavyFraction))
      }
      tasks.foreach(_._2.fork())
      val lightRoot = tasks.map { case (comp, t) => comp -> t.join() }.toMap

      // Heavy subproblem: light components contract to their UF roots,
      // whose stand-in nodes are the light dendrogram roots.
      val contracted = heavyEdges.map(e => e.copy(cu = find(e.cu), cv = find(e.cv)))
      val leafOf2: Int => Int = v => lightRoot.getOrElse(v, leafOf(v))
      new BuildTask(n, contracted, leafOf2, vdist, left, right, weight, cutoff, heavyFraction)
        .compute()
    }
  }

  /** DBSCAN* clustering at a given ε from the HDBSCAN* MST and core
    * distances (§2.1): keep MST edges of weight ≤ ε between core points
    * (cd ≤ ε); components of ≥ 1 core point are clusters, everything else
    * is noise. Returns labels (cluster id ≥ 0, or -1 for noise).
    */
  def dbscanStarLabels(
      n: Int,
      mst: IndexedSeq[Edge],
      coreDist: Array[Double],
      eps: Double,
  ): Array[Int] = {
    val uf = new UnionFind(n)
    mst.foreach { e =>
      if (e.w <= eps && coreDist(e.u) <= eps && coreDist(e.v) <= eps) uf.union(e.u, e.v)
    }
    val labels = Array.fill(n)(-1)
    val compLabel = mutable.HashMap.empty[Int, Int]
    var next = 0
    var i = 0
    while (i < n) {
      if (coreDist(i) <= eps) {
        val r = uf.find(i)
        labels(i) = compLabel.getOrElseUpdate(r, { val l = next; next += 1; l })
      }
      i += 1
    }
    labels
  }

  /** Single-linkage clustering at distance threshold ε from the EMST:
    * connected components over edges of weight ≤ ε.
    */
  def singleLinkageLabels(n: Int, mst: IndexedSeq[Edge], eps: Double): Array[Int] = {
    val uf = new UnionFind(n)
    mst.foreach(e => if (e.w <= eps) uf.union(e.u, e.v))
    val compLabel = mutable.HashMap.empty[Int, Int]
    var next = 0
    Array.tabulate(n) { i =>
      val r = uf.find(i)
      compLabel.getOrElseUpdate(r, { val l = next; next += 1; l })
    }
  }
}
