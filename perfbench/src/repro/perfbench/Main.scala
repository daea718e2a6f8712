package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.{SparkConf, SparkContext}

import repro.geometry.PointSet
import repro.mst.Prim
import repro.par.{ParScheme, SeqScheme, SparkScheme}

/** Time-to-verified-MST benchmark: one workload, closed loop, one caller.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny 1]`
  *
  * A run generates the workload's inputs from the seed and solves them in
  * passes: one pass solves every input once under Seq, then under Spark.
  * It sets up [[SetupRounds]] times (Spark context start + input generation
  * + one warm-up pass) and reports the median set-up time. It then runs
  * passes for `--seconds` seconds, checking every solve against an exact
  * reference computed once outside every timed interval. `--trace 0` prints
  * the end-to-end metrics; `--trace 1` interleaves traced solves and prints
  * the per-layer metrics. The last stdout line is one JSON object; the exit
  * code is non-zero on any failure.
  */
object Main {
  val SetupRounds = 3
  val MinPasses = 3
  val RelTol = 1e-9

  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean, tiny: Boolean)

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"perfbench: ${e.getMessage}")
          2
      }
    sys.exit(code)
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def req(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val wl = Workloads.byName(req("--workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload; choose one of ${Workloads.all.map(_.name).mkString(", ")}"))
    Opts(wl, req("--seed").toLong, req("--seconds").toDouble, req("--trace") == "1",
      kv.get("--tiny").contains("1"))
  }

  /** Generator seed of input `i` of a workload, derived from the run's seed. */
  def inputSeed(seed: Long, wl: Workload, i: Int): Long =
    new java.util.Random(seed * 0x9E3779B97F4A7C15L ^ (wl.name.hashCode + 31L * i)).nextLong()

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[T](body: => T): (Double, T) = {
    val t0 = System.nanoTime()
    val r = body
    (secs(t0), r)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  private def startSpark(cores: Int): SparkContext =
    new SparkContext(new SparkConf()
      .setMaster(s"local[$cores]")
      .setAppName("perfbench")
      .set("spark.ui.enabled", "false")
      .set("spark.driver.host", "127.0.0.1")
      .set("spark.serializer", "org.apache.spark.serializer.KryoSerializer"))

  /** One input with its exact reference and the first verified reachability
    * plot, which every later dendrogram of this input must reproduce.
    */
  final class Case(val index: Int, val ps: PointSet, ref: Reference) {
    private var plot: (Array[Int], Array[Double]) = _
    private val sample = {
      val rnd = new java.util.Random(index)
      Array.fill(math.min(64, ps.n))(rnd.nextInt(ps.n))
    }

    private def close(a: Double, b: Double): Boolean =
      math.abs(a - b) <= RelTol * math.max(1.0, math.abs(b))

    private def samePlot(a: (Array[Int], Array[Double]), b: (Array[Int], Array[Double])) =
      (a._1 sameElements b._1) && (a._2 sameElements b._2)

    def problems(s: Solved): Seq[String] = {
      val out = ArrayBuffer.empty[String]
      val edges = s.mst.edges
      if (edges.size != ps.n - 1) out += s"${edges.size} edges for n=${ps.n}"
      val w = Prim.weight(edges)
      if (!close(w, ref.weight)) out += s"weight $w != reference ${ref.weight}"
      if (ref.coreDist != null) {
        val bad = sample.count(i => !close(s.coreDist(i), ref.coreDist(i)))
        if (bad > 0) out += s"$bad of ${sample.length} sampled core distances wrong"
      }
      if (s.dendro != null && out.isEmpty) {
        val p = s.dendro.reachabilityPlot()
        if (plot == null) {
          if (samePlot(p, Prim.treeOrder(ps.n, edges, 0))) plot = p
          else out += "dendrogram order differs from Prim's tree order"
        } else if (!samePlot(p, plot)) out += "reachability plot differs from the first solve's"
      }
      out.toSeq
    }
  }

  /** Counts solves and failures; prints each failure to stderr. */
  final class Gate(wl: Workload) {
    var attempted = 0L
    var failed = 0L

    def check(c: Case, label: String, s: Solved): Boolean = {
      attempted += 1
      val p = c.problems(s)
      if (p.nonEmpty) fail(c, label, p.mkString("; "))
      p.isEmpty
    }

    def fail(c: Case, label: String, why: String): Unit = {
      failed += 1
      Console.err.println(s"[perfbench] FAIL ${wl.name} input ${c.index} $label: $why")
    }
  }

  private type Metrics = Seq[(String, (Double, String))]

  /** Everything a timed loop needs once set-up is done. */
  final case class Bench(wl: Workload, cases: IndexedSeq[Case], sc: SparkContext,
      par: SparkScheme, gate: Gate, setupTimes: Seq[Double])

  def run(o: Opts): Int = {
    val wl = o.workload
    val n = if (o.tiny) wl.tinyN else wl.n
    val m = if (o.tiny) 2 else wl.inputs
    val cores = Runtime.getRuntime.availableProcessors
    val gate = new Gate(wl)
    val setupTimes = ArrayBuffer.empty[Double]
    var sc: SparkContext = null
    var cases: IndexedSeq[Case] = null
    try {
      // Set-up, repeated: only the last Spark context survives into the loop.
      for (round <- 1 to SetupRounds) {
        if (sc != null) sc.stop()
        val (tSpark, ctx) = timed(startSpark(cores))
        sc = ctx
        val (tGen, inputs) = timed((0 until m).map(i => wl.generate(n, inputSeed(o.seed, wl, i))))
        if (cases == null)
          cases = inputs.zipWithIndex.map { case (ps, i) => new Case(i, ps, wl.reference(ps)) }
        val warm = pass(s"warm-up $round", wl, cases, new SparkScheme(sc), gate)
        setupTimes += tSpark + tGen + warm.map { case (ts, tp) => ts + tp }.sum
      }
      val bench = Bench(wl, cases, sc, new SparkScheme(sc), gate, setupTimes.toSeq)
      val metrics = if (o.trace) traceLoop(o, bench) else timedLoop(o, bench)
      val ok = gate.failed == 0 && metrics.forall { case (_, (v, _)) => !v.isNaN && !v.isInfinite }
      println(factsLine(o, wl, n, m, cores, sc))
      println(resultLine(ok, gate.attempted, gate.failed, metrics))
      if (ok) 0 else 1
    } finally if (sc != null) sc.stop()
  }

  /** Solves every input once under Seq and once under Spark, checking each
    * solve outside its timed interval. Returns each input's (Seq, Spark) time.
    */
  private def pass(label: String, wl: Workload, cases: IndexedSeq[Case], par: ParScheme,
      gate: Gate): IndexedSeq[(Double, Double)] =
    cases.map { c =>
      val (ts, s) = timed(wl.solve(c.ps, SeqScheme, parallel = false))
      gate.check(c, s"$label seq", s)
      val (tp, p) = timed(wl.solve(c.ps, par, parallel = true))
      gate.check(c, s"$label par", p)
      (ts, tp)
    }

  private def fmt(xs: Seq[Double]): String = xs.map(x => f"$x%.3f").mkString(" ")

  /** Untraced closed loop: passes until time is up; medians over passes. */
  private def timedLoop(o: Opts, b: Bench): Metrics = {
    val passes = ArrayBuffer.empty[IndexedSeq[(Double, Double)]]
    val t0 = System.nanoTime()
    while (secs(t0) < o.seconds || passes.size < MinPasses)
      passes += pass(s"timed ${passes.size}", b.wl, b.cases, b.par, b.gate)
    // Per pass, the mean solve time over the inputs; reported: the median pass.
    val seqPasses = passes.map(p => mean(p.map(_._1))).toSeq
    val parPasses = passes.map(p => mean(p.map(_._2))).toSeq
    val seqS = median(seqPasses)
    val parS = median(parPasses)
    def perInput(f: ((Double, Double)) => Double) =
      fmt(b.cases.indices.map(i => median(passes.map(p => f(p(i))).toSeq)))
    Console.err.println(s"[perfbench] ${b.wl.name}: ${passes.size} passes; setup ${fmt(b.setupTimes)}; " +
      s"seq ${fmt(seqPasses)}; par ${fmt(parPasses)}; " +
      s"per-input medians seq ${perInput(_._1)}, par ${perInput(_._2)}")
    Seq(
      "seq_s" -> (seqS, "s"),
      "par_s" -> (parS, "s"),
      "speedup_self" -> (seqS / parS, "x"),
      "setup_s" -> (median(b.setupTimes), "s"),
    )
  }

  /** One traced solve's per-layer readings. */
  private final case class TraceSample(
      input: Int, wall: Double, clock: LayerClock, solved: Solved, counts: ReplayCounts,
      wrapper: TracingScheme, spark: Array[Long], gcS: Double, heapMb: Double)

  /** Interleaves untraced and traced solves of both schemes on every input,
    * checks every replay edge-for-edge against the engine, and reports
    * per-layer medians over the traced solves. Layer times come from the
    * traced Spark solves, `dendro.seq_s` from the traced Seq solves.
    */
  private def traceLoop(o: Opts, b: Bench): Metrics = {
    val Bench(wl, cases, sc, par, gate, _) = b
    val listener = new SparkCounters
    sc.addSparkListener(listener)
    def scheme(parallel: Boolean): ParScheme = if (parallel) par else SeqScheme

    def traced(c: Case, parallel: Boolean, estimate: Boolean): TraceSample = {
      val wrapper = new TracingScheme(scheme(parallel))
      wrapper.estimateShares = estimate
      val clock = new LayerClock
      val spark0 = listener.snapshot(sc)
      val gc0 = Jvm.gcMillis
      Jvm.resetHeapPeak()
      val (wall, (solved, counts)) = timed(wl.traced(c.ps, wrapper, parallel, clock))
      val heapMb = Jvm.heapPeakMb
      val gcS = (Jvm.gcMillis - gc0) / 1e3
      val spark1 = listener.snapshot(sc)
      TraceSample(c.index, wall, clock, solved, counts, wrapper,
        spark1.zip(spark0).map { case (x, y) => x - y }, gcS, heapMb)
    }

    // The engine's own solve of each input under each scheme; every replay
    // must equal it edge for edge. The Spark jobs and tasks of the engine's
    // Spark solve must recur in the traced one: a wrapper that changed
    // `targetTasks` would change how the work fans out.
    val engine = cases.map(c => Seq(false, true).map(p => wl.solve(c.ps, scheme(p), p).mst))
    val engineJobs = cases.map { c =>
      val before = listener.snapshot(sc)
      wl.solve(c.ps, par, parallel = true)
      listener.snapshot(sc).zip(before).take(2).map { case (x, y) => x - y }.toSeq
    }

    def checkReplay(c: Case, label: String, parallel: Boolean, t: TraceSample): Unit =
      if (gate.check(c, label, t.solved)) {
        val e = engine(c.index)(if (parallel) 1 else 0)
        val shares = wl.expectedShares(e.stats.rounds)
        if (t.solved.mst.edges != e.edges) gate.fail(c, label, "replay edges differ from the engine's")
        else if (t.solved.mst.stats != e.stats)
          gate.fail(c, label, s"replay stats ${t.solved.mst.stats} != engine ${e.stats}")
        else if (t.wrapper.shares != shares)
          gate.fail(c, label, s"wrapper saw ${t.wrapper.shares} shares, engine makes $shares")
        else if (parallel && t.spark.take(2).toSeq != engineJobs(c.index))
          gate.fail(c, label, s"traced solve ran ${t.spark.take(2).mkString("/")} Spark jobs/tasks, " +
            s"engine ${engineJobs(c.index).mkString("/")}")
        else if (t.clock.coveredSeconds > t.wall)
          gate.fail(c, label, s"layer times ${t.clock.coveredSeconds} s exceed wall ${t.wall} s")
      }

    // Size estimates walk the shared objects, so they get a solve of their own.
    val estimated = traced(cases.head, parallel = true, estimate = true)
    checkReplay(cases.head, "traced size estimate", parallel = true, estimated)

    val plainWall = Array(0.0, 0.0)
    val tracedWall = Array(0.0, 0.0)
    val samples = Seq(ArrayBuffer.empty[TraceSample], ArrayBuffer.empty[TraceSample])
    var passes = 0
    val t0 = System.nanoTime()
    while (secs(t0) < o.seconds || passes < MinPasses) {
      for (c <- cases; parallel <- Seq(false, true)) {
        val k = if (parallel) 1 else 0
        val (t, s) = timed(wl.solve(c.ps, scheme(parallel), parallel))
        gate.check(c, s"untraced ${scheme(parallel).name}", s)
        val ts = traced(c, parallel, estimate = false)
        checkReplay(c, s"traced ${scheme(parallel).name}", parallel, ts)
        plainWall(k) += t
        tracedWall(k) += ts.wall
        samples(k) += ts
      }
      passes += 1
    }
    Console.err.println(s"[perfbench] ${wl.name}: $passes traced passes")

    val tp = samples(1).toSeq
    def med(f: TraceSample => Double): Double = median(tp.map(f))
    def layer(name: String): Double = med(_.clock.seconds(name))
    val fanoutS = med(_.wrapper.fanoutNanos / 1e9)
    val runS = med(_.spark(2) / 1e3)
    // Work gap per input: edges offered under Seq vs under Spark.
    val gap = mean(cases.map { c =>
      def offered(k: Int) = samples(k).find(_.input == c.index).get.counts.edgesOffered
      math.abs(offered(0) - offered(1)).toDouble
    })
    Seq(
      "kdtree.build_s" -> (layer("kdtree"), "s"),
      "coredist.knn_s" -> (layer("coredist"), "s"),
      "wspd.rounds" -> (med(_.solved.mst.stats.rounds.toDouble), "count"),
      "wspd.getrho_s" -> (layer("getrho"), "s"),
      "wspd.getpairs_s" -> (layer("getpairs"), "s"),
      "wspd.edges_offered" -> (med(_.counts.edgesOffered.toDouble), "count"),
      "wspd.accept_ratio" ->
        (med(t => (cases(t.input).ps.n - 1).toDouble / t.counts.edgesOffered), "ratio"),
      "wspd.bccp_computed" -> (med(_.solved.mst.stats.bccpComputed.toDouble), "count"),
      "wspd.cache_entries" -> (med(_.counts.cacheEntries.toDouble), "count"),
      "wspd.peak_live_pairs" -> (med(_.solved.mst.stats.peakLivePairs.toDouble), "count"),
      "wspd.scheme_work_gap" -> (gap, "count"),
      "wspd.allpairs_s" -> (layer("allpairs"), "s"),
      "wspd.allpairs_pairs" -> (med(_.counts.allPairs.toDouble), "count"),
      "mst.nodecomp_s" -> (layer("nodecomp"), "s"),
      "mst.kruskal_s" -> (layer("kruskal"), "s"),
      "dendro.seq_s" -> (median(samples(0).toSeq.map(_.clock.seconds("dendro.seq"))), "s"),
      "dendro.par_s" -> (layer("dendro.par"), "s"),
      "par.fanouts" -> (med(_.wrapper.fanouts.toDouble), "count"),
      "par.items" -> (med(_.wrapper.items.toDouble), "count"),
      "par.shares" -> (med(_.wrapper.shares.toDouble), "count"),
      "par.share_bytes_est" -> (estimated.wrapper.shareBytesEst.toDouble, "bytes"),
      "par.fanout_s" -> (fanoutS, "s"),
      "par.share_s" -> (med(_.wrapper.shareNanos / 1e9), "s"),
      "spark.jobs" -> (med(_.spark(0).toDouble), "count"),
      "spark.tasks" -> (med(_.spark(1).toDouble), "count"),
      "spark.task_run_s" -> (runS, "s"),
      "spark.task_deser_s" -> (med(_.spark(3) / 1e3), "s"),
      "spark.result_bytes" -> (med(_.spark(4).toDouble), "bytes"),
      "spark.idle_core_s" -> (sc.defaultParallelism * fanoutS - runS, "s"),
      // GC lands in few solves, so its per-solve cost is a mean, not a median.
      "jvm.gc_s" -> (mean(tp.map(_.gcS)), "s"),
      "jvm.heap_peak_mb" -> (med(_.heapMb), "MB"),
      "trace.overhead_frac" -> (tracedWall.sum / plainWall.sum - 1.0, "ratio"),
      "trace.uncovered_s" -> (med(t => t.wall - t.clock.coveredSeconds), "s"),
      "fail_frac" -> (gate.failed.toDouble / math.max(1L, gate.attempted), "ratio"),
    )
  }

  private def q(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  private def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  def resultLine(ok: Boolean, attempted: Long, failed: Long, metrics: Metrics): String = {
    val ms = metrics.map { case (k, (v, unit)) =>
      s"${q(k)}: {${q("value")}: ${num(v)}, ${q("unit")}: ${q(unit)}}"
    }
    s"""{"correct": $ok, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** The run's facts: host, Spark master, heap, input sizes, seeds, build. */
  private def factsLine(o: Opts, wl: Workload, n: Int, m: Int, cores: Int, sc: SparkContext): String = {
    val facts = Seq(
      "workload" -> q(wl.name),
      "n" -> n.toString,
      "inputs" -> m.toString,
      "seed" -> o.seed.toString,
      "input_seeds" -> (0 until m).map(i => inputSeed(o.seed, wl, i)).mkString("[", ", ", "]"),
      "seconds" -> num(o.seconds),
      "trace" -> (if (o.trace) "1" else "0"),
      "nproc" -> cores.toString,
      "spark_master" -> q(sc.master),
      "spark_version" -> q(sc.version),
      "driver_xmx_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "setup_rounds" -> SetupRounds.toString,
      "warmup_solves_per_scheme_and_input" -> SetupRounds.toString,
      "jdk" -> q(sys.props.getOrElse("java.runtime.version", "?")),
      "git_sha" -> q(sys.props.getOrElse("perfbench.gitSha", "unknown")),
      "source_sha256" -> q(sys.props.getOrElse("perfbench.sourceSha", "unknown")),
    )
    s"""{"facts": {${facts.map { case (k, v) => s"${q(k)}: $v" }.mkString(", ")}}}"""
  }
}
