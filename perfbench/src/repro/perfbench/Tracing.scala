package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.util.SizeEstimator

import repro.par.{ParScheme, Shared}

/** Delegating [[ParScheme]] that counts and times every fan-out and share.
  *
  * It forwards `targetTasks` unchanged, so the algorithm splits its work
  * exactly as under the wrapped scheme; the benchmark checks that by
  * comparing each traced solve's `MstStats` and Spark jobs and tasks with
  * the untraced engine's.
  */
final class TracingScheme(val inner: ParScheme) extends ParScheme {
  var fanouts = 0L
  var items = 0L
  var shares = 0L
  var fanoutNanos = 0L
  var shareNanos = 0L
  /** Bytes of every shared value as `SizeEstimator` computes them (a
    * computed estimate, not a measurement); only gathered when enabled,
    * because the estimate walks the object graph.
    */
  var shareBytesEst = 0L
  var estimateShares = false

  override def name: String = s"traced(${inner.name})"
  override def targetTasks: Int = inner.targetTasks

  override def mapItems[A: ClassTag, B: ClassTag](xs: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    fanout(xs.size)(inner.mapItems(xs)(f))

  override def flatMapItems[A: ClassTag, B: ClassTag](xs: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    fanout(xs.size)(inner.flatMapItems(xs)(f))

  override def share[T: ClassTag](v: T): Shared[T] = {
    val t0 = System.nanoTime()
    val s = inner.share(v)
    shareNanos += System.nanoTime() - t0
    shares += 1
    if (estimateShares) shareBytesEst += SizeEstimator.estimate(v.asInstanceOf[AnyRef])
    s
  }

  private def fanout[T](n: Int)(body: => T): T = {
    val t0 = System.nanoTime()
    try body
    finally {
      fanoutNanos += System.nanoTime() - t0
      fanouts += 1
      items += n
    }
  }
}

/** Wall time per layer of one solve, from spans the replay opens around
  * each call into a layer's public functions. Spans never nest, so their
  * sum is the covered part of the solve's wall time.
  */
final class LayerClock {
  private val nanos = mutable.LinkedHashMap.empty[String, Long]

  def span[T](layer: String)(body: => T): T = {
    val t0 = System.nanoTime()
    try body
    finally nanos(layer) = nanos.getOrElse(layer, 0L) + (System.nanoTime() - t0)
  }

  def seconds(layer: String): Double = nanos.getOrElse(layer, 0L) / 1e9
  def coveredSeconds: Double = nanos.values.sum / 1e9
}

/** Spark-side totals from the listener bus: jobs, tasks, executor run and
  * deserialization time, and task result bytes.
  */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val runMs = new AtomicLong
  val deserMs = new AtomicLong
  val resultBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      deserMs.addAndGet(m.executorDeserializeTime)
      resultBytes.addAndGet(m.resultSize)
    }
    ()
  }

  /** Current totals, after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): Array[Long] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    Array(jobs.get, tasks.get, runMs.get, deserMs.get, resultBytes.get)
  }
}

/** JVM-wide GC time and heap peak, read around one solve. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)

  def gcMillis: Long = gcs.iterator.map(g => math.max(0L, g.getCollectionTime)).sum

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset, in MB. */
  def heapPeakMb: Double = heapPools.iterator.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
