package repro.par

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast

import scala.reflect.ClassTag

/** Read-only shared state visible inside parallel work items.
  *
  * `SparkScheme` backs this with a `Broadcast`, made only once a task needs
  * it; `SeqScheme` with the value itself. Algorithms obtain one via [[ParScheme.share]] and call `.value`
  * inside closures, so the same algorithm body runs under both schemes.
  */
trait Shared[T] extends Serializable {
  def value: T
  /** Releases any cluster-side resources (broadcast blocks, if made). */
  def release(): Unit = ()
}

/** Execution scheme for the data-parallel loops of the paper's algorithms.
  *
  * The paper measures "1 thread" vs "48 cores" with identical algorithm
  * code; we mirror that with [[SeqScheme]] (pure driver-side loops) vs
  * [[SparkScheme]] (RDD fan-out over work items with broadcast shared
  * state and shared-memory access inside executor threads).
  */
trait ParScheme extends Serializable {
  def name: String

  /** Applies `f` to every item, in parallel under Spark. Order-preserving. */
  def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B]

  /** Applies `f: A => Seq[B]` and concatenates, in parallel under Spark. */
  def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B]

  /** Wraps read-only state for use inside `mapItems` closures. */
  def share[T: ClassTag](v: T): Shared[T]

  /** Desired number of work items for a balanced fan-out (1 for seq). */
  def targetTasks: Int
}

/** Pure sequential execution — the paper's single-thread baseline. */
object SeqScheme extends ParScheme {
  override def name: String = "seq"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    items.map(f)

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    items.flatMap(f)

  override def share[T: ClassTag](v: T): Shared[T] = new Shared[T] {
    override def value: T = v
  }

  override def targetTasks: Int = 1
}

/** Spark-backed execution: work items fan out over an RDD, shared state
  * reaches the executors as a `Broadcast`, and executor threads (local[*])
  * access it through shared memory. Algorithms re-share per-round state
  * (union-find components, the BCCP cache) every round.
  *
  * Sharing is lazy: `share` keeps the value on the driver and makes the
  * `Broadcast` only when a task closure that holds the [[Shared]] is first
  * serialized. A round that the algorithm finishes on the driver (see
  * [[WorkBudget]]) therefore costs neither a job nor a broadcast.
  *
  * @param slices number of RDD partitions per fan-out (defaults to
  *               `defaultParallelism`)
  */
final class SparkScheme(@transient val sc: SparkContext, slicesOpt: Option[Int] = None)
    extends ParScheme {
  private val slices: Int = slicesOpt.getOrElse(sc.defaultParallelism)

  override def name: String = s"spark[$slices]"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    if (items.isEmpty) IndexedSeq.empty
    else if (items.size == 1) IndexedSeq(f(items.head)) // avoid job overhead for trivial rounds
    else sc.parallelize(items, math.min(slices, items.size)).map(f).collect().toIndexedSeq

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    if (items.isEmpty) IndexedSeq.empty
    else if (items.size == 1) f(items.head).toIndexedSeq
    else sc.parallelize(items, math.min(slices, items.size)).flatMap(f).collect().toIndexedSeq

  override def share[T: ClassTag](v: T): Shared[T] = new LazyBroadcast(sc, v)

  override def targetTasks: Int = slices * 4
}

/** The driver-side [[Shared]] of [[SparkScheme]]: `value` is the local
  * value; serializing it (into a task closure) makes the `Broadcast` once
  * and ships a [[BroadcastShared]] in its place.
  */
private final class LazyBroadcast[T: ClassTag](@transient sc: SparkContext, @transient v: T)
    extends Shared[T] {
  @transient private var made: Broadcast[T] = _

  override def value: T = v

  // Non-blocking: MemoGFK releases its shares every round and must not
  // stall the round loop on block-manager cleanup.
  override def release(): Unit = synchronized {
    if (made != null) made.unpersist(blocking = false)
  }

  // Java serialization (Spark's closure serializer) calls this in place of
  // writing the object; task serialization may run on the scheduler thread.
  private def writeReplace(): AnyRef = synchronized {
    if (made == null) made = sc.broadcast(v)
    new BroadcastShared(made)
  }
}

/** What a task holds in place of a [[LazyBroadcast]]. */
private final class BroadcastShared[T](b: Broadcast[T]) extends Shared[T] {
  override def value: T = b.value
}
