package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `body` and returns the number of Spark jobs it started, with its
    * result. Jobs are told apart by a local property of this thread; a
    * closing marker job makes sure the listener has seen every earlier job.
    */
  def jobsDuring[T](body: => T): (Int, T) = {
    val sc = spark.sparkContext
    val key = "repro.test.jobTag"
    val tag = java.util.UUID.randomUUID().toString
    val jobs = new AtomicInteger
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(key)).foreach { t =>
          if (t == tag) jobs.incrementAndGet()
          else if (t == tag + "-end") marker.countDown()
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, tag)
      val result = body
      sc.setLocalProperty(key, tag + "-end")
      sc.parallelize(1 to 2, 2).count()
      assert(marker.await(60, TimeUnit.SECONDS), "listener never saw the marker job")
      (jobs.get, result)
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // The geometric fan-outs collect millions of small Edge objects;
      // Kryo keeps that from dominating the parallel running times.
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
