package repro.par

import repro.SparkSpec

/** Lazy broadcast of [[SparkScheme.share]]: a value is broadcast only when a
  * task needs it, and tasks still see it.
  */
class SparkSchemeSpec extends SparkSpec {

  private lazy val par = new SparkScheme(spark.sparkContext)

  /** Broadcast ids are consecutive, so the next one tells how many were made. */
  private def nextBroadcastId(): Long = {
    val b = spark.sparkContext.broadcast(0)
    try b.id finally b.destroy()
  }

  test("share then release with no job in between creates no broadcast") {
    val before = nextBroadcastId()
    val s = par.share(Array(1, 2, 3))
    assert(s.value.sum == 6)
    s.release()
    assert(nextBroadcastId() == before + 1)
  }

  test("a shared value read inside a multi-item mapItems reaches every task") {
    val s = par.share(Array.tabulate(64)(i => 3 * i))
    try {
      val (jobs, got) = jobsDuring(par.mapItems(0 until 64)(i => s.value(i)))
      assert(jobs == 1)
      assert(got == (0 until 64).map(3 * _))
      // A second fan-out reuses the broadcast made by the first.
      assert(par.flatMapItems(0 until 8)(i => Seq(s.value(i), s.value(63 - i))).sum == 3 * 63 * 8)
    } finally s.release()
  }

  test("a shared value serialized into a task is broadcast once") {
    val s = par.share(Array(5, 6))
    try {
      val before = nextBroadcastId()
      par.mapItems(0 until 4)(i => s.value(i % 2))
      val afterFirst = nextBroadcastId()
      par.mapItems(0 until 4)(i => s.value(i % 2))
      val afterSecond = nextBroadcastId()
      // Each job also broadcasts its own task binary: the first job adds
      // one more broadcast (the shared value) than the second.
      assert(afterFirst - before == afterSecond - afterFirst + 1)
    } finally s.release()
  }
}
