package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so that
  * listener totals read after a solve include all of that solve's tasks.
  * Lives in Spark's package because the bus is package-private.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(30000L)
}
