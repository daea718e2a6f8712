package repro.par

/** A count of work units a driver-side traversal may spend before it gives
  * up. One unit is one node-pair visit or one distance evaluation (BCCP*
  * and k-NN queries charge each box or point distance they evaluate; the
  * Euclidean BCCP scan over nodes A and B charges |A|·|B| before it runs).
  *
  * Traversals do not throw when the budget runs out: they check
  * [[spend]] in their prune test, so the recursion unwinds on its own.
  */
final class WorkBudget(limit: Long) {
  private var spent = 0L

  /** Charges `units`; true once the total charged exceeds the limit. */
  @inline def spend(units: Long): Boolean = {
    spent += units
    spent > limit
  }

  def exhausted: Boolean = spent > limit
}

object WorkBudget {

  /** Work that costs about as much as launching one Spark job, so a round
    * within it is cheaper to finish on the driver than to fan out.
    *
    * Measured on a 4-core x86-64 host (JDK 17, Spark 4, `local[4]`, Kryo),
    * medians with JIT warmed up:
    *   - one `parallelize(16 items, 4).map.collect()` job: 12–15 ms of driver
    *     wall time (17–24 ms over a JVM's first few hundred jobs);
    *   - sequential traversals, per unit: GetRho 51 ns, GetPairs 63–70 ns
    *     (node-pair visits and dual-tree BCCP* bounds and distances) and
    *     k-NN core distances 56 ns on 4K GeoLife-like points with
    *     minPts = 10; `allPairs` 116 ns on 5K 3D SS-varden points.
    * Over that range the budget is 25–58 ms of driver work, two to four
    * jobs. It is not cut to one job's worth (about 250K units) because a
    * fan-out of that size does not finish sooner: the 16 frontier tasks
    * go to 4 contiguous partitions, and one measured GetPairs fan-out took
    * 61 ms of driver wall time for 49 ms of summed task time.
    */
  val OneSparkJob: Long = 500000L

  /** A budget that never runs out, for work already committed to running. */
  def unlimited: WorkBudget = new WorkBudget(Long.MaxValue)

  /** A budget of [[OneSparkJob]] for driver-first work under a scheme that
    * fans out; under one that does not, a budget that never runs out, so
    * all the work runs on the driver.
    */
  def forDriver(par: ParScheme): WorkBudget =
    if (par.targetTasks > 1) new WorkBudget(OneSparkJob) else unlimited

  /** Runs `work` on the driver against [[forDriver]]'s budget and returns
    * its result if it finished within the budget. None means the budget ran
    * out: the caller must fan the work out; the partial result is dropped.
    */
  def onDriver[T](par: ParScheme)(work: WorkBudget => T): Option[T] = {
    val budget = forDriver(par)
    val result = work(budget)
    if (budget.exhausted) None else Some(result)
  }
}
