package repro.core

/** Probe cost model (Equation 1).
  *
  * Step t of a probe order sends the partial join of the first t elements —
  * restricted to combinations where the start tuple arrived last, which is a
  * 1/|covered relations| fraction of the full join — to the store of element
  * t+1. If the target store's partitioning attribute cannot be derived from
  * the prefix tuple, it must be broadcast to all partitions (factor χ).
  */
object CostModel {

  /** Broadcast factor χ for routing a prefix tuple to `target` partitioned by
    * `part`: 1 when the partitioning value is derivable from the prefix via
    * the subquery's attribute-equality classes, else the store's parallelism.
    */
  def chi(step: Step, catalog: Catalog): Double =
    if (step.routed) 1.0 else catalog.parallelism(step.target).toDouble

  /** Number of tuples sent by a step per window of input:
    * |⋈ prefix| · (1 / #covered relations) · χ(target).
    */
  def stepCost(step: Step, stats: Stats, catalog: Catalog): Double = {
    val covered = step.coveredRels
    val prefixCard = stats.joinCard(covered, step.sub.inducedPreds(covered))
    prefixCard / covered.size * chi(step, catalog)
  }

  /** The (step key, cost) pairs the ILP accounts for when `d` is selected:
    * its probe steps plus, for a maintenance order of `maintains`, the insert
    * step that ships each produced subresult into the MIR store (Section IV:
    * an MIR store pays off when the intermediate result is small). The start
    * tuple is latest in a 1/#relations fraction of the subresult.
    */
  def costed(d: Decorated, maintains: Option[Mir], stats: Stats,
             catalog: Catalog): Vector[(StepKey, Double)] = {
    val sub = d.po.sub
    d.steps.map(s => s.key -> stepCost(s, stats, catalog)) ++ maintains.map { m =>
      StepKey(Vector(d.po.start), s"insert:${m.key}", "", routed = true) ->
        stats.joinCard(sub.relations, sub.predicates) / sub.relations.size
    }
  }

  /** PCost of a decorated probe order: sum of its step costs. */
  def orderCost(d: Decorated, stats: Stats, catalog: Catalog): Double =
    d.steps.map(stepCost(_, stats, catalog)).sum
}
