package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.ilp.Solver
import repro.sim.{Controller, EventSim}
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.control.NonFatal

/** What one pass measured: operations and their checks, planning latencies,
  * and the counts each layer reported.
  */
final class PassRecord {
  var ops = 0
  var failed = 0
  val failures = mutable.ArrayBuffer[String]()
  /** Wall time of each planning decision (ms); each workload says what one is. */
  val planMs = mutable.ArrayBuffer[Double]()
  /** Wall time of each controller epoch (ms). */
  val epochMs = mutable.ArrayBuffer[Double]()
  val counts = mutable.Map[String, Double]().withDefaultValue(0.0)

  /** Run one operation and check its output. It fails if it throws (then
    * there is no result) or if the check returns an error.
    */
  def op[T](what: String)(body: => T)(check: T => Option[String]): Option[T] = {
    ops += 1
    def fail(e: String): Unit = { failed += 1; failures += s"$what: $e" }
    try {
      val r = body
      check(r).foreach(fail)
      Some(r)
    } catch { case NonFatal(e) => fail(s"threw $e"); None }
  }

  /** Add to a per-layer count, and to its per-shape/scenario variant. */
  def add(name: String, v: Double, tag: String = ""): Unit = {
    counts(name) += v
    if (tag.nonEmpty) counts(s"$name.$tag") += v
  }

  def max(name: String, v: Double): Unit = counts(name) = math.max(counts(name), v)
}

/** What a workload's set-up hands to its passes. */
trait Prepared {
  def pass(tracer: Tracer, rec: PassRecord): Unit
}

trait Workload {
  def name: String
  def usesSpark: Boolean
  def setup(seed: Long, spark: Option[SparkSession], tracer: Tracer): Prepared
}

/** Times each controller epoch, from outside `AdaptiveController`. */
final class TimedController(inner: Controller, tracer: Tracer, tag: String, rec: PassRecord)
    extends Controller {
  override def onEpoch(epoch: Long, sim: EventSim): Unit = {
    val t0 = System.nanoTime()
    tracer.span("sim.ctrl", tag)(inner.onEpoch(epoch, sim))
    val ms = (System.nanoTime() - t0) / 1e6
    rec.epochMs += ms
    rec.planMs += ms // in adapt_fig8 a planning decision is one controller epoch
  }
}

/** Calls into `core` and `ilp` shared by the workloads, each in its own span. */
object Plan {

  final case class Result(problem: MqoProblem, solution: Solver.Solution, selection: Selection,
                          topology: Option[Topology], ms: Double)

  /** Build, solve and (optionally) deploy one problem, timing the whole call. */
  def run(queries: Seq[Query], catalog: Catalog, stats: Stats, nodeBudget: Long, tracer: Tracer,
          rec: PassRecord, tag: String = "", deploy: Boolean = true): Result = {
    val t0 = System.nanoTime()
    val p = tracer.span("core.build", tag)(MqoProblem.build(queries, catalog, stats))
    val sol = tracer.span("ilp.solve", tag)(Solver.solve(p, nodeBudget))
    val sel = Selection(p.queries, sol.selected(p))
    val topo = if (deploy) Some(tracer.span("core.topology", tag)(Topology.build(sel, catalog))) else None
    val ms = (System.nanoTime() - t0) / 1e6
    rec.add("core.vars", p.numVars, tag)
    rec.add("core.probe_orders", p.numProbeOrders)
    rec.add("core.steps", p.numYVars)
    rec.add("core.mirs", p.mirByKey.size)
    rec.add("ilp.solves", 1, tag)
    rec.add("ilp.nodes", sol.nodes.toDouble, tag)
    rec.add("ilp.budget_exhausted", if (sol.optimal) 0 else 1, tag)
    rec.add("ilp.plan_cost", sol.cost, tag)
    topo.foreach { t =>
      rec.add("core.topo_nodes", t.nodes.size)
      rec.add("core.stores", t.stores.size)
    }
    Result(p, sol, sel, topo, ms)
  }

  /** The output check of a plan: every query slot and every maintenance slot
    * of a used MIR is selected, the topology emits every query, and the
    * selection's shared cost is the solver's own cost.
    */
  def check(r: Result): Option[String] = {
    val p = r.problem
    val chosen = r.solution.choice.keySet
    val missing = p.querySlots.filterNot(chosen)
    val usedMirs = r.selection.orders.flatMap(_._2.mirsUsed).distinct
    val missingMir = usedMirs.flatMap(p.mirSlots).filterNot(chosen)
    val emitted = r.topology.map(_.nodes.values.flatMap(_.emits).toSet)
    val silent = emitted.map(e => p.queries.map(_.name).filterNot(e)).getOrElse(Vector.empty)
    val cost = r.selection.sharedCost
    if (missing.nonEmpty) Some(s"query slots not selected: ${missing.map(_.key).mkString(",")}")
    else if (missingMir.nonEmpty) Some(s"maintenance slots not selected: ${missingMir.map(_.key).mkString(",")}")
    else if (silent.nonEmpty) Some(s"topology emits no results for ${silent.mkString(",")}")
    else if (math.abs(cost - r.solution.cost) > 1e-6 * math.max(1.0, math.abs(cost)))
      Some(s"selection costs $cost but the solver reports ${r.solution.cost}")
    else None
  }

  /** `Solver.sharedTotal` of the individually optimal plans: the reference
    * `ilp.cost_over_shared` divides by.
    */
  def sharedTotal(queries: Seq[Query], catalog: Catalog, stats: Stats, nodeBudget: Long): Double =
    Solver.sharedTotal(Planner.individual(queries, catalog, stats, nodeBudget)
                         .map(pl => pl.problem -> pl.solution))
}

object Par {
  /** Map over `xs` on up to `threads` threads, waiting for every task. */
  def map[A, B](xs: Seq[A], threads: Int)(f: A => B): Vector[B] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(math.max(1, math.min(threads, xs.size)))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try Await.result(Future.traverse(xs.toVector)(x => Future(f(x))), Duration.Inf)
    finally {
      pool.shutdown()
      pool.awaitTermination(1, java.util.concurrent.TimeUnit.MINUTES)
    }
  }
}
