package repro.perfbench

import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core._
import repro.data.{Artificial, Fig9Env, StreamData}
import repro.runtime.StreamJoinExec
import repro.ilp.Solver
import repro.sim._

object Workloads {
  val all: Vector[Workload] = Vector(PlanFig9, AdaptFig8, SparkSteps)

  val shapes: Vector[String] = PlanFig9.shapes.map(_.name)
  val scenarios: Vector[String] = AdaptFig8.scenarioNames
  val strategies: Vector[String] = SparkSteps.strategies

  def threads: Int = Runtime.getRuntime.availableProcessors()

  /** A seed for one part of a workload's input, derived from the run seed. */
  def subSeed(seed: Long, part: Long): Long = new java.util.Random(seed * 1000003L + part).nextLong()

  /** TPC-H-lite settings of Fig 7 (as `MultiQueryBench`): scale factor,
    * stream horizon and window, in seconds.
    */
  val TpchSf = 0.005
  val TpchHorizon = 600.0
  val TpchWindow = 60.0
  /** The query set is part of the workload, not of the seed, so every run
    * plans the same queries over freshly drawn streams.
    */
  val TpchQuerySeed = 4242L

  def tpchQueries(n: Int): Vector[Query] =
    StreamData.randomTpchQueries(n, Seq(3, 3, 4), TpchWindow, TpchQuerySeed)

  /** The streams of `queries`' relations, timestamped from the run seed. */
  def tpchInput(spark: SparkSession, queries: Seq[Query], seed: Long, tracer: Tracer)
      : (Map[String, DataFrame], Map[String, Vector[InTuple]]) =
    tracer.span("data.gen") {
      val dfs = StreamData.tpchStreams(spark, TpchSf, TpchHorizon, seed)
      val rels = queries.flatMap(_.relations).distinct.sorted
      val streams = Par.map(rels, threads)(r => r -> StreamData.collect(r, dfs(r), StreamData.tpchAttrs(r))).toMap
      (dfs, streams)
    }

  /** Result-count check of a replay against the exact Spark count. Results
    * may only be missing, never invented: under network delay a probe can
    * overtake its partner's store operation and the result is lost. The
    * allowance is `MultiQueryBench`'s (the larger of 3 and 1 %, for its 2 ms
    * delay), grown in proportion to the replay's delay.
    */
  def countCheck(q: String, got: Long, exact: Long, params: SimParams): Option[String] = {
    val share = 0.01 * math.max(1.0, params.net / 0.002)
    val allowed = math.max(3L, (share * exact).toLong)
    if (got > exact) Some(s"$q: $got results, Spark counts only $exact")
    else if (exact - got > allowed) Some(s"$q: $got results, Spark counts $exact (allowed shortfall $allowed)")
    else None
  }

  /** Record the solver's own cost of a multi-query plan next to the cost of
    * the individually optimal plans with shared steps deduplicated.
    */
  def recordShared(rec: PassRecord, cost: Double, sharedTotal: Double): Unit = {
    rec.add("ilp.mqo_cost", cost)
    rec.add("ilp.shared_total", sharedTotal)
  }

  /** Record what a simulator run did. */
  def recordSim(rec: PassRecord, m: Metrics, tag: String): Unit = {
    rec.add("sim.msgs", (m.probeMsgs + m.storeMsgs).toDouble, tag)
    rec.add("sim.matches", m.matches.toDouble, tag)
    rec.add("sim.tuples_sent", m.tuplesSent.toDouble, tag)
    rec.add("sim.busy_s", m.totalBusy, tag)
    rec.max("sim.peak_stored", m.peakStored.toDouble)
    rec.max("sim.peak_backlog", m.peakBacklog.toDouble)
  }
}
import Workloads._

/** Fig 9 environment instances, planned from scratch in every pass: `core`
  * and `ilp` do all the work.
  */
object PlanFig9 extends Workload {
  /** One instance per shape, drawn with the seed of its Fig 9 row, so every
    * run plans problems of the same size: the solver always spends its whole
    * node budget, and the build's cost follows the query shapes drawn.
    */
  final case class Shape(name: String, nRels: Int, nQ: Int, size: Int, fig9Seed: Long)

  /** dense (Fig 9a, nQ=100): one sharing component, the solver dominates;
    * sparse (Fig 9e, nQ=100): ~96 independent components; wide (Fig 9f,
    * size 5): ~15k variables, the build dominates.
    */
  val shapes: Vector[Shape] = Vector(
    Shape("dense", 10, 100, 3, 7L * 100),
    Shape("sparse", 100, 100, 3, 17L * 100),
    Shape("wide", 100, 10, 5, 13L * 5),
  )
  val NodeBudget = 300000L // as Fig9Experiment

  final case class Instance(shape: String, queries: Vector[Query], catalog: Catalog, stats: Stats,
                            sharedTotal: Double)

  /** The run seed renames the queries at random. Slots are ordered by query
    * name, so this changes the order the solver visits them in, not the problem.
    */
  def rename(qs: Vector[Query], seed: Long): Vector[Query] = {
    val names = new scala.util.Random(seed).shuffle(qs.map(_.name))
    qs.zip(names).map { case (q, n) => q.copy(name = n) }
  }

  val name = "plan_fig9"
  val usesSpark = false

  def setup(seed: Long, spark: Option[SparkSession], tracer: Tracer): Prepared = {
    val instances = shapes.zipWithIndex.map { case (sh, i) =>
      val qs = tracer.span("data.gen", sh.name)(
        rename(Fig9Env.randomQueries(sh.nRels, sh.nQ, sh.size, sh.fig9Seed), subSeed(seed, i)))
      val catalog = Fig9Env.catalog(sh.nRels)
      val stats = Fig9Env.stats(sh.nRels)
      // only the traced run reports cost_over_shared; Fig 9's per-query budget
      val shared =
        if (tracer.enabled) Plan.sharedTotal(qs, catalog, stats, math.max(10000L, NodeBudget / qs.size))
        else 0.0
      Instance(sh.name, qs, catalog, stats, shared)
    }
    new Prepared {
      def pass(tracer: Tracer, rec: PassRecord): Unit = instances.foreach { in =>
        rec.op(s"plan ${in.shape}")(
          Plan.run(in.queries, in.catalog, in.stats, NodeBudget, tracer, rec, in.shape))(Plan.check)
          .foreach { r =>
            rec.planMs += r.ms
            recordShared(rec, r.solution.cost, in.sharedTotal)
          }
      }
    }
  }
}

/** The Fig 8a selectivity flip and the Fig 8b collapsing intermediate, each
  * under `AdaptiveController`: the controller re-plans every epoch and
  * epoch-scoped configurations coexist in the simulator.
  */
object AdaptFig8 extends Workload {
  final case class Scenario(name: String, input: Vector[InTuple], stats: Stats, params: SimParams,
                            tEnd: Double, shiftAt: Double)

  val Window = 5.0
  val ShiftAt = 15.0

  /** Arrival rates (tuples/s) of Fig 8a, and of R and of S, T, U in Fig 8b. */
  val Rate8a = 500.0
  val Rate8bR = 1000.0
  val Rate8bOthers = 100.0

  /** Fig8Experiment.fig8a/fig8b with the rates above and initial statistics
    * scaled to them.
    */
  def scenarioInputs: Vector[Scenario] = {
    val card = Rate8a * Window
    val stats8a = Stats(
      Map("R" -> card, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / card,
          Pred.of("S", "b", "T", "b") -> 1.5 / card,
          Pred.of("T", "c", "U", "c") -> 1.0 / card))
    val cardR = Rate8bR * Window
    val cardO = Rate8bOthers * Window
    val stats8b = Stats(
      Map("R" -> cardR, "S" -> cardO, "T" -> cardO, "U" -> cardO),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / cardO,
          Pred.of("S", "b", "T", "b") -> 1.0 / cardO,
          Pred.of("T", "c", "U", "c") -> 25.0 / cardO))
    Vector(
      Scenario("fig8a", Artificial.fig8a(Rate8a, 32.0, ShiftAt), stats8a,
               SimParams(netDelay = 0.012, svcStore = 2e-5, svcProbe = 2.5e-4, svcPerMatch = 1e-5,
                         epochLen = 1.0, memLimit = 250000.0), 40.0, ShiftAt),
      Scenario("fig8b", Artificial.fig8b(Rate8bR, Rate8bOthers, 30.0, ShiftAt, g = 25), stats8b,
               SimParams(netDelay = 0.012, svcStore = 1e-5, svcProbe = 5e-5, svcPerMatch = 1.5e-6,
                         epochLen = 1.0), 35.0, ShiftAt),
    )
  }
  val scenarioNames: Vector[String] = Vector("fig8a", "fig8b")

  /** Relabel every key through one seeded bijection of the longs: joins and
    * results are unchanged, while hash partitioning, and so the simulated
    * load on each worker, differs between seeds.
    */
  def relabel(in: Vector[InTuple], seed: Long): Vector[InTuple] = {
    val rng = new java.util.Random(seed)
    val a = rng.nextLong() | 1L
    val b = rng.nextLong()
    in.map(t => t.copy(vals = t.vals.map { case (k, v) => k -> (v * a + b) }))
  }

  def frames(spark: SparkSession, catalog: Catalog, in: Vector[InTuple]): Map[String, DataFrame] =
    in.groupBy(_.rel).map { case (r, ts) =>
      val attrs = catalog(r).attrs
      val schema = StructType(attrs.map(StructField(_, LongType, nullable = false)) :+
                                StructField("ts", DoubleType, nullable = false))
      val rows = ts.map(t => Row.fromSeq(attrs.map(a => t.vals(s"$r.$a")) :+ t.ts))
      r -> spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
    }

  val name = "adapt_fig8"
  val usesSpark = true

  def setup(seed: Long, spark: Option[SparkSession], tracer: Tracer): Prepared = {
    val catalog = Artificial.catalog()
    val query = Artificial.query(Window)
    val scs = tracer.span("data.gen")(
      scenarioInputs.zipWithIndex.map { case (s, i) => s.copy(input = relabel(s.input, subSeed(seed, i))) })
    val exact = tracer.span("runtime.reference")(
      Par.map(scs, threads)(s => StreamJoinExec.queryResult(query, frames(spark.get, catalog, s.input)).count()))

    new Prepared {
      def pass(tracer: Tracer, rec: PassRecord): Unit = scs.zip(exact).foreach { case (s, ref) =>
        val ctrl = new AdaptiveController(_ => Vector(query), catalog, s.stats)
        rec.op(s"adaptive ${s.name}") {
          val sim = new EventSim(catalog, s.params)
          val timed = new TimedController(ctrl, tracer, s.name, rec)
          tracer.span("sim.run", s.name)(sim.run(s.input, s.tEnd, Some(timed)))
        } { m =>
          recordSim(rec, m, s.name)
          rec.add("sim.reoptimizations", ctrl.reoptimizations, s.name)
          rec.add("sim.reconfigs", ctrl.installs, s.name)
          // Fig 8's latency: per-input-tuple completion, over the post-shift seconds
          val post = m.tupleLatencyBuckets.filter(_._1 >= s.shiftAt.toLong).values
          rec.add("sim.latency_sum_ms", 1000.0 * post.map(_._1).sum, s.name)
          rec.add("sim.latency_n", post.map(_._2).sum.toDouble, s.name)
          if (m.failedAt.isDefined) Some(s"adaptive run failed at ${m.failedAt.get}")
          else countCheck(query.name, m.resultCount(query.name), ref, s.params)
        }
      }
    }
  }
}

/** Spark counts the probe tuples of every distinct step of the Independent,
  * Shared and CMQO selections (as `Fig7Experiment.sparkProbeWork`): the only
  * workload where `runtime` does the work.
  */
object SparkSteps extends Workload {
  val NQueries = 5
  val NodeBudget = 200000L // as Fig7Experiment
  val strategies: Vector[String] = Vector("independent", "shared", "cmqo")

  val name = "spark_steps"
  val usesSpark = true

  def setup(seed: Long, spark: Option[SparkSession], tracer: Tracer): Prepared = {
    val queries = tpchQueries(NQueries)
    val catalog = StreamData.tpchCatalog()
    val stats = StreamData.tpchStats(TpchSf, TpchWindow, TpchHorizon)
    val (dfs, streams) = tpchInput(spark.get, queries, seed, tracer)

    // Reference: per-node probe tuples of deterministic-mode replays of the
    // Shared and the CMQO selection, keyed by node id (one node per distinct
    // step). Shared merges the individually optimal plans, so its nodes
    // cover every step of Independent too.
    val expected: Map[String, Long] = tracer.span("sim.reference") {
      val perQuery = Planner.individual(queries, catalog, stats, NodeBudget)
      val sels = Vector(Planner.sharedFromIndividual(perQuery),
                        Planner.mqo(queries, catalog, stats, NodeBudget).selection)
      val input = StreamData.merged(streams)
      val byNode = Par.map(sels, threads) { sel =>
        val sim = new EventSim(catalog, SimParams(deterministic = true))
        sim.installConfig(0L, Topology.build(sel, catalog))
        sim.run(input).sentByNode.toMap
      }
      val merged = byNode.flatten.groupMap(_._1)(_._2)
      merged.foreach { case (id, vs) =>
        require(vs.distinct.size == 1, s"replays disagree on node $id: ${vs.distinct.mkString(",")}")
      }
      // a selected step the replay never reached sent nothing
      sels.flatMap(_.distinctSteps.keys).map(k => Topology.nodeId(k) -> 0L).toMap ++
        merged.view.mapValues(_.head).toMap
    }

    new Prepared {
      def pass(tracer: Tracer, rec: PassRecord): Unit = {
        val individual = queries.flatMap { q =>
          rec.op(s"plan ${q.name}")(Plan.run(Seq(q), catalog, stats, NodeBudget, tracer, rec, deploy = false))(Plan.check)
        }
        val perQuery = individual.map(r => Planner.Planned(r.problem, r.solution))
        val mqo = rec.op("plan cmqo")(Plan.run(queries, catalog, stats, NodeBudget, tracer, rec, deploy = false))(Plan.check)
        val plans = individual ++ mqo
        mqo.foreach(r => recordShared(rec, r.solution.cost, Solver.sharedTotal(perQuery.map(pl => pl.problem -> pl.solution))))
        // one planning decision: the pass plans the workload under every strategy
        rec.planMs += plans.map(_.ms).sum

        val memo = scala.collection.mutable.Map[StepKey, Long]()
        def count(s: Step): Long = memo.getOrElseUpdate(s.key, {
          val id = Topology.nodeId(s.key)
          rec.op(s"count $id")(tracer.span("runtime.count")(StreamJoinExec.stepSentCount(s, dfs, catalog))) { c =>
            rec.add("runtime.steps_counted", 1)
            rec.add("runtime.probe_tuples", c.toDouble)
            if (expected.get(id).contains(c)) None
            else Some(s"Spark counts $c, deterministic replay ${expected.get(id).fold("has no such node")(_.toString)}")
          }.getOrElse(0L)
        })
        def work(steps: Iterable[Step]): Long = steps.toVector.sortBy(s => Topology.nodeId(s.key)).map(count).sum

        val perStrategy = Seq(
          "independent" -> perQuery.map(pl => work(pl.selection.distinctSteps.values)).sum,
          "shared" -> work(Planner.sharedFromIndividual(perQuery).distinctSteps.values),
          "cmqo" -> mqo.fold(0L)(r => work(r.selection.distinctSteps.values)))
        perStrategy.foreach { case (k, v) => rec.counts(s"runtime.probe_tuples.$k") += v.toDouble }
      }
    }
  }
}
