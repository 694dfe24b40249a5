package repro.perfbench

/** Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
  * lists the same names (checked by `HarnessSpec`).
  */
object Catalogue {

  final case class EndToEnd(name: String, unit: String, bound: Double)

  val endToEnd: Vector[EndToEnd] = Vector(
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("wall_s", "s", 0.25),
    EndToEnd("plan_ms_p50", "ms", 0.25),
  )

  private def tagged(name: String, unit: String, tags: Seq[String]): Vector[(String, String)] =
    ((name -> unit) +: tags.map(t => s"$name.$t" -> unit)).toVector

  /** Per-layer metrics where more is better; for all others less is. */
  val higherIsBetter: Set[String] =
    Set("sim.msgs_per_s", "sim.match_ratio", "trace.attributed_share", "trace.passes")

  import Workloads.{scenarios, shapes, strategies}

  /** (name, unit) of each per-layer metric; all but `data.gen_s` are per pass. */
  val perLayer: Vector[(String, String)] = Vector(
    Vector("data.gen_s" -> "s"),
    tagged("core.build_ms", "ms", shapes),
    tagged("core.vars", "count", shapes),
    Vector("core.probe_orders" -> "count", "core.steps" -> "count", "core.mirs" -> "count",
           "core.topology_ms" -> "ms", "core.topo_nodes" -> "count", "core.stores" -> "count"),
    tagged("ilp.solve_ms", "ms", shapes),
    tagged("ilp.nodes", "count", shapes),
    tagged("ilp.budget_exhausted", "share", shapes),
    tagged("ilp.plan_cost", "tuples", shapes),
    Vector("ilp.cost_over_shared" -> "ratio"),
    tagged("sim.self_s", "s", scenarios),
    tagged("sim.ctrl_ms", "ms", scenarios),
    Vector("sim.reopt_ms_p50" -> "ms"),
    tagged("sim.reoptimizations", "count", scenarios),
    tagged("sim.reconfigs", "count", scenarios),
    tagged("sim.msgs", "count", scenarios),
    Vector("sim.msgs_per_s" -> "1/s", "sim.matches" -> "count", "sim.match_ratio" -> "ratio"),
    tagged("sim.tuples_sent", "count", scenarios),
    Vector("sim.peak_stored" -> "count", "sim.peak_backlog" -> "count", "sim.busy_s" -> "s"),
    tagged("sim.latency_ms", "ms", scenarios),
    Vector("runtime.count_ms" -> "ms", "runtime.steps_counted" -> "count"),
    tagged("runtime.probe_tuples", "count", strategies),
    Vector("bench.self_ms" -> "ms",
           "trace.wall_s" -> "s", "trace.untraced_wall_s" -> "s", "trace.overhead" -> "share",
           "trace.attributed_share" -> "share", "trace.spans" -> "count", "trace.passes" -> "count"),
  ).flatten

  /** Span name → (per-layer metric, seconds per unit) of its self time. */
  val spanMetric: Map[String, (String, Double)] = Map(
    "core.build" -> ("core.build_ms", 1e-3),
    "core.topology" -> ("core.topology_ms", 1e-3),
    "ilp.solve" -> ("ilp.solve_ms", 1e-3),
    "sim.run" -> ("sim.self_s", 1.0),
    "sim.ctrl" -> ("sim.ctrl_ms", 1e-3),
    "runtime.count" -> ("runtime.count_ms", 1e-3),
    "bench.pass" -> ("bench.self_ms", 1e-3),
  )

  /** Per-layer values of the traced passes: span self times and counts are
    * means per pass; ratios are taken over the sums.
    */
  def perLayerValues(passes: Seq[(PassRecord, Vector[Span])], epochMs: Seq[Double]): Map[String, Double] = {
    val n = math.max(1, passes.size).toDouble
    val sums = scala.collection.mutable.Map[String, Double]().withDefaultValue(0.0)
    passes.foreach { case (rec, spans) =>
      rec.counts.foreach { case (k, v) => sums(k) += v }
      val self = Trace.selfNs(spans)
      spans.foreach { s =>
        spanMetric.get(s.name).foreach { case (metric, unitS) =>
          val v = self(s.id) / 1e9 / unitS
          sums(metric) += v
          if (s.tag.nonEmpty) sums(s"$metric.${s.tag}") += v
        }
      }
    }
    def ratio(a: String, b: String): Double = if (sums(b) == 0.0) 0.0 else sums(a) / sums(b)
    val derived = Map(
      "ilp.cost_over_shared" -> ratio("ilp.mqo_cost", "ilp.shared_total"),
      "sim.msgs_per_s" -> ratio("sim.msgs", "sim.self_s"),
      "sim.match_ratio" -> ratio("sim.matches", "sim.tuples_sent"),
      "sim.reopt_ms_p50" -> (if (epochMs.isEmpty) 0.0 else Summary.median(epochMs)),
    ) ++ ("" +: shapes.map("." + _)).map(t =>
      s"ilp.budget_exhausted$t" -> ratio(s"ilp.budget_exhausted$t", s"ilp.solves$t")) ++
      ("" +: scenarios.map("." + _)).map(t =>
        s"sim.latency_ms$t" -> ratio(s"sim.latency_sum_ms$t", s"sim.latency_n$t"))
    val means = sums.view.mapValues(_ / n).toMap
    perLayer.map { case (name, _) => name -> derived.getOrElse(name, means.getOrElse(name, 0.0)) }.toMap
  }
}
