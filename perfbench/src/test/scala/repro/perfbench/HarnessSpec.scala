package repro.perfbench

import org.json4s.jackson.JsonMethods.parse
import org.json4s.{DefaultFormats, Formats}
import org.scalatest.funsuite.AnyFunSuite
import scala.io.Source

class HarnessSpec extends AnyFunSuite {

  test("median interpolates between the two middle values") {
    assert(Summary.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Summary.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Summary.quantile(Seq(0.0, 10.0), 0.9) == 9.0)
  }

  test("the high percentile needs ten samples beyond it, and the count is kept") {
    val small = Summary.of((1 to 19).map(_.toDouble))
    assert(small.n == 19 && small.p50 == 10.0 && small.high.isEmpty)
    val hundred = Summary.of((1 to 100).map(_.toDouble))
    assert(hundred.n == 100)
    assert(hundred.high.map(_._1).contains(0.9))
    assert(math.abs(hundred.high.get._2 - 90.1) < 1e-9)
    val thousand = Summary.of((1 to 1000).map(_.toDouble))
    assert(thousand.high.map(_._1).contains(0.99))
    assert(Summary.label(0.999) == "99.9" && Summary.label(0.9) == "90")
    assert(thousand.describe("ms").contains("p99=") && thousand.describe("ms").contains("(n=1000)"))
    assertThrows[IllegalArgumentException](Summary.of(Nil))
  }

  private def span(id: Int, parent: Int, s: Long, e: Long, name: String = "x") =
    Span(id, parent, 0, name, "", s, e)

  test("self time subtracts the union of the children, clipped to the parent") {
    val spans = Seq(
      span(0, -1, 0, 100),
      span(1, 0, 10, 30),
      span(2, 0, 20, 40),   // overlaps its sibling: 10..40 is covered once
      span(3, 0, 90, 120),  // runs past the parent: only 90..100 counts
      span(4, 1, 12, 18),   // a grandchild counts against its own parent only
    )
    val self = Trace.selfNs(spans)
    assert(self(0) == 100 - 30 - 10)
    assert(self(1) == 20 - 6)
    assert(self(2) == 20 && self(3) == 30 && self(4) == 6)
    assert(Trace.coveredNs(Seq((0L, 5L), (5L, 7L), (9L, 10L)), 0, 100) == 8)
    assert(Trace.coveredNs(Nil, 0, 100) == 0)
  }

  test("tracer nests spans, shares a trace id per pass, and costs nothing when off") {
    val t = new Tracer(true)
    val id = t.newTrace()
    val r = t.span("bench.pass")(t.span("core.build", "wide")(41) + 1)
    assert(r == 42)
    val Vector(inner, outer) = t.spans
    assert(inner.parent == outer.id && outer.parent == -1)
    assert(inner.trace == id && outer.trace == id && inner.layer == "core" && inner.tag == "wide")
    assert(inner.startNs >= outer.startNs && inner.endNs <= outer.endNs)
    val off = new Tracer(false)
    assert(off.span("core.build")(7) == 7 && off.spans.isEmpty)
    // a span is closed even when its body throws
    intercept[RuntimeException](t.span("sim.run")(throw new RuntimeException("x")))
    assert(t.spans.last.name == "sim.run")
  }

  test("per-layer values: self times per pass, ratios over sums, zeros where unused") {
    val rec = new PassRecord
    rec.add("sim.msgs", 500, "fig8a")
    rec.add("sim.matches", 30)
    rec.add("sim.tuples_sent", 60)
    rec.add("ilp.solves", 2, "dense")
    rec.add("ilp.budget_exhausted", 1, "dense")
    val ms = 1000000L
    val spans = Vector(
      span(0, -1, 0, 10 * ms, "bench.pass"),
      Span(1, 0, 0, "sim.run", "fig8a", 0, 5000 * ms / 1000),
      Span(2, 1, 0, "sim.ctrl", "fig8a", 0, 1000 * ms / 1000),
    )
    val v = Catalogue.perLayerValues(Seq(rec -> spans, rec -> spans), Seq(3.0, 1.0, 2.0))
    assert(v.keySet == Catalogue.perLayer.map(_._1).toSet)
    assert(math.abs(v("sim.self_s") - 0.004) < 1e-12 && math.abs(v("sim.self_s.fig8a") - 0.004) < 1e-12)
    assert(math.abs(v("sim.ctrl_ms") - 1.0) < 1e-9)
    assert(math.abs(v("bench.self_ms") - 5.0) < 1e-9)
    assert(v("sim.msgs") == 500 && v("sim.msgs.fig8a") == 500 && v("sim.msgs.fig8b") == 0)
    assert(v("sim.match_ratio") == 0.5)
    assert(math.abs(v("sim.msgs_per_s") - 1000.0 / 0.008) < 1e-6)
    assert(v("ilp.budget_exhausted.dense") == 0.5 && v("ilp.budget_exhausted.wide") == 0.0)
    assert(v("sim.reopt_ms_p50") == 2.0)
    assert(v("runtime.count_ms") == 0.0)
  }

  test("a failed check or a throwing operation counts as a failed operation") {
    val rec = new PassRecord
    assert(rec.op("ok")(1)(_ => None).contains(1))
    assert(rec.op("bad check")(2)(x => Some(s"got $x")).contains(2))
    assert(rec.op[Int]("throws")(throw new IllegalStateException("boom"))(_ => None).isEmpty)
    assert(rec.ops == 3 && rec.failed == 2)
    assert(rec.failures == Seq("bad check: got 2", "throws: threw java.lang.IllegalStateException: boom"))
  }

  test("JSON output: escaping, full-precision numbers, no NaN, key order kept") {
    assert(Json.str("a\"b\\c\n\u0001") == "\"a\\\"b\\\\c\\n\\u0001\"")
    assert(Json.num(3.0) == "3" && Json.num(1.2034) == "1.2034" && Json.num(0.1 + 0.2) == "0.30000000000000004")
    assert(Json.num(1e-7) == "1.0E-7")
    assertThrows[IllegalArgumentException](Json.num(Double.NaN))
    assertThrows[IllegalArgumentException](Json.num(Double.PositiveInfinity))
    val line = Json.obj("correct" -> true, "attempted" -> 3, "failed" -> 0,
                        "metrics" -> Json.Raw(Json.obj("wall_s" -> Json.Raw(Json.obj("value" -> 1.5, "unit" -> "s")))))
    assert(line == """{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}""")
  }

  test("BENCHMARK.json names exactly the metrics the harness reports") {
    import HarnessSpec._
    implicit val formats: Formats = DefaultFormats
    val src = Source.fromFile(new java.io.File("../BENCHMARK.json"), "UTF-8")
    val json = try parse(src.mkString) finally src.close()
    val e2e = (json \ "end_to_end").extract[List[EndToEndEntry]]
    assert(e2e.map(e => (e.name, e.unit, e.bound)) == Catalogue.endToEnd.map(m => (m.name, m.unit, m.bound)))
    assert(e2e.forall(_.better == "lower"))
    val layer = (json \ "per_layer").extract[List[PerLayerEntry]]
    assert(layer.map(e => (e.name, e.unit)) == Catalogue.perLayer)
    assert(layer.filter(_.better == "higher").map(_.name).toSet == Catalogue.higherIsBetter)
    assert(layer.forall(e => Set("higher", "lower")(e.better)))
    assert((json \ "workloads").extract[List[WorkloadEntry]].map(_.name) == Workloads.all.map(_.name))
  }
}

object HarnessSpec {
  final case class EndToEndEntry(name: String, unit: String, better: String, bound: Double)
  final case class PerLayerEntry(name: String, unit: String, better: String)
  final case class WorkloadEntry(name: String, why: String)
}
