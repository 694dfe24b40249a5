package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Runs one workload: set-up (at least three times, median reported), one warm-up
  * pass, then measured passes for about `--seconds`. Prints an environment
  * block, each metric with its unit, any failed checks, and as its last line
  * the JSON result. With `--trace 1` it alternates untraced and traced passes
  * and reports the per-layer metrics instead of the end-to-end ones.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1
  *             [--out DIR] [--revision REV]
  */
object Main {

  val SetupReps = 3

  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        out: String, revision: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.all.find(_.name == need("workload")).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload ${need("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Opts(wl, need("seed").toLong, seconds, trace, kv.getOrElse("out", ".bench_build"),
         kv.getOrElse("revision", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    sys.exit(code) // Spark leaves non-daemon threads behind
  }

  private def newSession(out: String): SparkSession = {
    val n = Workloads.threads
    SparkSession.builder()
      .master(s"local[$n]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", n.toString)
      .config("spark.sql.warehouse.dir", Paths.get(out, "spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(o: Opts): Unit = {
    val wl = o.workload
    val rt = Runtime.getRuntime
    println(s"# workload: ${wl.name}")
    println(s"# seed: ${o.seed}  seconds: ${o.seconds}  trace: ${if (o.trace) 1 else 0}")
    println(s"# nproc: ${rt.availableProcessors()}")
    println(s"# jvm: ${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}")
    println(f"# -Xmx: ${rt.maxMemory() / (1024.0 * 1024 * 1024)}%.2f GiB")
    println(s"# revision: ${o.revision}")

    // one tracer for every traced span of the run; trace ids tell passes apart
    val tracer = new Tracer(o.trace)
    val off = new Tracer(false)

    var spark: Option[SparkSession] = None
    try {
      val setupS = mutable.ArrayBuffer[Double]()
      val genS = mutable.ArrayBuffer[Double]()
      var prepared: Prepared = null
      // cheap set-ups repeat until they add up to a second, so their median is steady
      while (setupS.size < SetupReps || (setupS.sum < 1.0 && setupS.size < 25)) {
        val id = tracer.newTrace()
        val t0 = System.nanoTime()
        tracer.span("bench.setup") {
          if (wl.usesSpark) {
            spark.foreach(_.stop())
            spark = Some(newSession(o.out))
          }
          prepared = wl.setup(o.seed, spark, tracer)
        }
        setupS += secondsSince(t0)
        val parts = tracer.spans.filter(s => s.trace == id && s.parent >= 0).groupMapReduce(_.name)(_.durNs / 1e9)(_ + _)
        genS += parts.getOrElse("data.gen", 0.0)
        if (o.trace) println(f"# set-up: ${setupS.last}%.3f s" +
          parts.toVector.sorted.map { case (k, v) => f", $k $v%.3f s" }.mkString)
      }
      spark.foreach(s => println(s"# spark: ${s.version} master ${s.sparkContext.master}"))

      def pass(t: Tracer): (Double, PassRecord, Vector[Span]) = {
        System.gc()
        val id = t.newTrace()
        val rec = new PassRecord
        val t0 = System.nanoTime()
        t.span("bench.pass")(prepared.pass(t, rec))
        (secondsSince(t0), rec, t.spans.filter(_.trace == id))
      }

      val warm = pass(off)
      val passes = mutable.ArrayBuffer[(Double, PassRecord, Vector[Span], Boolean)]()
      val t0 = System.nanoTime()
      val minPasses = if (o.trace) 2 else 1
      // start another pass while it is expected to end nearer the budget than not
      while (passes.size < minPasses || secondsSince(t0) + passes.last._1 / 2 < o.seconds) {
        val traced = o.trace && passes.size % 2 == 1
        val (w, rec, spans) = pass(if (traced) tracer else off)
        passes += ((w, rec, spans, traced))
      }

      val recs = warm._2 +: passes.map(_._2).toVector
      val attempted = recs.map(_.ops).sum
      val failed = recs.map(_.failed).sum
      val untraced = passes.filterNot(_._4)
      val walls = untraced.map(_._1).toVector
      val planMs = untraced.flatMap(_._2.planMs).toVector

      println(f"# passes: 1 warm-up + ${passes.size} measured in ${secondsSince(t0)}%.1f s; pass s: " +
        (warm +: passes.map(p => (p._1, p._2, p._3))).map(p => f"${p._1}%.3f").mkString(" "))
      val metrics: Vector[(String, Double, String)] =
        if (!o.trace) {
          println(s"# setup_s: ${Summary.of(setupS.toVector).describe("s")}")
          println(s"# wall_s: ${Summary.of(walls).describe("s")}")
          println(s"# plan_ms: ${Summary.of(planMs).describe("ms")}")
          val v = Map("setup_s" -> Summary.median(setupS.toVector), "wall_s" -> Summary.median(walls),
                      "plan_ms_p50" -> Summary.median(planMs))
          Catalogue.endToEnd.map(m => (m.name, v(m.name), m.unit))
        } else {
          val traced = passes.filter(_._4)
          val epochMs = traced.flatMap(_._2.epochMs).toVector
          val layer = Catalogue.perLayerValues(traced.map(p => (p._2, p._3)).toVector, epochMs)
          val tracedWall = Summary.median(traced.map(_._1).toVector)
          val untracedWall = Summary.median(walls)
          val roots = traced.flatMap(_._3.filter(_.name == "bench.pass"))
          val attributed = traced.map { case (_, _, spans, _) =>
            val self = Trace.selfNs(spans)
            spans.filter(s => Catalogue.spanMetric.contains(s.name) && s.layer != "bench").map(s => self(s.id)).sum
          }.sum.toDouble
          val extra = Map(
            "data.gen_s" -> Summary.median(genS.toVector),
            "trace.wall_s" -> tracedWall,
            "trace.untraced_wall_s" -> untracedWall,
            "trace.overhead" -> (tracedWall / untracedWall - 1.0),
            "trace.attributed_share" -> attributed / math.max(1L, roots.map(_.durNs).sum),
            "trace.spans" -> traced.map(_._3.size).sum.toDouble / traced.size,
            "trace.passes" -> traced.size.toDouble,
          )
          writeSpans(o, tracer.spans)
          Catalogue.perLayer.map { case (name, unit) => (name, extra.getOrElse(name, layer(name)), unit) }
        }

      metrics.foreach { case (n, v, u) => println(f"$n%-28s $v%16.6f $u") }
      recs.flatMap(_.failures).take(20).foreach(f => println(s"# FAILED $f"))
      println(s"# checks: $failed of $attempted operations failed")
      val json = Json.obj(
        "correct" -> (failed == 0),
        "attempted" -> attempted,
        "failed" -> failed,
        "metrics" -> Json.Raw(Json.obj(metrics.map { case (n, v, u) =>
          n -> Json.Raw(Json.obj("value" -> v, "unit" -> u)) }: _*)),
      )
      println(json)
    } finally spark.foreach(_.stop())
  }

  private def writeSpans(o: Opts, spans: Seq[Span]): Unit = {
    val dir = Paths.get(o.out, "spans")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${o.workload.name}-seed${o.seed}.jsonl")
    Files.write(file, spans.map(_.json).mkString("", "\n", "\n").getBytes("UTF-8"))
    println(s"# spans: ${spans.size} written to $file")
  }
}
