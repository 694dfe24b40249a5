package repro.perfbench

import scala.collection.mutable

/** One timed call into a layer. `parent` is -1 for a root span; every span of
  * one pass carries that pass's `trace` id. `tag` names the instance shape or
  * scenario the call belongs to ("" when the workload does not mix them).
  */
final case class Span(id: Int, parent: Int, trace: Int, name: String, tag: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs

  /** The layer is the part of the name before the first dot (`core.build` → `core`). */
  def layer: String = name.takeWhile(_ != '.')

  def json: String = Json.obj(
    "trace" -> trace, "id" -> id, "parent" -> parent, "name" -> name, "tag" -> tag,
    "start_ns" -> startNs, "end_ns" -> endNs)
}

/** Records spans around the benchmark's calls into the program, in memory.
  * When disabled, `span` only runs its body, so untraced passes pay nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0
  private var traceId = -1

  def spans: Vector[Span] = done.toVector

  /** Start a new trace: spans opened from here on share a fresh trace id. */
  def newTrace(): Int = { traceId += 1; traceId }

  def span[T](name: String, tag: String = "")(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, traceId, name, tag, t0, System.nanoTime())
        open = open.tail
      }
    }
}

object Trace {

  /** Length of the union of the intervals `[s, e)`, each clipped to `[lo, hi)`. */
  def coveredNs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time of each span: its duration minus the part of its interval that
    * its child spans cover.
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (c.startNs, c.endNs))
      s.id -> (s.durNs - coveredNs(kids, s.startNs, s.endNs))
    }.toMap
  }
}
