package repro.perfbench

/** Minimal JSON rendering for the result line and the span file. */
object Json {

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }

  /** A number with all its digits. NaN and infinities have no JSON form. */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case b: Boolean => b.toString
    case i: Int     => i.toString
    case l: Long    => l.toString
    case d: Double  => num(d)
    case Raw(s) => s
    case other => throw new IllegalArgumentException(s"no JSON form for $other")
  }

  /** An object whose keys keep the given order. */
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  /** Already-rendered JSON, embedded as is. */
  final case class Raw(json: String)
}
