package repro.perfbench

/** A timing sample summarised as its median and the highest of the standard
  * percentiles that still has at least ten samples beyond it.
  */
final case class Summary(n: Int, p50: Double, high: Option[(Double, Double)]) {
  def describe(unit: String): String = {
    val hi = high.map { case (p, v) => f", p${Summary.label(p)}=${v}%.4f $unit" }.getOrElse("")
    f"p50=$p50%.4f $unit$hi (n=$n)"
  }
}

object Summary {

  val Percentiles: Seq[Double] = Seq(0.999, 0.99, 0.9)

  /** Linear interpolation between closest ranks; the median of an even count
    * is the mean of the two middle values.
    */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    require(q >= 0.0 && q <= 1.0, s"quantile $q outside [0, 1]")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def of(xs: Seq[Double]): Summary = {
    val n = xs.size
    val high = Percentiles.find(p => n * (1.0 - p) >= 10.0 - 1e-9).map(p => p -> quantile(xs, p))
    Summary(n, median(xs), high)
  }

  def label(p: Double): String = {
    val s = Json.num(p * 100)
    s.stripSuffix(".0")
  }
}
