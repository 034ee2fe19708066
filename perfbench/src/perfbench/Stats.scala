package perfbench

/** Order statistics for every reported timing (nearest-rank). */
object Stats {

  /** Zero-based index of the nearest-rank p-quantile among n sorted
    * samples. The epsilon keeps 0.9 * 100 from rounding up to rank 91.
    */
  private def rank(n: Int, p: Double): Int =
    math.max(0, math.ceil(p * n - 1e-9).toInt - 1)

  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(rank(xs.length, p))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Samples ranked strictly above the p-quantile of n samples. */
  def beyond(n: Int, p: Double): Int = n - 1 - rank(n, p)

  /** A percentile is meaningful only with at least ten samples beyond it:
    * a p90 needs 100 samples, a p50 needs 20.
    */
  def valid(n: Int, p: Double): Boolean = n > 0 && beyond(n, p) >= 10

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}
