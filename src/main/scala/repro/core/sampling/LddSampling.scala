package repro.core.sampling

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.SparkSession
import repro.core.{Frontier, Par, RunCtx}
import repro.graph.{GraphGen, HostGraph}

/** Low-diameter decomposition sampling (Algorithm 6): one round of the
  * Miller–Peng–Xu decomposition with parameter beta.
  *
  * Every vertex draws a shift delta_v ~ Exp(beta); at (integer) time
  * floor(delta_v) an unclaimed vertex starts its own cluster, and all
  * cluster frontiers expand one BFS hop per time step, claiming unclaimed
  * vertices. The result is a clustering where each cluster has strong
  * diameter O(log n / beta) and ~beta*m edges are cut in expectation.
  * The emitted labeling maps each vertex to its cluster center
  * (height-1 trees; normalization to cluster minima happens in
  * ConnectIt.sampleAndNormalize).
  */
object LddSampling {

  /** Run LDD sampling in its own gang run: a benchmark hook, as callers
    * that run the sampling phase use `ConnectIt.sampleAndNormalize`.
    */
  def sample(spark: SparkSession, g: HostGraph, ctx: RunCtx,
             beta: Double, permute: Boolean, seed: Long): Unit =
    Par.gang(spark, ctx.id)(new Kernel(g, ctx, beta, permute, seed))

  /** MPX shift delta_v ~ Exp(beta) of vertex v. */
  private[core] def shift(v: Int, beta: Double, permute: Boolean, seed: Long): Double = {
    val key = if (permute) (GraphGen.mix(seed ^ (v * 0x9E3779B9L)) >>> 1) else v.toLong
    -math.log(1.0 - GraphGen.u01(seed, key, 77)) / beta
  }

  /** The round floor(dmax - s) in which a vertex with shift `s` starts its
    * own cluster unless claimed by then (`dmax`: the largest shift).
    */
  private[core] def startRound(s: Double, dmax: Double): Int = (dmax - s).toInt

  /** Task-side kernel: [[Frontier]] rounds, each a one-hop expansion of
    * every cluster frontier; between rounds task 0 wakes the next round's
    * centers.
    */
  final class Kernel(g: HostGraph, ctx: RunCtx, beta: Double, permute: Boolean,
                     seed: Long) extends Frontier.Kernel with (Par.Task => Unit) {
    private val n = g.n
    private val shifts = new Array[Double](n)
    /** Bits of the largest shift; non-negative doubles order as longs. */
    private val dmaxBits = new AtomicLong(0L)
    private val bucketOf = new Array[Int](n)
    /** Vertices by start round (ascending id within a round): round r's
      * centers are order(bucketStart(r) until bucketStart(r + 1)).
      */
    private val order = new Array[Int](n)
    private var bucketStart: Array[Int] = _
    private val claim = new Frontier.Claim(ctx)
    private val f = new Frontier(g, ctx.parents)
    /** Task 0's round state: the next round to wake, and the vertices claimed so far. */
    private var round = 0
    private var claimedCount = 0

    def apply(t: Par.Task): Unit = {
      val (lo, hi) = t.range(n)
      var localMax = 0.0
      var v = lo
      while (v < hi) {
        val s = shift(v, beta, permute, seed)
        shifts(v) = s
        if (s > localMax) localMax = s
        v += 1
      }
      dmaxBits.accumulateAndGet(java.lang.Double.doubleToLongBits(localMax), math.max)
      t.sync()
      val dmax = java.lang.Double.longBitsToDouble(dmaxBits.get())
      v = lo
      while (v < hi) { bucketOf(v) = startRound(shifts(v), dmax); v += 1 }
      t.sync()
      f.rounds(t, claim, this)(sortByBucket(dmax.toInt))
    }

    /** Stable counting sort of the vertices by start round, the last
      * being `maxBucket`.
      */
    private def sortByBucket(maxBucket: Int): Unit = {
      val start = new Array[Int](maxBucket + 2)
      var v = 0
      while (v < n) { start(bucketOf(v) + 1) += 1; v += 1 }
      var b = 0
      while (b <= maxBucket) { start(b + 1) += start(b); b += 1 }
      val cursor = java.util.Arrays.copyOf(start, maxBucket + 1)
      v = 0
      while (v < n) { val b = bucketOf(v); order(cursor(b)) = v; cursor(b) += 1; v += 1 }
      bucketStart = start
    }

    /** Task 0: add this round's unclaimed centers (label already == self)
      * to the frontier, then decide whether another round is due.
      */
    def endRound(): Boolean = {
      if (round + 1 < bucketStart.length) {
        var i = bucketStart(round)
        while (i < bucketStart(round + 1)) {
          val c = order(i)
          // most members of the late, large buckets are claimed already
          if (claim.claimed.get(c) == 0 && claim.claimed.compareAndSet(c, 0, 1)) f.add(c)
          i += 1
        }
      }
      round += 1
      claimedCount += f.size // a vertex joins the frontier once, in the round that claims it
      claimedCount < n || f.size > 0
    }
  }
}
