package repro.core.sampling

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicLong}
import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.graph.{Edge, GraphGen, HostGraph}

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

  /** Run LDD sampling in its own gang job: a benchmark hook, as callers
    * that run the sampling phase use `ConnectIt.sampleAndNormalize`.
    */
  def sample(spark: SparkSession, g: HostGraph, ctx: RunCtx,
             beta: Double, permute: Boolean, seed: Long): Unit =
    Par.gang(spark, ctx.id)(new Kernel(g, ctx, beta, permute, seed))

  /** Task-side kernel. Rounds alternate a parallel one-hop expansion of
    * every cluster frontier with a task-0 step that advances the frontier
    * and wakes the next round's centers.
    */
  final class Kernel(g: HostGraph, ctx: RunCtx, beta: Double, permute: Boolean,
                     seed: Long) extends (Par.Task => Unit) {
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
    private val claimed = new AtomicIntegerArray(n)
    private val claimedCount = new AtomicInteger(0)
    private val f = new Frontier(n)
    /** Whether another round is due; written by task 0 between barriers. */
    private var more = true

    def apply(t: Par.Task): Unit = {
      // MPX start times: s_v = delta_max - delta_v with delta_v ~ Exp(beta)
      // — the few vertices with the LARGEST shifts wake up first and their
      // clusters claim almost everything before the rest start.
      val (lo, hi) = t.range(n)
      var localMax = 0.0
      var v = lo
      while (v < hi) {
        val key = if (permute) (GraphGen.mix(seed ^ (v * 0x9E3779B9L)) >>> 1) else v.toLong
        val s = -math.log(1.0 - GraphGen.u01(seed, key, 77)) / beta
        shifts(v) = s
        if (s > localMax) localMax = s
        v += 1
      }
      dmaxBits.accumulateAndGet(java.lang.Double.doubleToLongBits(localMax), math.max)
      t.sync()
      // Bucket vertices by integer start time. The exponential tail is
      // capped; anything beyond the cap starts at the cap round.
      val dmax = java.lang.Double.longBitsToDouble(dmaxBits.get())
      val maxBucket = math.max(4, dmax.toInt + 1)
      v = lo
      while (v < hi) { bucketOf(v) = math.min(maxBucket, (dmax - shifts(v)).toInt); v += 1 }
      t.sync()
      t.single { sortByBucket(maxBucket); wake(0) }
      var round = 0
      while (more) {
        // expand all cluster frontiers one hop; the barrier that ends it
        // also orders every task's reads of `f.size` and `more` before
        // task 0 rewrites them
        val fsz = f.size
        if (fsz == 0) t.sync()
        else t.forDynamic(fsz, 256) { (lo, hi) =>
          var buf = new Array[Int](256)
          var len = 0
          var fi = lo
          while (fi < hi) {
            val u = f.cur(fi)
            val lab = ctx.parents.get(u)
            val off = g.offsets(u); val end = g.offsets(u + 1)
            var j = off
            while (j < end) {
              val w = g.targets(j)
              if (claimed.get(w) == 0 && claimed.compareAndSet(w, 0, 1)) {
                ctx.parents.set(w, lab)
                val fo = ctx.forest
                if (fo != null) fo.set(w, Edge.pack(u, w))
                if (len == buf.length) buf = java.util.Arrays.copyOf(buf, len * 2)
                buf(len) = w; len += 1
              }
              j += 1
            }
            fi += 1
          }
          claimedCount.addAndGet(len)
          f.publish(buf, len)
        }
        round += 1
        t.single { f.advance(); wake(round) }
      }
    }

    /** Stable counting sort of the vertices by start round. */
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

    /** Task 0: start round r's unclaimed centers (label already == self)
      * as frontier vertices, then decide whether another round is due.
      */
    private def wake(r: Int): Unit = {
      if (r + 1 < bucketStart.length) {
        var i = bucketStart(r)
        while (i < bucketStart(r + 1)) {
          val c = order(i)
          if (claimed.compareAndSet(c, 0, 1)) {
            if (f.cur.length < f.size + 1)
              f.cur = java.util.Arrays.copyOf(f.cur, math.max(16, 2 * (f.size + 1)))
            f.cur(f.size) = c; f.size += 1
            claimedCount.incrementAndGet()
          }
          i += 1
        }
      }
      more = claimedCount.get() < n || f.size > 0
    }
  }
}
