package repro.core.sampling

import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.graph.{Edge, GraphGen, HostGraph}

/** k-out sampling (Algorithm 4, Appendix C.3 variants) as Afforest link
  * rounds (Sutton, Ben-Nun & Barak, IPDPS 2018, the paper's [104]).
  *
  * Each vertex picks up to k neighbours. KOutAfforest's pick j is its
  * j-th neighbour. For the other variants pick 0 is the variant's own
  * (Hybrid: the smallest neighbour; MaxDeg: the one of largest degree;
  * Pure: a random one) and later picks are random. Round j links every
  * vertex to its j-th pick, so the sampled partition is the components
  * of the picked edges, as under any union order. Round 0 also draws
  * every later pick and stores it, so each vertex's neighbours are read
  * once: on Table 3b's 2M-vertex, 80M-edge graph, whose neighbour lists
  * do not fit in the cache, drawing each pick in its own round had the
  * kernel at 79-95 ms on 4 tasks, against 59-63 ms with stored picks.
  *
  * The link is Afforest's: it starts from the two endpoints' parents and
  * hooks the larger under the smaller by a CAS only where the larger is
  * a root; otherwise it steps both sides up (two hops on the larger, one
  * on the smaller). It never writes a non-root, and a hook goes from a
  * larger id to a smaller one, so parent(x) <= x holds throughout.
  *
  * Alg 4's per-round compress is in the kernel. Round 0 ends in a full
  * compress: each task points every vertex of its static share at its
  * root and keeps the roots it met, in its share, in a task-local list.
  * Every later hook hooks one of those roots, so after each sub-round
  * (below) every task re-points its own listed roots at their current
  * root, and any vertex is again about one hop from its root. The trees
  * left at the end may still be of any height: normalization
  * (`ConnectIt.sampleAndNormalize`) relabels them as height-1 trees rooted
  * at component minima (Definition 3.1 requirement (1)).
  *
  * Why links and compresses, not union-find unions: UF-Rem-CAS with
  * SplitAtomicOne CASes every parent slot its walk passes, and most walks
  * pass the few thousand low-id roots, so all tasks write the same cache
  * lines. On the 2^18-vertex uniform graph (k = 2, Hybrid; 4 vCPUs), a
  * kernel of such unions took 10.1-13.0 ms on 4 tasks and 16.2-20.7 ms on
  * 1 for about 2n unions; this one, whose hot slots are only read, took
  * 5.6-6.8 ms and 9.8-13.1 ms (medians of 41 warm runs, in three
  * interleaved pairs of JVMs on a shared host).
  */
object KOutSampling {

  /** Vertex-range sub-rounds of each round after the first. Between
    * them the tasks re-point their listed roots, so a round's walks stay
    * short however many hooks it makes, and each costs a barrier and a
    * pass over the listed roots. On the 2^18-vertex uniform graph (k = 2,
    * Hybrid; 4 vCPUs), as the median of 41 warm runs in each of three
    * interleaved JVMs, the kernel took on 4 tasks / on 1 task:
    * {{{
    *   sub-rounds   4 tasks ms          1 task ms
    *   1            7.30 / 8.50 / 9.09  14.9 / 18.2 / 21.0
    *   4            5.42 / 7.81 / 7.83   9.7 / 12.9 / 17.8
    *   16           5.61 / 6.44 / 6.75   9.8 / 10.9 / 13.1
    *   64           6.01 / 8.44 / 9.17  11.0 / 12.1 / 18.5
    * }}}
    */
  private val SubRounds = 16

  /** Run k-out sampling in its own gang run: a benchmark hook, as
    * callers that run the sampling phase use `ConnectIt.sampleAndNormalize`.
    */
  def sample(spark: SparkSession, g: HostGraph, ctx: RunCtx,
             k: Int, variant: KOutVariant, seed: Long): Unit =
    Par.gang(spark, ctx.id)(kernel(g, ctx, k, variant, seed))

  /** Task-side kernel: k link rounds with their compresses, each round
    * (or sub-round) a dynamically claimed vertex loop ending in a barrier.
    */
  def kernel(g: HostGraph, ctx: RunCtx, k: Int, variant: KOutVariant,
             seed: Long): Par.Task => Unit = {
    // picks 1 to k - 1 of every vertex, drawn in round 0 while its
    // neighbours are in cache
    val later = Array.fill(k - 1)(new Array[Int](g.n))
    t => {
      val p = ctx.parents
      val forest = ctx.forest
      def randomNeighbour(v: Int, off: Int, deg: Int, j: Int): Int =
        g.targets(off + ((GraphGen.mix(seed ^ GraphGen.mix(v.toLong * 131 + j)) >>> 1) % deg).toInt)
      def maxDegNeighbour(off: Int, deg: Int): Int = { // the first among equals
        var best = g.targets(off)
        var j = off + 1
        while (j < off + deg) {
          if (g.degree(g.targets(j)) > g.degree(best)) best = g.targets(j)
          j += 1
        }
        best
      }
      /** v's j-th pick, or -1 if it has none. */
      def pick(v: Int, j: Int): Int = {
        val off = g.offsets(v)
        val deg = g.offsets(v + 1) - off
        if (deg == 0) -1
        else variant match {
          case KOutAfforest => if (j < deg) g.targets(off + j) else -1
          case KOutHybrid if j == 0 => g.targets(off)
          case KOutMaxDeg if j == 0 => maxDegNeighbour(off, deg)
          case _ => randomNeighbour(v, off, deg, j)
        }
      }
      def link(u: Int, v: Int): Unit = {
        var p1 = p.get(u)
        var p2 = p.get(v)
        while (p1 != p2) {
          val high = math.max(p1, p2)
          val low = math.min(p1, p2)
          val pHigh = p.get(high)
          if (pHigh == low) return // already in one tree
          if (pHigh == high && p.compareAndSet(high, high, low)) {
            if (forest != null) forest.set(high, Edge.pack(u, v))
            return
          }
          p1 = p.get(p.get(high))
          p2 = p.get(low)
        }
      }
      // one loop body for every round, so k-out passes forDynamic one class
      var j = 0
      var base = 0
      val linkRange: (Int, Int) => Unit = { (lo, hi) =>
        val round = j
        var v = base + lo
        val end = base + hi
        if (round == 0) while (v < end) {
          val w = pick(v, 0)
          if (w >= 0) link(v, w)
          var i = 1
          while (i < k) { later(i - 1)(v) = pick(v, i); i += 1 }
          v += 1
        } else {
          val picks = later(round - 1)
          while (v < end) {
            val w = picks(v)
            if (w >= 0) link(v, w)
            v += 1
          }
        }
      }
      t.forDynamic(g.n)(linkRange)
      // round 0's compress, in plain stores that the barrier publishes (no
      // task hooks until after it); every later hook hooks a root met here
      val (lo, hi) = t.range(g.n)
      var roots = new Array[Int](64)
      var nRoots = 0
      var v = lo
      while (v < hi) {
        val r = ctx.root(v)
        if (r == v) {
          if (nRoots == roots.length) roots = java.util.Arrays.copyOf(roots, 2 * nRoots)
          roots(nRoots) = v
          nRoots += 1
        } else if (p.get(v) != r) p.setPlain(v, r)
        v += 1
      }
      t.sync()
      j = 1
      while (j < k) {
        var s = 0
        while (s < SubRounds) {
          base = (g.n.toLong * s / SubRounds).toInt
          t.forDynamic((g.n.toLong * (s + 1) / SubRounds).toInt - base)(linkRange)
          var i = 0
          while (i < nRoots) {
            val x = roots(i)
            val r = ctx.root(x)
            if (r != x && p.get(x) != r) p.set(x, r)
            i += 1
          }
          s += 1
        }
        j += 1
      }
    }
  }
}
