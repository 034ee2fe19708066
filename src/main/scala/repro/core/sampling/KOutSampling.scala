package repro.core.sampling

import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.core.uf.{AtomicOps, UnionFind}
import repro.graph.{GraphGen, HostGraph}

/** k-out sampling (Algorithm 4, Appendix C.3 variants).
  *
  * Selects up to k edges out of each vertex (per the chosen variant),
  * contracts them with a concurrent union-find (UF-Rem-CAS with
  * SplitAtomicOne — the paper's workhorse), then fully compresses the
  * parents array so the emitted labeling is a set of height-1 trees
  * rooted at component minima (Definition 3.1 requirement (1)).
  */
object KOutSampling {

  /** Run k-out sampling in its own gang job: a benchmark hook, as
    * callers that run the sampling phase use `ConnectIt.sampleAndNormalize`.
    */
  def sample(spark: SparkSession, g: HostGraph, ctx: RunCtx,
             k: Int, variant: KOutVariant, seed: Long): Unit =
    Par.gang(spark, ctx.id)(kernel(g, ctx, k, variant, seed))

  /** Task-side kernel: a vertex-parallel round of unions, then a round
    * that fully compresses the components array (Alg 4 line 4).
    */
  def kernel(g: HostGraph, ctx: RunCtx, k: Int, variant: KOutVariant,
             seed: Long): Par.Task => Unit = { t =>
    val opt = UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)
    @inline def randomNeighbour(v: Int, off: Int, deg: Int, j: Int): Int =
      g.targets(off + ((GraphGen.mix(seed ^ GraphGen.mix(v.toLong * 131 + j)) >>> 1) % deg).toInt)
    t.forDynamic(g.n) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        val off = g.offsets(v)
        val deg = g.offsets(v + 1) - off
        if (deg > 0) {
          variant match {
            case KOutAfforest =>
              var j = 0
              while (j < k && j < deg) {
                UnionFind.union(ctx, opt, v, g.targets(off + j)); j += 1
              }
            case KOutPure =>
              var j = 0
              while (j < k) { UnionFind.union(ctx, opt, v, randomNeighbour(v, off, deg, j)); j += 1 }
            case KOutHybrid =>
              UnionFind.union(ctx, opt, v, g.targets(off))
              var j = 1
              while (j < k) { UnionFind.union(ctx, opt, v, randomNeighbour(v, off, deg, j)); j += 1 }
            case KOutMaxDeg =>
              // reduce over all neighbours for the max-degree endpoint
              var best = g.targets(off); var bestDeg = -1
              var j = 0
              while (j < deg) {
                val w = g.targets(off + j)
                val d = g.offsets(w + 1) - g.offsets(w)
                if (d > bestDeg) { bestDeg = d; best = w }
                j += 1
              }
              UnionFind.union(ctx, opt, v, best)
              j = 1
              while (j < k) { UnionFind.union(ctx, opt, v, randomNeighbour(v, off, deg, j)); j += 1 }
          }
        }
        v += 1
      }
    }
    val (lo, hi) = t.range(ctx.n)
    var v = lo
    while (v < hi) { ctx.parents.set(v, AtomicOps.findNaive(ctx, v)); v += 1 }
    t.sync()
  }
}
