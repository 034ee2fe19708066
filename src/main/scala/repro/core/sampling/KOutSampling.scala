package repro.core.sampling

import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.core.uf.UnionFind
import repro.graph.{GraphGen, HostGraph}

/** k-out sampling (Algorithm 4, Appendix C.3 variants).
  *
  * Selects up to k edges out of each vertex (per the chosen variant),
  * contracts them with a concurrent union-find (UF-Rem-CAS with
  * SplitAtomicOne — the paper's workhorse). The trees it leaves may be of
  * any height: normalization (`ConnectIt.sampleAndNormalize`) walks each
  * vertex to its root and relabels the trees as height-1 trees rooted at
  * component minima (Definition 3.1 requirement (1)).
  */
object KOutSampling {

  /** Run k-out sampling in its own gang run: a benchmark hook, as
    * callers that run the sampling phase use `ConnectIt.sampleAndNormalize`.
    */
  def sample(spark: SparkSession, g: HostGraph, ctx: RunCtx,
             k: Int, variant: KOutVariant, seed: Long): Unit =
    Par.gang(spark, ctx.id)(kernel(g, ctx, k, variant, seed))

  /** Task-side kernel: a vertex-parallel round of unions, ending in a
    * barrier. Alg 4 line 4's compress is left to normalization.
    */
  def kernel(g: HostGraph, ctx: RunCtx, k: Int, variant: KOutVariant,
             seed: Long): Par.Task => Unit = { t =>
    val opt = UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)
    @inline def randomNeighbour(v: Int, off: Int, deg: Int, j: Int): Int =
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
    t.forDynamic(g.n) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        val off = g.offsets(v)
        val deg = g.offsets(v + 1) - off
        if (deg > 0) {
          // the variant's first j picks, then random picks up to k
          var j = variant match {
            case KOutAfforest => // the first k neighbours, none at random
              var i = 0
              while (i < k && i < deg) { UnionFind.union(ctx, opt, v, g.targets(off + i)); i += 1 }
              k
            case KOutPure => 0
            case KOutHybrid => UnionFind.union(ctx, opt, v, g.targets(off)); 1
            case KOutMaxDeg => UnionFind.union(ctx, opt, v, maxDegNeighbour(off, deg)); 1
          }
          while (j < k) { UnionFind.union(ctx, opt, v, randomNeighbour(v, off, deg, j)); j += 1 }
        }
        v += 1
      }
    }
  }
}
