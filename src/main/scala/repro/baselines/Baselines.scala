package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._
import repro.core.sampling.BfsSampling
import repro.graph.HostGraph

/** The "Other Systems" comparators of Table 3, reimplemented inside this
  * repo (the paper likewise implemented BFSCC and WorkeffCC in its own
  * codebase). Galois and PatwaryRM have exact algorithmic equivalents in
  * the framework (Label-Prop, UF-Rem-Lock) and are reported as such in
  * EXPERIMENTS.md.
  */
object Baselines {

  /** BFSCC [92]: repeatedly run a parallel BFS from the first uncovered
    * vertex; each BFS labels one component.
    */
  def bfsCC(spark: SparkSession, g: HostGraph): Array[Int] = {
    val ctx = RunCtx.create(g.n)
    try {
      val bfs = new BfsSampling.Bfs(g, ctx)
      val labels = new Array[Int](g.n)
      java.util.Arrays.fill(labels, -1)
      Par.gang(spark, ctx.id) { t =>
        val (lo, hi) = t.range(g.n)
        var v = 0
        while (v < g.n) {
          if (labels(v) == -1 && g.degree(v) > 0) {
            bfs(t, v)
            // harvest: everything newly labeled v in ctx.parents
            var w = lo
            while (w < hi) {
              if (labels(w) == -1 && (w == v || ctx.parents.get(w) == v)) labels(w) = v
              w += 1
            }
            t.sync()
          }
          v += 1
        }
      }
      // isolated vertices are their own components
      var v = 0
      while (v < g.n) { if (labels(v) == -1) labels(v) = v; v += 1 }
      labels
    } finally ctx.unregister()
  }

  /** WorkeffCC [94]: recursively apply LDD and contract the quotient
    * graph until no edges remain, then compose the labelings.
    */
  def workEffCC(spark: SparkSession, g: HostGraph, beta: Double = 0.2,
                depth: Int = 0): Array[Int] = {
    val ctx = RunCtx.create(g.n)
    try {
      ConnectIt.sampleAndNormalize(spark, g, ctx, LddSampling(beta, seed = 97 + depth))
      val clusters = ctx.sampled
      // number the clusters densely, in ascending order of their labels;
      // a cluster's label is its minimum member, the one vertex labeled itself
      val reps = Array.range(0, g.n).filter(v => clusters(v) == v)
      val dense = new Array[Int](g.n)
      reps.indices.foreach(i => dense(reps(i)) = i)
      // quotient edges: the upper edges between distinct clusters; the CSR
      // build drops the duplicates among them
      val quotient = Array.newBuilder[(Int, Int)]
      var v = 0
      while (v < g.n) {
        val cv = dense(clusters(v))
        var j = g.upperStart(v)
        while (j < g.offsets(v + 1)) {
          val cw = dense(clusters(g.targets(j)))
          if (cw != cv) quotient += ((cv, cw))
          j += 1
        }
        v += 1
      }
      val qEdges = quotient.result()
      if (qEdges.isEmpty) clusters
      else {
        val qg = HostGraph.fromArray(spark, reps.length, qEdges)
        val sub = try workEffCC(spark, qg, beta, depth + 1) finally qg.unregister()
        // compose: label(v) = the representative of its cluster's quotient label
        Array.tabulate(g.n)(v => reps(sub(dense(clusters(v)))))
      }
    } finally ctx.unregister()
  }

  /** MultiStep [98]: BFS covers the massive component, Label-Propagation
    * finishes the rest — exactly BFS Sampling + Label-Prop in ConnectIt.
    */
  def multiStep(spark: SparkSession, g: HostGraph): ConnectIt.CCResult =
    ConnectIt.connectivity(spark, g, repro.core.Options.BfsSampling(c = 1), LabelPropOpt)

  /** GAP-SV [12]: plain Shiloach-Vishkin without sampling. */
  def gapSV(spark: SparkSession, g: HostGraph): ConnectIt.CCResult =
    ConnectIt.connectivity(spark, g, NoSampling, ShiloachVishkinOpt)

  /** GAP-AF / Afforest [104]: first-k (non-randomized) 2-out sampling
    * with a union-find finish.
    */
  def afforest(spark: SparkSession, g: HostGraph): ConnectIt.CCResult =
    ConnectIt.connectivity(spark, g, KOutSampling(k = 2, variant = KOutAfforest),
      UnionFindOpt(UfAsync, FindAtomicHalve))
}
