package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._
import repro.core.sampling.BfsSampling
import repro.graph.{Edge, HostGraph}

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
      // contract: quotient edges between distinct cluster reps
      val repIds = new java.util.HashMap[Integer, Integer]()
      var v = 0
      while (v < g.n) {
        val c = clusters(v)
        if (!repIds.containsKey(c)) repIds.put(c, repIds.size())
        v += 1
      }
      val quotient = new java.util.HashSet[Long]()
      g.edgeIterator.foreach { case (a, b) =>
        val ca = repIds.get(clusters(a)).intValue()
        val cb = repIds.get(clusters(b)).intValue()
        if (ca != cb) {
          val lo = math.min(ca, cb); val hi = math.max(ca, cb)
          quotient.add(Edge.pack(lo, hi))
        }
      }
      if (quotient.isEmpty) clusters
      else {
        val qEdges = new Array[(Int, Int)](quotient.size())
        val it = quotient.iterator(); var i = 0
        while (it.hasNext) {
          val p = it.next()
          qEdges(i) = (Edge.src(p), Edge.dst(p)); i += 1
        }
        val qg = HostGraph.fromArray(spark, repIds.size(), qEdges)
        val sub = try workEffCC(spark, qg, beta, depth + 1) finally qg.unregister()
        // compose: label(v) = sub(rep(cluster(v))), mapped back to a vertex id
        val inv = new Array[Int](repIds.size())
        repIds.forEach((clu, rep) => inv(rep.intValue()) = clu.intValue())
        Array.tabulate(g.n)(v => inv(sub(repIds.get(clusters(v)).intValue())))
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
