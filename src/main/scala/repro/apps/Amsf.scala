package repro.apps

import java.util.concurrent.atomic.AtomicLongArray
import org.apache.spark.sql.SparkSession
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._
import repro.core.uf.AtomicOps.writeMin
import repro.core.uf.UnionFind
import repro.graph.{Edge, GraphGen, HostGraph}

/** Approximate minimum spanning forest (Section 5.1).
  *
  * Edges are bucketed geometrically by weight ([(1+eps)^i W_min,
  * (1+eps)^{i+1} W_min)); buckets are processed smallest-first, and
  * within a bucket edges are applied with UF-Rem-CAS (SplitAtomicOne,
  * FindNaive); every successful union contributes its edge to the
  * approximate forest. Variants:
  *  - EA: flatten all edges into one weight-sorted array, buckets are
  *    ranges of that array;
  *  - F:  per bucket, scan the remaining (alive) edges, applying and
  *    removing this bucket's edges (filtering);
  *  - NF: per bucket, re-scan all edges (no filtering);
  *  - NF-S: NF plus the ConnectIt sampling trick — per bucket, identify
  *    the current largest component L_max and skip edges internal to it.
  * The exact baseline is Borůvka (GBBS-MSF's algorithm).
  */
object Amsf {
  sealed trait Variant { def name: String }
  case object EA extends Variant { val name = "AMSF-EA" }
  case object F extends Variant { val name = "AMSF-F" }
  case object NF extends Variant { val name = "AMSF-NF" }
  case object NFS extends Variant { val name = "AMSF-NF-S" }

  final case class Result(weight: Double, nEdges: Int, sec: Double)

  private val ufOpt = UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)

  /** Exponentially-distributed weights, one per undirected edge,
    * parallel to `g.upperEdges()`; each is a function of the seed and the
    * packed edge alone.
    */
  def expWeights(g: HostGraph, seed: Long): Array[Double] =
    g.upperEdges().map(e => -math.log(1.0 - GraphGen.u01(seed, e, 13)) + 1e-9)

  /** The edges and their parallel weights, sorted by weight (stable). */
  private def byWeight(edges: Array[Long], w: Array[Double]): (Array[Long], Array[Double]) = {
    val idx = edges.indices.toArray.sortBy(w)
    (idx.map(edges), idx.map(w))
  }

  /** One AMSF run as one gang run: a bucket is a dynamically split pass
    * over its edges, and the barrier that ends it orders the buckets.
    */
  def run(spark: SparkSession, g: HostGraph, w: Array[Double],
          eps: Double, variant: Variant): Result = {
    val t0 = System.nanoTime()
    val ctx = RunCtx.create(g.n, ufOpt, forest = true)
    try {
      val edges = g.upperEdges()
      var wmin = Double.MaxValue; var wmax = 0.0
      w.foreach { x => if (x < wmin) wmin = x; if (x > wmax) wmax = x }
      if (wmax <= 0) return Result(0, 0, 0)
      val nBuckets = math.max(1,
        (math.log(wmax / wmin) / math.log1p(eps)).toInt + 1)
      def upper(b: Int): Double =
        if (b == nBuckets - 1) Double.MaxValue else wmin * math.pow(1 + eps, b + 1)
      @inline def union(e: Long): Boolean =
        UnionFind.union(ctx, ufOpt, Edge.src(e), Edge.dst(e))

      variant match {
        case EA =>
          val (es, ws) = byWeight(edges, w)
          // bucket b is es(bounds(b) until bounds(b + 1))
          val bounds = new Array[Int](nBuckets + 1)
          var b = 0
          while (b < nBuckets) {
            val hiW = upper(b)
            var hi = bounds(b)
            while (hi < es.length && ws(hi) < hiW) hi += 1
            bounds(b + 1) = hi
            b += 1
          }
          Par.gang(spark, ctx.id) { t =>
            var b = 0
            while (b < nBuckets) {
              val base = bounds(b)
              if (bounds(b + 1) > base) t.forDynamic(bounds(b + 1) - base) { (lo, hi) =>
                var j = base + lo
                while (j < base + hi) { union(es(j)); j += 1 }
              }
              b += 1
            }
          }

        case F | NF | NFS =>
          // F compacts its copy of the edges; NF/NF-S rescan them whole
          val filt = variant == F
          val store = if (filt) edges.clone() else edges
          val wstore = if (filt) w.clone() else w
          val labels = if (variant == NFS) new Array[Int](g.n) else null
          val frequent = if (variant == NFS) new ConnectIt.FrequentLabel(g.n) else null
          Par.gang(spark, ctx.id) { t =>
            // this task's static share of the store; its alive edges are
            // store(elo until alive)
            val (elo, ehi) = t.range(store.length)
            var alive = ehi
            var b = 0
            while (b < nBuckets) {
              val loW = wmin * math.pow(1 + eps, b) - (if (b == 0) 1e-12 else 0)
              val hiW = upper(b)
              // NF-S: the bucket's largest component
              val fr = if (variant != NFS) -1 else {
                val (lo, hi) = t.range(g.n)
                ctx.resolveRange(labels, lo, hi)
                t.sync()
                frequent(t, labels)
              }
              var j = elo
              var keep = elo
              while (j < alive) {
                val e = store(j); val x = wstore(j)
                if (x >= loW && x < hiW) {
                  // NF-S: skip only edges internal to L_max
                  if (fr < 0 || !(labels(Edge.src(e)) == fr && labels(Edge.dst(e)) == fr))
                    union(e)
                } else if (filt) {
                  store(keep) = e; wstore(keep) = x; keep += 1
                }
                j += 1
              }
              if (filt) alive = keep
              t.sync()
              b += 1
            }
          }
      }

      val (wsum, cnt) = forestWeight(edges, w, ctx)
      Result(wsum, cnt, (System.nanoTime() - t0) / 1e9)
    } finally ctx.unregister()
  }

  /** Sum weights of the recorded forest edges: each packed forest slot
    * is an edge of the sorted `edges` (`w` parallel to it) or empty (-1).
    * The weights are summed in edge order, so the sum does not depend on
    * which slot the schedule put each edge in.
    */
  private def forestWeight(edges: Array[Long], w: Array[Double], ctx: RunCtx): (Double, Int) = {
    val chosen = (0 until ctx.n).map(v => java.util.Arrays.binarySearch(edges, ctx.forest.get(v))).filter(_ >= 0)
    (chosen.sorted.map(w).sum, chosen.length)
  }

  /** Exact MSF via parallel Borůvka (the GBBS-MSF stand-in), one gang
    * job: each round, every component writeMins its lightest incident
    * edge, then all selected edges are unioned. Ranks are unique, so the
    * selected edges form a forest and every union order links the same
    * ones.
    */
  def boruvka(spark: SparkSession, g: HostGraph, w: Array[Double]): Result = {
    val t0 = System.nanoTime()
    val ctx = RunCtx.create(g.n, ufOpt, forest = true)
    try {
      val edges = g.upperEdges()
      val (es, _) = byWeight(edges, w)
      // per component root: the lowest rank (position in the weight-sorted
      // order) of an edge leaving it
      val minEdge = new AtomicLongArray(g.n)
      val progress = new Par.Progress
      Par.gang(spark, ctx.id) { t =>
        val (vlo, vhi) = t.range(g.n)
        val (elo, ehi) = t.range(es.length)
        var round = 0
        do {
          var v = vlo
          while (v < vhi) { minEdge.set(v, Long.MaxValue); v += 1 }
          t.sync()
          var j = elo
          while (j < ehi) {
            val e = es(j)
            val ru = ctx.root(Edge.src(e)); val rv = ctx.root(Edge.dst(e))
            if (ru != rv) { writeMin(minEdge, ru, j.toLong); writeMin(minEdge, rv, j.toLong) }
            j += 1
          }
          t.sync()
          v = vlo
          while (v < vhi) {
            val sel = minEdge.get(v)
            if (sel != Long.MaxValue) {
              val e = es(sel.toInt)
              if (UnionFind.union(ctx, ufOpt, Edge.src(e), Edge.dst(e)))
                progress.mark(round)
            }
            v += 1
          }
          t.sync()
          round += 1
          Par.requireConverging(round, "Borůvka")
        } while (progress.changed(round - 1))
      }
      val (wsum, cnt) = forestWeight(edges, w, ctx)
      Result(wsum, cnt, (System.nanoTime() - t0) / 1e9)
    } finally ctx.unregister()
  }
}
