package repro.apps

import java.util.concurrent.atomic.AtomicLongArray
import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
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

  /** Exponentially-distributed weights, one per undirected edge, laid
    * out parallel to g.chunks (deterministic in seed).
    */
  def expWeights(g: HostGraph, seed: Long): Array[Array[Double]] =
    g.chunks.map(_.map(e => -math.log(1.0 - GraphGen.u01(seed, e, 13)) + 1e-9))

  /** Flattened (packedEdge, weight) pairs sorted by weight. */
  private def flatSorted(g: HostGraph, w: Array[Array[Double]]): (Array[Long], Array[Double]) = {
    val m = g.chunks.iterator.map(_.length).sum
    val es = new Array[Long](m); val ws = new Array[Double](m)
    var k = 0
    var c = 0
    while (c < g.chunks.length) {
      val arr = g.chunks(c); val warr = w(c)
      var j = 0
      while (j < arr.length) { es(k) = arr(j); ws(k) = warr(j); k += 1; j += 1 }
      c += 1
    }
    val idx = es.indices.toArray.sortBy(ws)
    (idx.map(es), idx.map(ws))
  }

  /** One AMSF run as one gang job: a bucket is a dynamically split pass
    * over its edges, and the barrier that ends it orders the buckets.
    */
  def run(spark: SparkSession, g: HostGraph, w: Array[Array[Double]],
          eps: Double, variant: Variant): Result = {
    val t0 = System.nanoTime()
    val ctx = RunCtx.create(g.n)
    ctx.ensureForest()
    try {
      var wmin = Double.MaxValue; var wmax = 0.0
      w.foreach(_.foreach { x => if (x < wmin) wmin = x; if (x > wmax) wmax = x })
      if (wmax <= 0) return Result(0, 0, 0)
      val nBuckets = math.max(1,
        (math.log(wmax / wmin) / math.log1p(eps)).toInt + 1)
      def upper(b: Int): Double =
        if (b == nBuckets - 1) Double.MaxValue else wmin * math.pow(1 + eps, b + 1)
      @inline def union(e: Long): Boolean =
        UnionFind.union(ctx, ufOpt, Edge.src(e), Edge.dst(e))

      variant match {
        case EA =>
          val (es, ws) = flatSorted(g, w)
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
          // alive edge store (F compacts it; NF/NF-S leave it whole)
          val store = g.chunks.map(_.clone())
          val wstore = w.map(_.clone())
          val alive = store.map(_.length)
          val labels = if (variant == NFS) new Array[Int](g.n) else null
          var freq = -1 // NF-S: the bucket's largest component, from task 0
          val filt = variant == F
          Par.gang(spark, ctx.id) { t =>
            var b = 0
            while (b < nBuckets) {
              val loW = wmin * math.pow(1 + eps, b) - (if (b == 0) 1e-12 else 0)
              val hiW = upper(b)
              if (variant == NFS) {
                val (lo, hi) = t.range(g.n)
                ctx.resolveRange(labels, lo, hi)
                t.sync()
                t.single { freq = repro.core.ConnectIt.identifyFrequent(labels) }
              }
              val fr = freq
              t.forDynamic(store.length, 1) { (lo, hi) =>
                var c = lo
                while (c < hi) {
                  val arr = store(c); val warr = wstore(c)
                  val lim = alive(c)
                  var j = 0
                  var keep = 0
                  while (j < lim) {
                    val e = arr(j); val x = warr(j)
                    if (x >= loW && x < hiW) {
                      // NF-S: skip only edges internal to L_max
                      if (fr < 0 || !(labels(Edge.src(e)) == fr && labels(Edge.dst(e)) == fr))
                        union(e)
                    } else if (filt) {
                      arr(keep) = e; warr(keep) = x; keep += 1
                    }
                    j += 1
                  }
                  if (filt) alive(c) = keep
                  c += 1
                }
              }
              b += 1
            }
          }
      }

      val (wsum, cnt) = forestWeight(g, w, ctx)
      Result(wsum, cnt, (System.nanoTime() - t0) / 1e9)
    } finally ctx.unregister()
  }

  /** Sum weights of the recorded forest edges (looked up by endpoints). */
  private def forestWeight(g: HostGraph, w: Array[Array[Double]], ctx: RunCtx): (Double, Int) = {
    // weight lookup: packed edge -> weight
    val map = new java.util.HashMap[java.lang.Long, java.lang.Double]()
    var c = 0
    while (c < g.chunks.length) {
      val arr = g.chunks(c); val warr = w(c)
      var j = 0
      while (j < arr.length) { map.put(arr(j), warr(j)); j += 1 }
      c += 1
    }
    var sum = 0.0; var cnt = 0
    ctx.forestEdges.foreach { case (u, v) =>
      val key = Edge.pack(math.min(u, v), math.max(u, v))
      val x = map.get(key)
      if (x != null) { sum += x.doubleValue(); cnt += 1 }
    }
    (sum, cnt)
  }

  /** Exact MSF via parallel Borůvka (the GBBS-MSF stand-in), one gang
    * job: each round, every component writeMins its lightest incident
    * edge, then all selected edges are unioned. Ranks are unique, so the
    * selected edges form a forest and every union order links the same
    * ones.
    */
  def boruvka(spark: SparkSession, g: HostGraph, w: Array[Array[Double]]): Result = {
    val t0 = System.nanoTime()
    val ctx = RunCtx.create(g.n)
    ctx.ensureForest()
    try {
      val (es, _) = flatSorted(g, w)
      // per component root: the lowest rank (position in the weight-sorted
      // order) of an edge leaving it
      val minEdge = new AtomicLongArray(g.n)
      val progress = new Par.Progress
      Par.gang(spark, ctx.id) { t =>
        val p = ctx.parents
        @inline def root(x0: Int): Int = {
          var x = x0; var px = p.get(x)
          while (px != x) { x = px; px = p.get(x) }
          x
        }
        @inline def wmin(idx: Int, v: Long): Unit = {
          var cur = minEdge.get(idx)
          while (v < cur && !minEdge.compareAndSet(idx, cur, v)) cur = minEdge.get(idx)
        }
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
            val ru = root(Edge.src(e)); val rv = root(Edge.dst(e))
            if (ru != rv) { wmin(ru, j.toLong); wmin(rv, j.toLong) }
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
        } while (progress.changed(round - 1))
      }
      val (wsum, cnt) = forestWeight(g, w, ctx)
      Result(wsum, cnt, (System.nanoTime() - t0) / 1e9)
    } finally ctx.unregister()
  }
}
