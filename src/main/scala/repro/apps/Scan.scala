package repro.apps

import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.core.uf.UnionFind
import repro.graph.HostGraph

/** Index-based SCAN clustering (Section 5.2, GS*-Index / GS*-Query).
  *
  * The index stores the structural similarity of every (directed) CSR
  * slot: sigma(u,v) = |N[u] ∩ N[v]| / sqrt(|N[u]| |N[v]|) with closed
  * neighbourhoods. A (eps, mu) query finds core vertices (>= mu
  * eps-similar neighbours), clusters cores over eps-similar core-core
  * edges, and attaches non-core border vertices to the minimum adjacent
  * core cluster. GS*-Query runs this sequentially; the ConnectIt version
  * parallelizes the core clustering with UF-Rem-CAS (SplitAtomicOne,
  * FindNaive).
  */
object Scan {

  /** sim(i) = similarity of CSR slot i (edge offsets(u) <= i < offsets(u+1)). */
  final case class Index(sim: Array[Double])

  /** Build the similarity index with a parallel merge-intersection over
    * the sorted CSR adjacency (the GS*-Index construction step), in one
    * gang run over slot blocks.
    */
  def buildIndex(spark: SparkSession, g: HostGraph): Index = {
    val sim = new Array[Double](g.targets.length)
    Par.gang(spark, s"scan-index:${g.id}") { t =>
      g.forSlotBlocks(t) { (lo, hi) =>
        var u = lo
        while (u < hi) {
          val du = g.degree(u)
          val uo = g.offsets(u)
          val ue = g.offsets(u + 1)
          var s = uo
          while (s < ue) {
            val v = g.targets(s)
            // merge-intersect adjacency lists of u and v (both sorted)
            var a = uo; var b = g.offsets(v)
            val be = g.offsets(v + 1)
            var common = 0
            while (a < ue && b < be) {
              val x = g.targets(a); val y = g.targets(b)
              if (x == y) { common += 1; a += 1; b += 1 }
              else if (x < y) a += 1
              else b += 1
            }
            // closed neighbourhoods: u and v are in each other's N[]
            sim(s) = (common + 2).toDouble / math.sqrt((du + 1).toDouble * (g.degree(v) + 1))
            s += 1
          }
          u += 1
        }
      }
    }
    Index(sim)
  }

  /** Core flags for a (eps, mu) query. */
  def cores(g: HostGraph, idx: Index, eps: Double, mu: Int): Array[Boolean] = {
    val out = new Array[Boolean](g.n)
    var u = 0
    while (u < g.n) {
      var cnt = 0
      var s = g.offsets(u)
      val e = g.offsets(u + 1)
      while (s < e) { if (idx.sim(s) >= eps) cnt += 1; s += 1 }
      out(u) = cnt >= mu
      u += 1
    }
    out
  }

  /** Sequential GS*-Query: labels(v) = min core id of v's cluster, or -1
    * if v is in no cluster.
    */
  def querySeq(g: HostGraph, idx: Index, eps: Double, mu: Int): Array[Int] = {
    val core = cores(g, idx, eps, mu)
    val labels = Array.fill(g.n)(-1)
    // cluster cores by BFS over eps-similar core-core edges
    var u = 0
    val stack = new java.util.ArrayDeque[Integer]()
    while (u < g.n) {
      if (core(u) && labels(u) == -1) {
        // collect the whole cluster, then label with its min id
        val memb = scala.collection.mutable.ArrayBuffer[Int]()
        stack.push(u); labels(u) = u
        var minId = u
        while (!stack.isEmpty) {
          val x = stack.pop().intValue()
          memb += x
          if (x < minId) minId = x
          var s = g.offsets(x)
          val e = g.offsets(x + 1)
          while (s < e) {
            val w = g.targets(s)
            if (idx.sim(s) >= eps && core(w) && labels(w) == -1) {
              labels(w) = u; stack.push(w)
            }
            s += 1
          }
        }
        memb.foreach(x => labels(x) = minId)
      }
      u += 1
    }
    attachBorders(g, idx, eps, core, labels, 0, g.n)
    labels
  }

  /** ConnectIt-parallelized GS*-Query in one gang run: cluster cores
    * with a concurrent union-find, resolve their labels, then attach the
    * borders.
    */
  def queryPar(spark: SparkSession, g: HostGraph, idx: Index,
               eps: Double, mu: Int): Array[Int] = {
    val core = cores(g, idx, eps, mu)
    val ctx = RunCtx.create(g.n)
    try {
      val opt = UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)
      val labels = new Array[Int](g.n)
      Par.gang(spark, ctx.id) { t =>
        g.forSlotBlocks(t) { (lo, hi) =>
          var u = lo
          while (u < hi) {
            if (core(u)) {
              var s = g.offsets(u)
              val e = g.offsets(u + 1)
              while (s < e) {
                val w = g.targets(s)
                if (idx.sim(s) >= eps && core(w)) UnionFind.union(ctx, opt, u, w)
                s += 1
              }
            }
            u += 1
          }
        }
        val (lo, hi) = t.range(g.n)
        ctx.resolveRange(labels, lo, hi)
        var v = lo
        while (v < hi) { if (!core(v)) labels(v) = -1; v += 1 }
        t.sync()
        attachBorders(g, idx, eps, core, labels, lo, hi)
      }
      labels
    } finally ctx.unregister()
  }

  /** Attach the non-core vertices of [lo, hi) to the minimum adjacent
    * eps-similar core cluster (deterministic border rule so seq and par
    * agree). Reads only core labels, so disjoint ranges run in parallel.
    */
  private def attachBorders(g: HostGraph, idx: Index, eps: Double,
                            core: Array[Boolean], labels: Array[Int], lo: Int, hi: Int): Unit = {
    var v = lo
    while (v < hi) {
      if (!core(v)) {
        var best = -1
        var s = g.offsets(v)
        val e = g.offsets(v + 1)
        while (s < e) {
          val w = g.targets(s)
          if (idx.sim(s) >= eps && core(w)) {
            val l = labels(w)
            if (best == -1 || l < best) best = l
          }
          s += 1
        }
        labels(v) = best
      }
      v += 1
    }
  }
}
