package repro.core

import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLong}
import org.apache.spark.sql.SparkSession
import repro.core.Options._
import repro.core.minbased.MinBased
import repro.core.{sampling => smp}
import repro.core.uf.{AtomicOps, UnionFind}
import repro.graph.HostGraph

/** The ConnectIt framework: Algorithm 1 (connectivity) and Algorithm 2
  * (spanning forest) — compose any sampling method with any finish
  * method; Section 3.
  */
object ConnectIt {

  /** Outcome of one connectivity / spanning-forest run. */
  final case class CCResult(
      labels: Array[Int],
      numComponents: Int,
      frequentid: Int,
      sampleSec: Double,
      finishSec: Double,
      totalSec: Double,
      forest: Array[(Int, Int)],
      /** Fraction of vertices in the most frequent sampled component. */
      coverage: Double,
      /** Fraction of edges inter-component under the sampled labeling. */
      interCompFrac: Double,
      /** Sum and maximum of the path lengths of the finish's unions, with
        * `instrument` (Section 4.1.1's TPL and MPL). k-out sampling's links
        * are not union-find unions and are not counted.
        */
      totalPathLength: Long,
      maxPathLength: Int,
  )

  /** Algorithm 1/2. A forest of `finish` must pass [[Options.requireForest]].
    *
    * The whole run is one gang run ([[Par.gang]]): sampling,
    * normalization, frequent label, finish and label resolution are
    * rounds of it. Task 0 times the phases at the barriers that start the
    * run, end sampling (after the frequent label) and end the finish. The
    * run starts once every task has reached its first barrier, so the
    * hand-off to the crew, the tasks' wake-up and label resolution fall
    * outside `totalSec`.
    */
  def connectivity(spark: SparkSession, g: HostGraph,
                   sampling: SamplingOpt, finish: FinishOpt,
                   wantForest: Boolean = false,
                   instrument: Boolean = false,
                   sampleStats: Boolean = false): CCResult = {
    val ctx = RunCtx.create(g.n, finish, wantForest, instrument)
    try {
      val phase1 = if (sampling == NoSampling) None else Some(new SamplePhase(g, ctx, sampling))
      // (task, frequentid) => finish rounds, ending in a barrier
      val finishStep: (Par.Task, Int) => Unit = finish match {
        case u: UnionFindOpt => unionFindFinish(_, g, ctx, u, _)
        case other => MinBased.finish(g, ctx, other)
      }
      val clock = new Array[Long](3) // start, end of sampling, end of finish
      val labels = new Array[Int](g.n)
      val roots = new java.util.concurrent.atomic.AtomicInteger(0)
      Par.gang(spark, ctx.id) { t =>
        // stamped once every task has reached the first barrier, so the
        // crew's wake-up is not timed, and before the second, so no task
        // has claimed work yet
        t.sync()
        t.single { clock(0) = System.nanoTime() }
        phase1.foreach(_(t))
        if (t.index == 0) clock(1) = System.nanoTime()
        val frequentid = phase1.fold(-1)(_.frequent.result)
        finishStep(t, frequentid)
        if (t.index == 0) clock(2) = System.nanoTime()
        // a vertex is its own label iff it is a root (the frequent
        // component's sentinel resolves to frequentid, one of its
        // members), so the roots count the components
        val (lo, hi) = t.range(g.n)
        ctx.resolveRange(labels, lo, hi, sentinelRoot = frequentid)
        var r = 0
        var v = lo
        while (v < hi) { if (labels(v) == v) r += 1; v += 1 }
        roots.addAndGet(r)
      }
      val frequentid = phase1.fold(-1)(_.frequent.result)
      val (cov, ic) =
        if (sampleStats && sampling != NoSampling) samplingQuality(spark, g, ctx, frequentid)
        else (0.0, 0.0)
      CCResult(
        labels, roots.get(), frequentid,
        sampleSec = (clock(1) - clock(0)) / 1e9,
        finishSec = (clock(2) - clock(1)) / 1e9,
        totalSec = (clock(2) - clock(0)) / 1e9,
        forest = if (wantForest) ctx.forestEdges else Array.empty,
        coverage = cov, interCompFrac = ic,
        totalPathLength = ctx.totalPathLength.sum(),
        maxPathLength = ctx.maxPathLength.get(),
      )
    } finally ctx.unregister()
  }

  /** Spanning forest (Algorithm 2): connectivity with forest recording. */
  def spanningForest(spark: SparkSession, g: HostGraph,
                     sampling: SamplingOpt, finish: FinishOpt): CCResult =
    connectivity(spark, g, sampling, finish, wantForest = true)

  // ------------------------------------------------------------ sampling
  /** The task-side kernel of a sampling option: the one dispatch from
    * [[SamplingOpt]] to a kernel, shared by every caller.
    */
  def samplingKernel(s: SamplingOpt, g: HostGraph, ctx: RunCtx): Par.Task => Unit = s match {
    case KOutSampling(k, variant, seed) => smp.KOutSampling.kernel(g, ctx, k, variant, seed)
    case BfsSampling(c, seed) => new smp.BfsSampling.Kernel(g, ctx, c, seed)
    case LddSampling(beta, permute, seed) => new smp.LddSampling.Kernel(g, ctx, beta, permute, seed)
    case NoSampling => _ => ()
  }

  /** Phase 1 of Algorithm 1 as gang rounds: sampling, normalization
    * (which writes `ctx.sampled`) and the frequent label.
    */
  private final class SamplePhase(g: HostGraph, ctx: RunCtx, s: SamplingOpt) extends (Par.Task => Unit) {
    private val sample = samplingKernel(s, g, ctx)
    private val normalize = new Normalize(ctx)
    val frequent = new FrequentLabel(ctx)

    def apply(t: Par.Task): Unit = { sample(t); normalize(t); frequent(t) }
  }

  /** Sampling and normalization alone, in one gang run: the sampling
    * phase for every caller outside [[connectivity]] (Tables 6, 7,
    * WorkeffCC). The normalized labels are left in `ctx.sampled`.
    */
  def sampleAndNormalize(spark: SparkSession, g: HostGraph, ctx: RunCtx,
                         s: SamplingOpt): Unit = {
    val sample = samplingKernel(s, g, ctx)
    val normalize = new Normalize(ctx)
    Par.gang(spark, ctx.id) { t => sample(t); normalize(t) }
  }

  // ------------------------------------------------------- normalization
  /** [[Normalize]] in its own gang run; a benchmark hook, as callers
    * that run the sampling phase use [[sampleAndNormalize]].
    */
  def normalizeSampled(spark: SparkSession, ctx: RunCtx): Unit =
    Par.gang(spark, ctx.id)(new Normalize(ctx))

  /** Task-side normalization: remap every sampled tree's label to its
    * minimum member, so the labeling is height-1 trees rooted at minima
    * (restores the parent(x) <= x invariant the asynchronous finish
    * methods need, see DESIGN.md), and relocate forest slots so new roots
    * have empty slots. The labels go to `ctx.sampled`, which task 0 sets
    * before the first barrier; until the last pass they hold the roots.
    */
  private final class Normalize(ctx: RunCtx) extends (Par.Task => Unit) {
    private val minRep = new AtomicIntegerArray(ctx.n)
    private val labels = new Array[Int](ctx.n)

    def apply(t: Par.Task): Unit = {
      val p = ctx.parents
      val (lo, hi) = t.range(ctx.n)
      // plain stores in the first and third passes: no peer reads these
      // slots before the barrier that ends the pass, which publishes them
      var v = lo
      while (v < hi) { minRep.setPlain(v, Int.MaxValue); v += 1 }
      if (t.index == 0) ctx.sampled = labels
      t.sync()
      // sampling leaves trees of any height; no task writes parents here
      v = lo
      while (v < hi) {
        val r = ctx.root(v)
        labels(v) = r
        AtomicOps.writeMin(minRep, r, v)
        v += 1
      }
      t.sync()
      v = lo
      while (v < hi) {
        val l = minRep.get(labels(v))
        p.setPlain(v, l)
        labels(v) = l
        v += 1
      }
      // forest slot fix-up: old root l's cluster is now rooted at r; r's
      // slot must be empty for the finish phase (Definition B.2 (3)).
      // Each old root l and its minimum r are touched by iteration l only.
      val fo = ctx.forest
      if (fo != null) {
        var l = lo
        while (l < hi) {
          val r = minRep.get(l)
          if (r != Int.MaxValue && r != l) {
            fo.set(l, fo.get(r))
            fo.set(r, -1L)
          }
          l += 1
        }
      }
      t.sync()
    }
  }

  // ------------------------------------------------------ frequent label
  /** Most frequent label (Algorithm 1 line 6). Returns -1 when sampling
    * produced only singletons (no skip benefit).
    */
  def identifyFrequent(labels: Array[Int]): Int = {
    val n = labels.length
    val counts = new Array[Int](n)
    var i = 0
    while (i < n) { counts(labels(i)) += 1; i += 1 }
    var best = -1; var bestC = 1
    i = 0
    while (i < n) {
      if (counts(i) > bestC) { best = i; bestC = counts(i) }
      i += 1
    }
    best
  }

  /** Frequent label of `ctx.sampled` in its own gang run: a benchmark
    * hook, as [[connectivity]] runs [[FrequentLabel]] inside its own gang.
    */
  def identifyFrequentPar(spark: SparkSession, ctx: RunCtx): Int = {
    val k = new FrequentLabel(ctx)
    Par.gang(spark, ctx.id)(k)
    k.result
  }

  /** Task-side frequent-label identification for large n: argmax over a
    * fixed-size vertex sample (the frequent component the two-phase
    * optimization targets holds >10% of vertices, so a 64k sample finds
    * its label with overwhelming probability), then an exact parallel
    * count of that single candidate. Each task gathers the labels of its
    * share of the sample; task 0 counts them. Small n is counted exactly
    * on task 0. `result` is set on every task when it returns.
    */
  private final class FrequentLabel(ctx: RunCtx) extends (Par.Task => Unit) {
    private val SampleSize = 65536
    @volatile var result: Int = -1
    private var cand = -1
    private val count = new java.util.concurrent.atomic.AtomicLong(0)
    /** The sampled vertices' labels, in sample order. */
    private val sample = if (ctx.n > SampleSize) new Array[Int](SampleSize) else null

    def apply(t: Par.Task): Unit = {
      val labels = ctx.sampled
      val n = labels.length
      if (n <= SampleSize) { t.single { result = identifyFrequent(labels) }; return }
      val (lo, hi) = t.range(SampleSize)
      var i = lo
      while (i < hi) {
        sample(i) = labels(((repro.graph.GraphGen.mix(0x5eed + i) >>> 1) % n).toInt)
        i += 1
      }
      t.sync()
      t.single { cand = sampleCandidate(n) }
      if (cand >= 0) {
        val (lo, hi) = t.range(n)
        var c = 0L
        var v = lo
        while (v < hi) { if (labels(v) == cand) c += 1; v += 1 }
        count.addAndGet(c)
        t.sync() // every share is in before task 0 reads the total
        t.single { result = if (count.get() >= 2L) cand else -1 }
      }
    }

    /** The most frequent label of the sample (seen at least twice), or
      * -1; the argmax is tracked as the counts grow, so of tied labels the
      * first to reach the top count wins.
      */
    private def sampleCandidate(n: Int): Int = {
      val counts = new Array[Int](n)
      var best = -1; var bestC = 1
      var i = 0
      while (i < SampleSize) {
        val l = sample(i)
        counts(l) += 1
        if (counts(l) > bestC) { best = l; bestC = counts(l) }
        i += 1
      }
      best
    }
  }

  // --------------------------------------------------- union-find finish
  /** Finish phase for the union-find family: vertex-parallel passes over
    * the CSR ([[HostGraph.forSlotBlocks]]), ending in a barrier. Without a
    * frequent label each edge is applied once, as (v, w) from its lower
    * endpoint v ([[HostGraph.upperStart]]), in the order of the sorted
    * u < v edge list. With one, every edge is applied from both endpoints
    * and vertices in the frequent component are skipped (their cross edges
    * are applied from the other endpoint — Theorem 3). The two cases are
    * separate loops, so that neither kind of run deoptimizes the other's
    * compiled code.
    */
  private def unionFindFinish(t: Par.Task, g: HostGraph, ctx: RunCtx,
                              opt: UnionFindOpt, frequentid: Int): Unit = {
    val s = ctx.sampled
    if (frequentid < 0) g.forSlotBlocks(t) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        val end = g.offsets(v + 1)
        var j = g.upperStart(v)
        while (j < end) { UnionFind.union(ctx, opt, v, g.targets(j)); j += 1 }
        v += 1
      }
    } else g.forSlotBlocks(t) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        if (s(v) != frequentid) {
          val end = g.offsets(v + 1)
          var j = g.offsets(v)
          while (j < end) { UnionFind.union(ctx, opt, v, g.targets(j)); j += 1 }
        }
        v += 1
      }
    }
  }

  // ------------------------------------------------------ sampling stats
  /** (coverage, inter-component edge fraction) of the sampled labeling —
    * the quantities of Tables 6 and 7 — counted in one gang run: each task
    * counts the frequent label's members in its share of the vertices and
    * the inter-component slots of the slot blocks it claims.
    */
  def samplingQuality(spark: SparkSession, g: HostGraph, ctx: RunCtx,
                      frequentid: Int): (Double, Double) = {
    val s = ctx.sampled
    if (s == null) return (0.0, 0.0)
    val members = new AtomicLong(0)
    val interSlots = new AtomicLong(0) // each inter-component edge fills a slot of both endpoints
    Par.gang(spark, s"quality:${ctx.id}", work = g.targets.length.toLong + g.n) { t =>
      val (lo, hi) = t.range(g.n)
      members.addAndGet((lo until hi).count(s(_) == frequentid))
      g.forSlotBlocks(t) { (lo, hi) =>
        var c = 0L
        var v = lo
        while (v < hi) {
          val l = s(v)
          val end = g.offsets(v + 1)
          var j = g.offsets(v)
          while (j < end) { if (s(g.targets(j)) != l) c += 1; j += 1 }
          v += 1
        }
        interSlots.addAndGet(c)
      }
    }
    (members.get.toDouble / g.n, (interSlots.get / 2).toDouble / math.max(1L, g.m))
  }
}
