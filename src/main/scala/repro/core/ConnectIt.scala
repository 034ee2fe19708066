package repro.core

import java.util.concurrent.atomic.AtomicIntegerArray
import org.apache.spark.sql.SparkSession
import repro.core.Options._
import repro.core.minbased.MinBased
import repro.core.{sampling => smp}
import repro.core.uf.{AtomicOps, UnionFind}
import repro.graph.{Edge, HostGraph}

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
      totalPathLength: Long,
      maxPathLength: Int,
  )

  /** Algorithm 1/2. `wantForest` requires a root-based finish method.
    *
    * The whole run is one gang job ([[Par.gang]]): sampling,
    * normalization, frequent label, finish and label resolution are
    * rounds of it. Task 0 times the phases at the barriers that start the
    * run, end sampling (after the frequent label) and end the finish; job
    * launch and label resolution fall outside `totalSec`.
    */
  def connectivity(spark: SparkSession, g: HostGraph,
                   sampling: SamplingOpt, finish: FinishOpt,
                   wantForest: Boolean = false,
                   instrument: Boolean = false,
                   sampleStats: Boolean = false): CCResult = {
    require(!wantForest || isRootBased(finish),
      s"${finish.name} is not root-based; spanning forest unsupported (3.4)")
    // SpliceAtomic moves subtrees between trees without a root hook, so
    // the edge witnessing a later hook may already be spanned — recording
    // it can put a cycle in the forest (deviation from Theorem 7's
    // sketch; see DESIGN.md). Use SplitAtomicOne / HalveAtomicOne.
    require(!wantForest || (finish match {
      case u: UnionFindOpt =>
        !((u.alg == UfRemCas || u.alg == UfRemLock) && u.splice == SpliceAtomic)
      case _ => true
    }), s"${finish.name}: spanning forest requires a non-splice compression option")
    val ctx = RunCtx.create(g.n)
    try {
      ctx.instrument = instrument
      if (wantForest) ctx.ensureForest()
      val phase1 = if (sampling == NoSampling) None else Some(new SamplePhase(g, ctx, sampling))
      // (task, frequentid) => finish rounds, ending in a barrier
      val finishStep: (Par.Task, Int) => Unit = finish match {
        case u: UnionFindOpt =>
          ctx.prepare(u, g.n.toLong * 7919)
          unionFindFinish(_, g, ctx, u, _)
        case other => MinBased.finish(g, ctx, other, wantForest)
      }
      val clock = new Array[Long](3) // start, end of sampling, end of finish
      val labels = new Array[Int](g.n)
      val roots = new java.util.concurrent.atomic.AtomicInteger(0)
      Par.gang(spark, ctx.id) { t =>
        // stamped before the first barrier, so no task has claimed work yet
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

  /** Phase 1 of Algorithm 1 as gang rounds: sampling, normalization with
    * the post-sampling snapshot, and the frequent label.
    */
  private final class SamplePhase(g: HostGraph, ctx: RunCtx, s: SamplingOpt) extends (Par.Task => Unit) {
    private val sample = samplingKernel(s, g, ctx)
    private val normalize = new Normalize(ctx, snapshot = true)
    val frequent = new FrequentLabel(ctx)

    def apply(t: Par.Task): Unit = { sample(t); normalize(t); frequent(t) }
  }

  /** Sampling and normalization alone, in one gang job (Tables 6, 7). */
  def sampleAndNormalize(spark: SparkSession, g: HostGraph, ctx: RunCtx,
                         s: SamplingOpt): Unit = {
    val sample = samplingKernel(s, g, ctx)
    val normalize = new Normalize(ctx, snapshot = false)
    Par.gang(spark, ctx.id) { t => sample(t); normalize(t) }
  }

  // ------------------------------------------------------- normalization
  /** Remap every sampled cluster's label to its minimum member, so the
    * labeling is height-1 trees rooted at minima (restores the
    * parent(x) <= x invariant the asynchronous finish methods need, see
    * DESIGN.md) and relocate forest slots so new roots have empty slots.
    * Runs in its own gang job.
    */
  def normalizeSampled(spark: SparkSession, ctx: RunCtx): Unit =
    Par.gang(spark, ctx.id)(new Normalize(ctx, snapshot = false))

  /** Task-side normalization; with `snapshot` it also fills
    * `ctx.sampled` with the normalized labels.
    */
  private final class Normalize(ctx: RunCtx, snapshot: Boolean) extends (Par.Task => Unit) {
    private val minRep = new AtomicIntegerArray(ctx.n)
    if (snapshot) ctx.allocSampled()

    def apply(t: Par.Task): Unit = {
      val p = ctx.parents
      val (lo, hi) = t.range(ctx.n)
      var v = lo
      while (v < hi) { minRep.set(v, Int.MaxValue); v += 1 }
      t.sync()
      v = lo
      while (v < hi) { AtomicOps.writeMin(minRep, p.get(v), v); v += 1 }
      t.sync()
      val s = ctx.sampled
      v = lo
      while (v < hi) {
        val l = minRep.get(p.get(v))
        p.set(v, l)
        if (snapshot) s(v) = l
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

  /** Frequent label of `ctx.sampled` in its own gang job. */
  def identifyFrequentPar(spark: SparkSession, ctx: RunCtx): Int = {
    val k = new FrequentLabel(ctx)
    Par.gang(spark, ctx.id)(k)
    k.result
  }

  /** Task-side frequent-label identification for large n: argmax over a
    * fixed-size vertex sample on task 0 (the frequent component the
    * two-phase optimization targets holds >10% of vertices, so a 64k
    * sample finds its label with overwhelming probability), then an
    * exact parallel count of that single candidate. Small n is counted
    * exactly on task 0. `result` is set on every task when it returns.
    */
  private final class FrequentLabel(ctx: RunCtx) extends (Par.Task => Unit) {
    private val SampleSize = 65536
    @volatile var result: Int = -1
    private var cand = -1
    private val count = new java.util.concurrent.atomic.AtomicLong(0)

    def apply(t: Par.Task): Unit = {
      val labels = ctx.sampled
      val n = labels.length
      if (n <= SampleSize) { t.single { result = identifyFrequent(labels) }; return }
      t.single { cand = sampleCandidate(labels) }
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

    private def sampleCandidate(labels: Array[Int]): Int = {
      val n = labels.length
      val counts = new java.util.HashMap[Integer, Integer]()
      var i = 0
      while (i < SampleSize) {
        val v = ((repro.graph.GraphGen.mix(0x5eed + i) >>> 1) % n).toInt
        counts.merge(labels(v), 1, (a, b) => a + b)
        i += 1
      }
      var best = -1; var bestC = 1
      counts.forEach((l, c) => if (c > bestC) { best = l; bestC = c })
      best
    }
  }

  // --------------------------------------------------- union-find finish
  /** Finish phase for the union-find family: without sampling, an
    * edge-parallel pass over the chunked edge list; with sampling, a
    * vertex-parallel CSR pass that skips vertices in the frequent
    * component (their cross edges are applied from the other endpoint —
    * Theorem 3). Both claim work dynamically and end in a barrier.
    */
  private def unionFindFinish(t: Par.Task, g: HostGraph, ctx: RunCtx,
                              opt: UnionFindOpt, frequentid: Int): Unit =
    if (frequentid < 0) {
      t.forDynamic(g.chunks.length, 1) { (lo, hi) =>
        var c = lo
        while (c < hi) {
          val arr = g.chunks(c)
          var j = 0
          while (j < arr.length) {
            val e = arr(j)
            UnionFind.union(ctx, opt, Edge.src(e), Edge.dst(e))
            j += 1
          }
          c += 1
        }
      }
    } else {
      val s = ctx.sampled
      t.forDynamic(g.n) { (lo, hi) =>
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
    * the quantities of Tables 6 and 7.
    */
  def samplingQuality(spark: SparkSession, g: HostGraph, ctx: RunCtx,
                      frequentid: Int): (Double, Double) = {
    val s = ctx.sampled
    if (s == null) return (0.0, 0.0)
    var freqCount = 0L
    var i = 0
    while (i < s.length) { if (s(i) == frequentid) freqCount += 1; i += 1 }
    var inter = 0L
    g.chunks.foreach { arr =>
      var j = 0
      while (j < arr.length) {
        val e = arr(j)
        if (s(Edge.src(e)) != s(Edge.dst(e))) inter += 1
        j += 1
      }
    }
    (freqCount.toDouble / g.n, inter.toDouble / math.max(1L, g.m))
  }
}
