package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicLong, AtomicLongArray, LongAdder}
import repro.core.Options._
import repro.graph.{Edge, SharedState}

/** Mutable shared state of one connectivity run (the paper's shared
  * memory): the parents array plus the auxiliary structures individual
  * algorithms need. Gang bodies capture it directly; it is registered in
  * [[SharedState]] by `id` so that a run that is not unregistered shows
  * up as a leak.
  */
final class RunCtx(val id: String, val n: Int) {
  /** Parents / connectivity labeling (Section 2). -1 is the sentinel
    * "smaller than every vertex id" label used when composing
    * non-monotone min-based finish methods with sampling (B.2.6).
    */
  val parents = new AtomicIntegerArray(Array.range(0, n))

  /** Hooks array for UF-Hooks (Alg 11); -1 = unhooked. */
  @volatile var hooks: AtomicIntegerArray = _
  /** Spinlock words for UF-Rem-Lock (Alg 13). */
  @volatile var locks: AtomicIntegerArray = _
  /** Random priorities for UF-JTB linking. */
  @volatile var prio: Array[Int] = _
  /** Previous-round labels (SV, Stergiou, RootUp Liu-Tarjan). */
  @volatile var prev: Array[Int] = _
  /** Snapshot of labels right after sampling; finish methods skip
    * vertices whose sampled label equals `frequentid`.
    */
  @volatile var sampled: Array[Int] = _
  /** Spanning-forest edge per tree root (Alg 2); -1 = empty slot. */
  @volatile var forest: AtomicLongArray = _

  // -------- instrumentation (Section 4.1.1: TPL / MPL analysis) --------
  @volatile var instrument: Boolean = false
  val totalPathLength = new LongAdder
  val maxPathLength = new AtomicInteger(0)

  def notePath(len: Int): Unit = if (instrument) {
    totalPathLength.add(len.toLong)
    var cur = maxPathLength.get()
    while (len > cur && !maxPathLength.compareAndSet(cur, len)) cur = maxPathLength.get()
  }

  /** Allocate what the union-find finish `u` needs: hooks for UF-Hooks,
    * lock words for UF-Rem-Lock, and for UF-JTB a random priority
    * permutation drawn from `seed`.
    */
  def prepare(u: UnionFindOpt, seed: Long): Unit = u.alg match {
    case UfHooks =>
      val h = new AtomicIntegerArray(n)
      var i = 0; while (i < n) { h.set(i, -1); i += 1 }
      hooks = h
    case UfRemLock => locks = new AtomicIntegerArray(n)
    case UfJtb =>
      val r = new java.util.Random(seed)
      val p = Array.tabulate(n)(identity)
      var i = n - 1
      while (i > 0) { val j = r.nextInt(i + 1); val t = p(i); p(i) = p(j); p(j) = t; i -= 1 }
      prio = p
    case _ => ()
  }

  def ensurePrev(): Unit = if (prev == null) synchronized {
    if (prev == null) prev = new Array[Int](n)
  }

  def ensureForest(): Unit = if (forest == null) synchronized {
    if (forest == null) {
      val f = new AtomicLongArray(n)
      var i = 0; while (i < n) { f.set(i, -1L); i += 1 }
      forest = f
    }
  }

  /** Copy current parents into `sampled` (post-sampling snapshot). */
  def snapshotSampled(): Unit = {
    val s = new Array[Int](n)
    var i = 0; while (i < n) { s(i) = parents.get(i); i += 1 }
    sampled = s
  }

  def allocSampled(): Unit = { sampled = new Array[Int](n) }

  /** Current labels as a plain array (no resolution). */
  def labelsRaw: Array[Int] = {
    val out = new Array[Int](n)
    var i = 0; while (i < n) { out(i) = parents.get(i); i += 1 }
    out
  }

  /** Resolve every vertex to its tree root: the final labeling. */
  def resolveLabels(): Array[Int] = {
    val out = new Array[Int](n)
    resolveRange(out, 0, n)
    out
  }

  /** Tree roots of vertices [lo, hi), written into `out`; a vertex whose
    * path ends at the sentinel -1 gets `sentinelRoot`.
    */
  def resolveRange(out: Array[Int], lo: Int, hi: Int, sentinelRoot: Int = -1): Unit = {
    var i = lo
    while (i < hi) {
      var v = i
      var p = parents.get(v)
      while (p >= 0 && p != v) { v = p; p = parents.get(v) }
      out(i) = if (p < 0) sentinelRoot else v
      i += 1
    }
  }

  /** Spanning-forest edges currently recorded (filtered, Alg 2 line 7). */
  def forestEdges: Array[(Int, Int)] = {
    if (forest == null) return Array.empty
    val buf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var i = 0
    while (i < n) {
      val p = forest.get(i)
      if (p != -1L) buf += ((Edge.src(p), Edge.dst(p)))
      i += 1
    }
    buf.toArray
  }

  def unregister(): Unit = SharedState.remove(RunCtx.key(id))
}

object RunCtx {
  private val counter = new AtomicLong(0)
  private def key(id: String) = s"ctx:$id"

  def create(n: Int): RunCtx = {
    val id = s"ctx${counter.incrementAndGet()}"
    val c = new RunCtx(id, n)
    SharedState.put(key(id), c)
    c
  }
}
