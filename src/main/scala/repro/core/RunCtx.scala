package repro.core

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicIntegerArray, AtomicLong, AtomicLongArray, LongAdder}
import repro.graph.SharedState

/** Mutable shared state of one connectivity run (the paper's shared
  * memory): the parents array plus the auxiliary structures individual
  * algorithms need. Registered in [[SharedState]] by `id`; Spark task
  * closures carry only the id.
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

  /** Per-round change flag for round-synchronous algorithms. */
  val changed = new AtomicBoolean(false)

  /** Auxiliary per-algorithm shared structures (frontiers, edge stores,
    * scratch arrays) keyed by a small name; reached by kernels through
    * the ctx, never through closures.
    */
  val aux = new java.util.concurrent.ConcurrentHashMap[String, AnyRef]()

  // -------- instrumentation (Section 4.1.1: TPL / MPL analysis) --------
  @volatile var instrument: Boolean = false
  val totalPathLength = new LongAdder
  val maxPathLength = new AtomicInteger(0)

  def notePath(len: Int): Unit = if (instrument) {
    totalPathLength.add(len.toLong)
    var cur = maxPathLength.get()
    while (len > cur && !maxPathLength.compareAndSet(cur, len)) cur = maxPathLength.get()
  }

  def ensureHooks(): Unit = if (hooks == null) synchronized {
    if (hooks == null) {
      val h = new AtomicIntegerArray(n)
      var i = 0; while (i < n) { h.set(i, -1); i += 1 }
      hooks = h
    }
  }

  def ensureLocks(): Unit = if (locks == null) synchronized {
    if (locks == null) locks = new AtomicIntegerArray(n)
  }

  def ensurePrio(seed: Long): Unit = if (prio == null) synchronized {
    if (prio == null) {
      val r = new java.util.Random(seed)
      val p = Array.tabulate(n)(identity)
      var i = n - 1
      while (i > 0) { val j = r.nextInt(i + 1); val t = p(i); p(i) = p(j); p(j) = t; i -= 1 }
      prio = p
    }
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

  /** Copy current parents into `prev` (round snapshot). */
  def snapshotPrev(): Unit = {
    ensurePrev()
    var i = 0; while (i < n) { prev(i) = parents.get(i); i += 1 }
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

  /** Resolve every vertex to its tree root (sentinel -1 maps to
    * `sentinelRoot` if >= 0). Used to emit the final labeling.
    */
  def resolveLabels(sentinelRoot: Int = -1): Array[Int] = {
    val out = new Array[Int](n)
    resolveRange(out, 0, n, sentinelRoot)
    out
  }

  /** [[resolveLabels]] for vertices [lo, hi), written into `out`. */
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
      if (p != -1L) buf += (((p >>> 32).toInt, (p & 0xffffffffL).toInt))
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

  def lookup(id: String): RunCtx = SharedState.get[RunCtx](key(id))
}
