package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicLong, AtomicLongArray, LongAdder}
import repro.core.Options._
import repro.graph.{Edge, SharedState}

/** Mutable shared state of one connectivity run (the paper's shared
  * memory): the parents array plus the auxiliary arrays its finish
  * method needs, all allocated once by [[RunCtx.create]] from the run's
  * options, before any task starts. Gang bodies capture it directly; it
  * is registered in [[SharedState]] only so that a run that is not
  * unregistered shows up as a leak.
  */
final class RunCtx private (val id: String, val n: Int, finish: FinishOpt, forestMode: Boolean,
                            val instrument: Boolean) {
  /** Parents / connectivity labeling (Section 2). -1 is the sentinel
    * "smaller than every vertex id" label used when composing
    * non-monotone min-based finish methods with sampling (B.2.6).
    */
  val parents = new AtomicIntegerArray(Array.range(0, n))

  /** Hooks array for UF-Hooks (Alg 11); -1 = unhooked. Null otherwise. */
  val hooks: AtomicIntegerArray = finish match {
    case UnionFindOpt(UfHooks, _, _) =>
      val h = new AtomicIntegerArray(n)
      var i = 0; while (i < n) { h.set(i, -1); i += 1 }
      h
    case _ => null
  }

  /** Spinlock words for UF-Rem-Lock (Alg 13). Null otherwise. */
  val locks: AtomicIntegerArray = finish match {
    case UnionFindOpt(UfRemLock, _, _) => new AtomicIntegerArray(n)
    case _ => null
  }

  /** Random priorities for UF-JTB linking: a permutation of the vertices
    * drawn from the seed n * 7919. Null otherwise.
    */
  val prio: Array[Int] = finish match {
    case UnionFindOpt(UfJtb, _, _) =>
      val r = new java.util.Random(n.toLong * 7919)
      val p = Array.tabulate(n)(identity)
      var i = n - 1
      while (i > 0) { val j = r.nextInt(i + 1); val t = p(i); p(i) = p(j); p(j) = t; i -= 1 }
      p
    case _ => null
  }

  /** Previous-round labels (SV, Stergiou, RootUp Liu-Tarjan). Null otherwise. */
  val prev: Array[Int] = finish match {
    case ShiloachVishkinOpt | StergiouOpt => new Array[Int](n)
    case lt: LiuTarjanOpt if lt.rootUp => new Array[Int](n)
    case _ => null
  }

  /** Spanning-forest edge per tree root (Alg 2); -1 = empty slot. Null
    * unless the run records a forest.
    */
  val forest: AtomicLongArray = if (!forestMode) null else {
    val f = new AtomicLongArray(n)
    var i = 0; while (i < n) { f.set(i, -1L); i += 1 }
    f
  }

  /** The normalized labels right after sampling, written by
    * normalization; finish methods skip vertices whose sampled label
    * equals `frequentid`. Null until a sampling phase has run.
    */
  var sampled: Array[Int] = _

  // -------- instrumentation (Section 4.1.1: TPL / MPL analysis) --------
  val totalPathLength = new LongAdder
  val maxPathLength = new AtomicInteger(0)

  def notePath(len: Int): Unit = if (instrument) {
    totalPathLength.add(len.toLong)
    var cur = maxPathLength.get()
    while (len > cur && !maxPathLength.compareAndSet(cur, len)) cur = maxPathLength.get()
  }

  /** Copy current parents into `sampled` on the calling thread (a
    * benchmark hook; normalization already writes `sampled`).
    */
  def snapshotSampled(): Unit = {
    val s = new Array[Int](n)
    var i = 0; while (i < n) { s(i) = parents.get(i); i += 1 }
    sampled = s
  }

  /** The root of `v`'s tree, or -1 when its path ends at the sentinel. */
  def root(v: Int): Int = {
    var x = v
    var px = parents.get(x)
    while (px >= 0 && px != x) { x = px; px = parents.get(x) }
    if (px < 0) -1 else x
  }

  /** Tree roots of vertices [lo, hi), written into `out`; a vertex whose
    * path ends at the sentinel -1 gets `sentinelRoot`.
    */
  def resolveRange(out: Array[Int], lo: Int, hi: Int, sentinelRoot: Int = -1): Unit = {
    var i = lo
    while (i < hi) {
      val r = root(i)
      out(i) = if (r < 0) sentinelRoot else r
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

  /** The shared state of a run on `n` vertices whose finish method is
    * `finish`, recording a spanning forest if `forest` and path lengths
    * if `instrument`. The defaults allocate no auxiliary array: the
    * default finish is UF-Rem-CAS, which needs none. A forest of
    * `finish` must pass [[Options.requireForest]].
    */
  def create(n: Int, finish: FinishOpt = UnionFindOpt(UfRemCas), forest: Boolean = false,
             instrument: Boolean = false): RunCtx = {
    if (forest) requireForest(finish)
    val id = s"ctx${counter.incrementAndGet()}"
    val c = new RunCtx(id, n, finish, forest, instrument)
    SharedState.put(key(id), c)
    c
  }
}
