package repro.core.sampling

import java.util.concurrent.atomic.AtomicInteger
import repro.core.{Par, RunCtx}
import repro.graph.{Edge, GraphGen, HostGraph}

/** Shared frontier state for level-synchronous traversals (BFS, LDD,
  * Label-Propagation), held by value by the gang kernel that owns it.
  */
final class Frontier(val n: Int) {
  var cur: Array[Int] = new Array[Int](0)
  var size: Int = 0
  val next: Array[Int] = new Array[Int](n)
  val nextCnt = new AtomicInteger(0)

  /** Reserve `len` slots in the next frontier and copy `buf` into them. */
  def publish(buf: Array[Int], len: Int): Unit = {
    if (len > 0) {
      val off = nextCnt.getAndAdd(len)
      System.arraycopy(buf, 0, next, off, len)
    }
  }

  /** Swap next into cur; returns new frontier size. */
  def advance(): Int = {
    size = nextCnt.get()
    System.arraycopy(next, 0, cur2(size), 0, size)
    nextCnt.set(0)
    size
  }
  private def cur2(sz: Int): Array[Int] = {
    if (cur.length < sz) cur = new Array[Int](math.max(sz, 16))
    cur
  }

  /** Work of a top-down step over `cur`: its edges in `g`, estimated from
    * a strided sample of degrees, plus its size.
    */
  def work(g: HostGraph): Long = {
    var s = 0L
    val step = math.max(1, size / 16)
    var i = 0
    while (i < size) { s += g.degree(cur(i)); i += step }
    s * step + size
  }
}

/** Breadth-first-search sampling (Algorithm 5) with the
  * direction-optimization of Beamer et al. [11]: dense frontiers switch
  * to a bottom-up round where unvisited vertices probe their neighbours.
  *
  * Each try labels the vertices reached from a random source with the
  * source id; a try is kept if it covers > 10% of the vertices,
  * otherwise the labeling is reset and (up to c times) retried.
  */
object BfsSampling {

  /** Task-side sampling kernel. */
  final class Kernel(g: HostGraph, ctx: RunCtx, c: Int, seed: Long) extends (Par.Task => Unit) {
    private val bfs = new Bfs(g, ctx)

    def apply(t: Par.Task): Unit = {
      val n = g.n
      var tr = 0
      var done = false
      while (tr < c && !done) {
        // pick a random source, preferring one with nonzero degree
        var src = -1
        var probe = 0
        while (src < 0 && probe < 100) {
          val cand = ((GraphGen.mix(seed + tr * 1000 + probe) >>> 1) % n).toInt
          if (g.degree(cand) > 0) src = cand
          probe += 1
        }
        if (src < 0) src = 0
        if (bfs(t, src) > n / 10) done = true
        else reset(t)
        tr += 1
      }
    }

    /** Reset labels (and forest slots) to pristine state (failed try). */
    private def reset(t: Par.Task): Unit = {
      val (lo, hi) = t.range(ctx.n)
      val fo = ctx.forest
      var v = lo
      while (v < hi) {
        ctx.parents.set(v, v)
        if (fo != null) fo.set(v, -1L)
        v += 1
      }
      t.sync()
    }
  }

  /** One full BFS per call, claiming vertices via CAS on the parents
    * array (parents(v): v -> src); records forest tree edges if enabled.
    *
    * A level is split across the tasks only when it is worth a barrier:
    * bottom-up levels always, top-down levels when their frontier's
    * edges reach [[Par.GrainSize]]. Consecutive smaller levels run back
    * to back on task 0 inside one task-0 step, so a high-diameter graph
    * (a torus BFS has hundreds of levels of a few thousand edges) pays
    * no barrier per level.
    */
  final class Bfs(g: HostGraph, ctx: RunCtx) {
    private val f = new Frontier(g.n)
    /** Vertices reached in the last task-0 step; read after its barrier. */
    private var reached = 0

    /** Task-side BFS from `src`; returns the number of vertices covered
      * (including src), the same on every task. Consecutive calls must be
      * separated by a barrier.
      */
    def apply(t: Par.Task, src: Int): Int = {
      val n = g.n
      t.single { f.cur = Array(src); f.size = 1; reached = smallLevels(src) }
      var covered = 1 + reached
      while (f.size > 0) {
        if (f.size > n / 20) t.forDynamic(n, 256)(bottomUp(src, _, _))
        else t.forDynamic(f.size, 16)(topDown(src, _, _))
        t.single { reached = f.advance(); reached += smallLevels(src) }
        covered += reached
      }
      covered
    }

    /** Task 0: runs top-down levels while they are too small to split;
      * returns the vertices they reached.
      */
    private def smallLevels(src: Int): Int = {
      var sum = 0
      while (f.size > 0 && f.size <= g.n / 20 && f.work(g) < Par.GrainSize) {
        topDown(src, 0, f.size)
        sum += f.advance()
      }
      sum
    }

    /** Top-down over frontier slots [lo, hi): claim unvisited neighbours. */
    private def topDown(src: Int, lo: Int, hi: Int): Unit = {
      var buf = new Array[Int](256)
      var len = 0
      var fi = lo
      while (fi < hi) {
        val v = f.cur(fi)
        val off = g.offsets(v); val end = g.offsets(v + 1)
        var j = off
        while (j < end) {
          val w = g.targets(j)
          if (w != src && ctx.parents.compareAndSet(w, w, src)) {
            val fo = ctx.forest
            if (fo != null) fo.set(w, Edge.pack(v, w))
            if (len == buf.length) buf = java.util.Arrays.copyOf(buf, len * 2)
            buf(len) = w; len += 1
          }
          j += 1
        }
        fi += 1
      }
      f.publish(buf, len)
    }

    /** Bottom-up over vertices [lo, hi): unvisited vertices probe for a
      * visited neighbour.
      */
    private def bottomUp(src: Int, lo: Int, hi: Int): Unit = {
      val buf = new Array[Int](hi - lo)
      var len = 0
      var v = lo
      while (v < hi) {
        if (ctx.parents.get(v) == v && v != src) {
          val off = g.offsets(v); val end = g.offsets(v + 1)
          var j = off
          var done = false
          while (j < end && !done) {
            val w = g.targets(j)
            if (w == src || ctx.parents.get(w) == src) {
              ctx.parents.set(v, src)
              val fo = ctx.forest
              if (fo != null) fo.set(v, Edge.pack(w, v))
              buf(len) = v; len += 1
              done = true
            }
            j += 1
          }
        }
        v += 1
      }
      f.publish(buf, len)
    }
  }
}
