package repro.core.sampling

import repro.core.{Frontier, Par, RunCtx}
import repro.graph.{Edge, GraphGen, HostGraph}

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
        else bfs.reset(t)
        tr += 1
      }
    }
  }

  /** One full BFS per call, claiming vertices with [[Frontier.Claim]]
    * (parents(v): v -> src); records forest tree edges if enabled.
    *
    * Top-down levels are [[Frontier]] rounds, so a level is split across
    * the tasks only when its frontier's edges reach [[Frontier.SplitWork]].
    * A level whose frontier holds more than n/20 vertices is a bottom-up
    * step instead, split across the tasks.
    */
  final class Bfs(g: HostGraph, ctx: RunCtx) extends Frontier.Kernel {
    private val f = new Frontier(g, ctx.parents)
    private val claim = new Frontier.Claim(ctx)
    /** The source of the current BFS; written by task 0 between barriers. */
    private var src = -1
    /** Vertices covered so far; written by task 0 between barriers. */
    private var covered = 0

    /** Task-side BFS from `src`; returns the number of vertices covered
      * (including src), the same on every task. Consecutive calls must be
      * separated by a barrier.
      */
    def apply(t: Par.Task, src: Int): Int = {
      f.rounds(t, claim, this) { this.src = src; covered = 0; claim.claimed.set(src, 1); f.add(src) }
      covered
    }

    /** Reset labels, claims and forest slots to pristine state (failed
      * try), then a barrier.
      */
    def reset(t: Par.Task): Unit = {
      val (lo, hi) = t.range(ctx.n)
      val fo = ctx.forest
      var v = lo
      while (v < hi) {
        ctx.parents.set(v, v)
        claim.claimed.set(v, 0)
        if (fo != null) fo.set(v, -1L)
        v += 1
      }
      t.sync()
    }

    def endRound(): Boolean = { covered += f.size; f.size > 0 }

    override def dense: Boolean = f.size > g.n / 20

    override def denseRound(t: Par.Task): Unit = t.forDynamic(g.n)(bottomUp)

    /** Bottom-up over vertices [lo, hi): unvisited vertices probe for a
      * visited neighbour.
      */
    private def bottomUp(lo: Int, hi: Int): Unit = {
      val claimed = claim.claimed
      val buf = new Array[Int](hi - lo)
      var len = 0
      var v = lo
      while (v < hi) {
        if (claimed.get(v) == 0) {
          val off = g.offsets(v); val end = g.offsets(v + 1)
          var j = off
          var done = false
          while (j < end && !done) {
            val w = g.targets(j)
            if (claimed.get(w) == 1) {
              ctx.parents.set(v, src)
              claimed.set(v, 1)
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
