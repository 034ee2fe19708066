package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import repro.graph.{Edge, HostGraph}

/** The one frontier round of BFS and LDD sampling and Label-Prop: the
  * direction-optimizing `edgeMap` of Ligra, in which the paper writes all
  * three (§3.2.2, B.2.6). A sparse round pushes each frontier vertex's
  * label (in `labels`) along its CSR slots through a [[Frontier.Visit]];
  * a dense round has every vertex pull from its neighbours through the
  * visit's `pull` step. A round whose estimated [[work]] is below
  * [[Frontier.SplitWork]] is sparse and runs on task 0, runs of such
  * rounds back to back inside one task-0 step. A larger round is split
  * across the tasks at the price of two barriers, and is dense if its
  * work exceeds m/20 (m: the CSR slots; Ligra's switch). A split gives
  * each task one contiguous share of the frontier, and a dense Label-Prop
  * round one of the vertices: a sweep through it carries Label-Prop's
  * smallest label through the whole share in one round (with 16
  * dynamically claimed blocks per task, sparse Label-Prop on the 512x512
  * torus took 5x longer). A dense [[Frontier.Claim]] round hands out blocks of the
  * vertices dynamically instead: on TW, CW and FR (4 tasks, 4 vCPUs,
  * median of 21 warm runs, 3 interleaved repetitions), BFS sampling took
  * 2.7-4.0 ms against 4.0-6.0 ms on contiguous shares.
  */
final class Frontier(g: HostGraph, labels: AtomicIntegerArray) {
  var cur: Array[Int] = new Array[Int](16)
  var size: Int = 0
  private val next = new Array[Int](g.n)
  private val nextCnt = new AtomicInteger(0)
  /** The least work of a dense round: m/20, Ligra's switch. */
  private val denseWork = g.targets.length / 20L
  /** Whether another round is due, and whether it is dense; written by
    * task 0 between barriers.
    */
  private var more = false
  private var dense = false
  /** Rounds run so far split across the tasks (sparse), dense, and on
    * task 0 alone; written by task 0 between barriers.
    */
  private[core] var splitRounds = 0
  private[core] var denseRounds = 0
  private[core] var serialRounds = 0

  /** Task 0: append `v` to the current frontier. */
  def add(v: Int): Unit = {
    if (size == cur.length) cur = java.util.Arrays.copyOf(cur, math.max(16, 2 * size))
    cur(size) = v; size += 1
  }

  /** Reserve `len` slots in the next frontier and copy `buf` into them. */
  def publish(buf: Array[Int], len: Int): Unit = {
    if (len > 0) System.arraycopy(buf, 0, next, nextCnt.getAndAdd(len), len)
  }

  private def advance(visit: Frontier.Visit): Unit = {
    size = nextCnt.getAndSet(0)
    if (cur.length < size) cur = new Array[Int](size)
    System.arraycopy(next, 0, cur, 0, size)
    visit.round += 1
  }

  /** Work of a sparse round over `cur`: its edges, estimated from a
    * strided sample of degrees, plus its size.
    */
  def work: Long = {
    var s = 0L
    val step = math.max(1, size / 16)
    var i = 0
    while (i < size) { s += g.degree(cur(i)); i += step }
    s * step + size
  }

  /** Every task runs rounds of `visit` until `k.endRound` says none is
    * due. Task 0 first runs `start`, which sets up the first frontier.
    * Ends in a barrier.
    */
  def rounds(t: Par.Task, visit: Frontier.Visit, k: Frontier.Kernel)(start: => Unit): Unit = {
    t.single { start; more = k.endRound() && smallRounds(visit, k) }
    while (more) {
      if (!dense) { val (lo, hi) = t.range(size); push(lo, hi, visit); t.sync() }
      else if (visit.sweeps) { val (lo, hi) = t.range(g.n); pull(lo, hi, visit); t.sync() }
      else t.forDynamic(g.n)(pull(_, _, visit))
      t.single {
        if (dense) denseRounds += 1 else splitRounds += 1
        advance(visit); more = k.endRound() && smallRounds(visit, k)
      }
    }
  }

  /** Task 0: sparse rounds while they are too small to split; whether
    * another round is due, and if so whether it is dense.
    */
  private def smallRounds(visit: Frontier.Visit, k: Frontier.Kernel): Boolean = {
    var go = true
    while (go && work < Frontier.SplitWork) {
      push(0, size, visit); advance(visit); serialRounds += 1; go = k.endRound()
    }
    dense = work > denseWork
    go
  }

  /** Push frontier slots [lo, hi) through `visit`. */
  private def push(lo: Int, hi: Int, visit: Frontier.Visit): Unit = {
    var buf = new Array[Int](256)
    var len = 0
    var fi = lo
    while (fi < hi) {
      val v = cur(fi)
      val l = labels.get(v)
      var j = g.offsets(v)
      val end = g.offsets(v + 1)
      while (j < end) {
        val w = g.targets(j)
        if (visit.visit(v, l, w)) {
          if (len == buf.length) buf = java.util.Arrays.copyOf(buf, len * 2)
          buf(len) = w; len += 1
        }
        j += 1
      }
      fi += 1
    }
    publish(buf, len)
  }

  /** Pull every vertex of [lo, hi) through `visit`. */
  private def pull(lo: Int, hi: Int, visit: Frontier.Visit): Unit = {
    var buf = new Array[Int](256)
    var len = 0
    var v = lo
    while (v < hi) {
      if (visit.pull(g, v)) {
        if (len == buf.length) buf = java.util.Arrays.copyOf(buf, len * 2)
        buf(len) = v; len += 1
      }
      v += 1
    }
    publish(buf, len)
  }
}

object Frontier {
  /** The least estimated [[Frontier.work]] of a round that is split across
    * the tasks; smaller rounds run on task 0, saving the two barriers a
    * split round costs (the round's own and the task-0 step after it).
    * Measured on the 512x512 torus with 4 tasks on 4 vCPUs, before dense
    * rounds: a barrier costs about 1-1.6 us and a task-0 push about 15-19
    * ns per work unit, so a round at this threshold is 30-40 us of serial
    * work against about 3 us of barriers. Over thresholds from 256 to
    * 65536, LDD (beta 0.2) plus UF-Rem-CAS took a median 22.2-23.7 ms from
    * 256 to 8192 and 28.0 ms at 65536; sparse Label-Prop took 13.0-14.3 ms
    * from 256 to 2048 and 16.0-17.4 ms from 8192 up.
    */
  private[core] val SplitWork: Long = 2048L

  /** The steps of a round. [[Claim]] and Label-Prop's are the only two
    * classes, so the JIT inlines both at each shared call; with a third,
    * Table 6's LDD sampling ran about 20% slower.
    */
  abstract class Visit(
      /** Whether a dense round gives each task one contiguous share of
        * the vertices, which its sweep floods; otherwise the tasks claim
        * blocks of them dynamically.
        */
      private[core] val sweeps: Boolean) {
    /** The round being run, from 1; `cur` is its frontier. Task 0
      * advances it between barriers.
      */
    private[core] var round = 1
    /** The step of a sparse round, called concurrently: claim w from
      * frontier vertex v, whose label is l, atomically; whether w joins
      * the next frontier.
      */
    def visit(v: Int, l: Int, w: Int): Boolean
    /** The step of a dense round, called once for every vertex v, by the
      * task whose share holds v: update v from its neighbours, writing
      * only v's slots; whether v joins the next frontier.
      */
    def pull(g: HostGraph, v: Int): Boolean
  }

  /** The claim of BFS and LDD sampling: an unclaimed w joins the cluster
    * of v. It takes v's label in `ctx.parents` and, in forest runs, the
    * tree edge (v, w). `claimed` holds the round whose frontier a vertex
    * joined (0: unclaimed), so a dense round finds the frontier by it.
    * With `flood` (BFS), a dense round also takes a neighbour claimed
    * earlier in the same round, as BFS's own bottom-up step did before
    * it moved here, so a block's scan carries the claim on through the
    * block, as Label-Prop's sweep carries its label; without a flood, a
    * TW BFS took 2-3x as long, most of it in the largest dense level.
    * LDD keeps to the frontier: MPX wants each vertex in a cluster that
    * reaches it first.
    */
  final class Claim(ctx: RunCtx, flood: Boolean) extends Visit(sweeps = false) {
    val claimed = new AtomicIntegerArray(ctx.n)

    def visit(v: Int, l: Int, w: Int): Boolean =
      claimed.get(w) == 0 && claimed.compareAndSet(w, 0, round + 1) && {
        ctx.parents.set(w, l)
        val fo = ctx.forest
        if (fo != null) fo.set(w, Edge.pack(v, w))
        true
      }

    /** An unclaimed v joins the cluster of its first neighbour in the
      * frontier (with `flood`, its first claimed neighbour). Only v's own
      * task writes v's slots; the release store of its stamp publishes
      * its label and tree edge to a flooding task that reads the stamp.
      */
    def pull(g: HostGraph, v: Int): Boolean = claimed.get(v) == 0 && {
      val end = g.offsets(v + 1)
      var j = g.offsets(v)
      if (flood) while (j < end && claimed.get(g.targets(j)) == 0) j += 1
      else while (j < end && claimed.get(g.targets(j)) != round) j += 1
      j < end && {
        val w = g.targets(j)
        ctx.parents.setPlain(v, ctx.parents.get(w))
        val fo = ctx.forest
        if (fo != null) fo.setPlain(v, Edge.pack(w, v))
        claimed.setRelease(v, round + 1)
        true
      }
    }
  }

  /** A traversal's round state, kept by task 0. */
  trait Kernel {
    /** Task 0, before the first round and after each one: update the
      * round state; whether another round is due.
      */
    def endRound(): Boolean
  }
}
