package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import repro.graph.{Edge, HostGraph}

/** The one frontier round of BFS and LDD sampling and Label-Prop: the
  * sparse `edgeMap` of Ligra, in which the paper writes all three
  * (§3.2.2, B.2.6). A round pushes each frontier vertex's label (in
  * `labels`) along its CSR slots through a [[Frontier.Visit]]. A round
  * whose estimated [[work]] reaches [[Frontier.SplitWork]] is split across
  * the tasks at the price of two barriers; runs of smaller rounds go back
  * to back on task 0 inside one task-0 step. A split gives each task
  * one contiguous share: a sweep through it carries Label-Prop's smallest
  * label through the whole share in one round (with 16 dynamically
  * claimed blocks per task, Label-Prop on the 512x512 torus took 5x longer).
  */
final class Frontier(g: HostGraph, labels: AtomicIntegerArray) {
  var cur: Array[Int] = new Array[Int](16)
  var size: Int = 0
  private val next = new Array[Int](g.n)
  private val nextCnt = new AtomicInteger(0)
  /** Whether another round is due; written by task 0 between barriers. */
  private var more = false
  /** Rounds run so far split across the tasks and on task 0 alone;
    * written by task 0 between barriers.
    */
  private[core] var splitRounds = 0
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

  private def advance(): Unit = {
    size = nextCnt.getAndSet(0)
    if (cur.length < size) cur = new Array[Int](size)
    System.arraycopy(next, 0, cur, 0, size)
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
      if (k.dense) k.denseRound(t)
      else {
        if (t.index == 0) splitRounds += 1
        val (lo, hi) = t.range(size); push(lo, hi, visit); t.sync()
      }
      t.single { advance(); more = k.endRound() && smallRounds(visit, k) }
    }
  }

  /** Task 0: sparse rounds while they are too small to split; whether
    * another round is due.
    */
  private def smallRounds(visit: Frontier.Visit, k: Frontier.Kernel): Boolean = {
    var go = true
    while (go && !k.dense && work < Frontier.SplitWork) {
      push(0, size, visit); advance(); serialRounds += 1; go = k.endRound()
    }
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
}

object Frontier {
  /** The least estimated [[Frontier.work]] of a round that is split across
    * the tasks; smaller rounds run on task 0, saving the two barriers a
    * split round costs (the round's own and the task-0 step after it).
    * Measured on the 512x512 torus with 4 tasks on 4 vCPUs: a barrier
    * costs about 1-1.6 us and a task-0 push about 15-19 ns per work unit,
    * so a round at this threshold is 30-40 us of serial work against
    * about 3 us of barriers. Over thresholds from 256 to 65536, LDD
    * (beta 0.2) plus UF-Rem-CAS took a median 22.2-23.7 ms from 256 to
    * 8192 and 28.0 ms at 65536; Label-Prop took 13.0-14.3 ms from 256 to
    * 2048 and 16.0-17.4 ms from 8192 up.
    */
  private[core] val SplitWork: Long = 2048L

  /** The per-edge step of a round, called concurrently: claim w from
    * frontier vertex v, whose label is l, atomically; whether w joins
    * the next frontier.
    * [[Claim]] and Label-Prop's are the only two classes, so the JIT
    * inlines both at the shared call; with a third, Table 6's LDD
    * sampling ran about 20% slower.
    */
  abstract class Visit { def visit(v: Int, l: Int, w: Int): Boolean }

  /** The claim of BFS and LDD sampling: an unclaimed w joins the cluster
    * of v. It takes v's label in `ctx.parents` and, in forest runs, the
    * tree edge (v, w).
    */
  final class Claim(ctx: RunCtx) extends Visit {
    val claimed = new AtomicIntegerArray(ctx.n)

    def visit(v: Int, l: Int, w: Int): Boolean =
      claimed.get(w) == 0 && claimed.compareAndSet(w, 0, 1) && {
        ctx.parents.set(w, l)
        val fo = ctx.forest
        if (fo != null) fo.set(w, Edge.pack(v, w))
        true
      }
  }

  /** A traversal's round state, kept by task 0. */
  trait Kernel {
    /** Task 0, before the first round and after each one: update the
      * round state; whether another round is due.
      */
    def endRound(): Boolean
    /** Whether the next round is the kernel's own dense step instead: every
      * task runs `denseRound`, which publishes the next frontier and syncs.
      */
    def dense: Boolean = false
    def denseRound(t: Par.Task): Unit = ()
  }
}
