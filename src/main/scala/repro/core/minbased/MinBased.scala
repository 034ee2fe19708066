package repro.core.minbased

import java.util.concurrent.atomic.AtomicIntegerArray
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.core.sampling.Frontier
import repro.core.uf.AtomicOps.writeMin
import repro.graph.{Edge, HostGraph}

/** The "other min-based" finish algorithms (Section 3.3.2):
  * the Liu-Tarjan framework (16 rule combinations), Stergiou's two-array
  * algorithm, Shiloach-Vishkin (Algorithm 15) and Label-Propagation.
  *
  * All are round-synchronous: each is a task-side kernel of a gang run
  * ([[Par.gang]]), and one round is a few phases over the shared parents
  * array separated by the gang's barriers; writeMin provides the
  * min-labeling semantics. The sentinel label -1 (installed for the
  * sampled frequent component, B.2.6) is smaller than every vertex id, so
  * the frequent component's vertices never change labels and their ids
  * spread to everything reachable.
  *
  * Spanning-forest mode (root-based variants only: RootUp Liu-Tarjan and
  * SV) replaces writeMin hooking with a hook-once CAS at the root so each
  * tree merge records exactly one forest edge (see DESIGN.md).
  */
object MinBased {
  private val RoundCap = 100000 // safety net against a non-converging rule

  /** Task-side kernel of a finish over an edge store: chunks of packed
    * edges, which Alter variants mutate (pass a copy). Runs to fixpoint
    * and ends in a barrier; one instance serves one gang run.
    */
  trait EdgeKernel { def apply(t: Par.Task, store: Array[Array[Long]]): Unit }

  /** The edge kernel of SV or a Liu-Tarjan variant (streaming batches). */
  def edgeKernel(ctx: RunCtx, f: FinishOpt, forestMode: Boolean): EdgeKernel = f match {
    case lt: LiuTarjanOpt => new LiuTarjan(ctx, lt, forestMode)
    case StergiouOpt => new Stergiou(ctx)
    case ShiloachVishkinOpt => new ShiloachVishkin(ctx, forestMode)
    case other => throw new IllegalArgumentException(s"${other.name} has no edge kernel")
  }

  /** The finish phase of a min-based option as a task-side step taking the
    * frequent label: install the -1 sentinel on the frequent component
    * (B.2.6), build the edge store (the graph's edges minus those internal
    * to the frequent component, copied when Alter mutates them), then run
    * the kernel. Ends in a barrier.
    */
  def finish(g: HostGraph, ctx: RunCtx, f: FinishOpt, forestMode: Boolean): (Par.Task, Int) => Unit =
    f match {
      case LabelPropOpt =>
        val lp = new LabelProp(g, ctx)
        (t, frequentid) => {
          if (frequentid >= 0) { installSentinel(t, ctx, frequentid); t.sync() }
          lp(t)
        }
      case _ =>
        val kernel = edgeKernel(ctx, f, forestMode)
        val copy = f match { case lt: LiuTarjanOpt => lt.alter; case _ => false }
        val store = new Array[Array[Long]](g.chunks.length)
        (t, frequentid) =>
          if (frequentid < 0 && !copy) kernel(t, g.chunks)
          else {
            if (frequentid >= 0) installSentinel(t, ctx, frequentid)
            val s = ctx.sampled
            t.forDynamic(store.length, 1) { (lo, hi) =>
              var c = lo
              while (c < hi) {
                val arr = g.chunks(c)
                store(c) =
                  if (frequentid < 0) arr.clone()
                  else arr.filter { e =>
                    !(s(Edge.src(e)) == frequentid && s(Edge.dst(e)) == frequentid)
                  }
                c += 1
              }
            }
            kernel(t, store)
          }
    }

  /** Sentinel -1 on this task's share of the frequent component. */
  private def installSentinel(t: Par.Task, ctx: RunCtx, frequentid: Int): Unit = {
    val s = ctx.sampled
    val (lo, hi) = t.range(ctx.n)
    var v = lo
    while (v < hi) { if (s(v) == frequentid) ctx.parents.set(v, -1); v += 1 }
  }

  /** `prev` := `parents` on this task's share of the vertices, then a barrier. */
  private def snapshotPrev(t: Par.Task, ctx: RunCtx): Unit = {
    val (lo, hi) = t.range(ctx.n)
    var v = lo
    while (v < hi) { ctx.prev(v) = ctx.parents.get(v); v += 1 }
    t.sync()
  }

  // =========================================================== Liu-Tarjan
  /** One Liu-Tarjan variant. A round is a connect phase over the edges, a
    * shortcut phase over the vertices (which also takes the RootUp
    * snapshot of each vertex's final label) and, for Alter variants, an
    * alter phase over the edges.
    */
  final class LiuTarjan(ctx: RunCtx, opt: LiuTarjanOpt, forestMode: Boolean) extends EdgeKernel {
    require(!forestMode || (opt.rootUp && !opt.alter),
      "forest requires a RootUp, non-Alter variant (3.4; Alter rewrites " +
      "edge endpoints to labels, so altered edges are not graph edges)")
    if (opt.rootUp) ctx.ensurePrev()
    private val progress = new Par.Progress
    private val connectTag = opt.connect match {
      case Connect => 0; case ParentConnect => 1; case ExtendedConnect => 2
    }

    def apply(t: Par.Task, store: Array[Array[Long]]): Unit = {
      if (opt.rootUp) snapshotPrev(t, ctx)
      val (vlo, vhi) = t.range(ctx.n)
      var round = 0
      do {
        val r = round
        t.forDynamic(store.length, 1) { (lo, hi) =>
          var c = lo; while (c < hi) { connect(store(c), r); c += 1 }
        }
        shortcut(vlo, vhi, r)
        t.sync()
        if (opt.alter) t.forDynamic(store.length, 1) { (lo, hi) =>
          var c = lo; while (c < hi) { alter(store(c), r); c += 1 }
        }
        round += 1
        require(round < RoundCap, s"Liu-Tarjan ${opt.name} did not converge")
      } while (progress.changed(round - 1))
    }

    private def connect(arr: Array[Long], r: Int): Unit = {
      val p = ctx.parents
      val prev = ctx.prev
      val rootUp = opt.rootUp
      // eu/ev: the original graph edge being applied (forest recording)
      @inline def upd(x: Int, cand: Int, eu: Int, ev: Int): Unit = {
        if (x >= 0 && cand < x) {
          if (forestMode) {
            // hook-once at the root: one forest edge per tree merge
            if (p.compareAndSet(x, x, cand)) {
              val fo = ctx.forest
              if (fo != null) fo.set(x, Edge.pack(eu, ev))
              progress.mark(r)
            }
          } else if (rootUp) {
            if (prev(x) == x && writeMin(p, x, cand)) progress.mark(r)
          } else {
            if (writeMin(p, x, cand)) progress.mark(r)
          }
        }
      }
      var j = 0
      while (j < arr.length) {
        val e = arr(j)
        if (e != -1L) {
          val u = Edge.src(e); val v = Edge.dst(e)
          if (u < 0 && v < 0) { if (opt.alter) arr(j) = -1L }
          else {
            // an altered endpoint may be the -1 sentinel: it is then a
            // candidate (smallest label) but never an update target
            // (upd guards x >= 0 / cand < x).
            val lu = if (u >= 0) p.get(u) else -1
            val lv = if (v >= 0) p.get(v) else -1
            connectTag match {
              case 0 => // Connect: endpoints as candidates
                if (rootUp) { upd(lu, v, u, v); upd(lv, u, u, v) }
                else { upd(u, v, u, v); upd(v, u, u, v) }
              case 1 => // ParentConnect: parents as candidates
                if (rootUp) { upd(lu, lv, u, v); upd(lv, lu, u, v) }
                else { upd(u, lv, u, v); upd(v, lu, u, v) }
              case 2 => // ExtendedConnect: parents offered everywhere
                upd(u, lv, u, v); upd(v, lu, u, v)
                upd(lu, lv, u, v); upd(lv, lu, u, v)
            }
          }
        }
        j += 1
      }
    }

    /** Only this task writes its vertices' labels here, so each one's
      * label is final for the round once its shortcut is done.
      */
    private def shortcut(lo: Int, hi: Int, r: Int): Unit = {
      val p = ctx.parents
      var v = lo
      while (v < hi) {
        var pv = p.get(v)
        var go = true
        while (go && pv >= 0 && pv != v) {
          val gp = p.get(pv)
          if (gp != pv) {
            if (writeMin(p, v, gp)) progress.mark(r)
            if (opt.fullShortcut) pv = p.get(v) else go = false
          } else go = false
        }
        if (opt.rootUp) ctx.prev(v) = p.get(v)
        v += 1
      }
    }

    private def alter(arr: Array[Long], r: Int): Unit = {
      val p = ctx.parents
      var j = 0
      while (j < arr.length) {
        val e = arr(j)
        if (e != -1L) {
          val u = Edge.src(e); val v = Edge.dst(e)
          val lu = if (u >= 0) p.get(u) else u
          val lv = if (v >= 0) p.get(v) else v
          if (lu == lv) arr(j) = -1L
          else {
            val ne = Edge.pack(lu, lv)
            // a live edge whose endpoints moved can enable updates next
            // round (labels monotonically decrease, so this cannot loop
            // forever) — it counts as progress.
            if (ne != e) { arr(j) = ne; progress.mark(r) }
          }
        }
        j += 1
      }
    }
  }

  // ============================================================= Stergiou
  /** Stergiou et al.: ParentConnect reading the previous round's parents
    * into the current array, plus a shortcut that also takes the next
    * round's snapshot (B.2.5).
    */
  final class Stergiou(ctx: RunCtx) extends EdgeKernel {
    ctx.ensurePrev()
    private val progress = new Par.Progress

    def apply(t: Par.Task, store: Array[Array[Long]]): Unit = {
      val p = ctx.parents
      val prev = ctx.prev
      snapshotPrev(t, ctx)
      val (vlo, vhi) = t.range(ctx.n)
      var round = 0
      do {
        val r = round
        t.forDynamic(store.length, 1) { (lo, hi) =>
          var c = lo
          while (c < hi) {
            val arr = store(c)
            var j = 0
            while (j < arr.length) {
              val e = arr(j)
              val u = Edge.src(e); val v = Edge.dst(e)
              val lu = prev(u); val lv = prev(v)
              if (lv < u && writeMin(p, u, lv)) progress.mark(r)
              if (lu < v && writeMin(p, v, lu)) progress.mark(r)
              j += 1
            }
            c += 1
          }
        }
        var v = vlo
        while (v < vhi) {
          val pv = p.get(v)
          if (pv >= 0 && pv != v) {
            val gp = p.get(pv)
            if (gp != pv && writeMin(p, v, gp)) progress.mark(r)
          }
          prev(v) = p.get(v)
          v += 1
        }
        t.sync()
        round += 1
        require(round < RoundCap, "Stergiou did not converge")
      } while (progress.changed(round - 1))
    }
  }

  // ====================================================== Shiloach-Vishkin
  /** Algorithm 15: per round, hook roots via the lowest incident label,
    * then fully shortcut every vertex; prev tracks last round's labels.
    */
  final class ShiloachVishkin(ctx: RunCtx, forestMode: Boolean) extends EdgeKernel {
    ctx.ensurePrev()
    private val progress = new Par.Progress

    def apply(t: Par.Task, store: Array[Array[Long]]): Unit = {
      val p = ctx.parents
      val prev = ctx.prev
      snapshotPrev(t, ctx)
      val (vlo, vhi) = t.range(ctx.n)
      var round = 0
      do {
        val r = round
        t.forDynamic(store.length, 1) { (lo, hi) =>
          var c = lo
          while (c < hi) {
            val arr = store(c)
            var j = 0
            while (j < arr.length) {
              val e = arr(j)
              val u = Edge.src(e); val v = Edge.dst(e)
              val pu = p.get(u); val pv = p.get(v)
              if (pu != pv) {
                val l = math.min(pu, pv); val h = math.max(pu, pv)
                if (h >= 0 && prev(h) == h) {
                  if (forestMode) {
                    if (p.compareAndSet(h, h, l)) {
                      val fo = ctx.forest
                      if (fo != null) fo.set(h, Edge.pack(u, v))
                      progress.mark(r)
                    }
                  } else if (writeMin(p, h, l)) progress.mark(r)
                }
              }
              j += 1
            }
            c += 1
          }
        }
        // full shortcut + prev snapshot
        var v = vlo
        while (v < vhi) {
          var x = v
          var px = p.get(x)
          while (px >= 0 && px != x) { x = px; px = p.get(x) }
          val root = if (px < 0) px else x
          p.set(v, root)
          prev(v) = root
          v += 1
        }
        t.sync()
        round += 1
        require(round < RoundCap, "Shiloach-Vishkin did not converge")
      } while (progress.changed(round - 1))
    }
  }

  // ====================================================== Label-Propagation
  /** Folklore frontier-based Label-Propagation (B.2.6): vertices whose
    * label changed last round push their label to neighbours with a
    * writeMin; terminates after <= diameter rounds. A round whose
    * frontier work reaches [[Par.GrainSize]] is split across the tasks in
    * static ranges; smaller rounds run back to back on task 0 inside one
    * task-0 step, as BFS levels do. Ends in a barrier.
    */
  final class LabelProp(g: HostGraph, ctx: RunCtx) {
    private val f = new Frontier(g.n)
    /** Round in which each vertex last joined the next frontier. */
    private val stamp = new AtomicIntegerArray(g.n)
    /** The round being run (from 1); written by task 0 between barriers. */
    private var round = 1

    def apply(t: Par.Task): Unit = {
      // initial frontier: every vertex (sampled/frequent vertices push
      // their sentinel once and then never re-enter)
      t.single { f.cur = Array.range(0, g.n); f.size = g.n; smallRounds() }
      while (f.size > 0) {
        val (lo, hi) = t.range(f.size)
        push(lo, hi)
        t.sync()
        t.single { endRound(); smallRounds() }
      }
    }

    private def smallRounds(): Unit =
      while (f.size > 0 && f.work(g) < Par.GrainSize) { push(0, f.size); endRound() }

    private def endRound(): Unit = {
      f.advance()
      round += 1
      require(round <= RoundCap, "Label-Propagation did not converge")
    }

    /** Push the labels of frontier slots [lo, hi). */
    private def push(lo: Int, hi: Int): Unit = {
      val p = ctx.parents
      val r = round
      var buf = new Array[Int](256)
      var len = 0
      var fi = lo
      while (fi < hi) {
        val v = f.cur(fi)
        val l = p.get(v)
        var j = g.offsets(v)
        val end = g.offsets(v + 1)
        while (j < end) {
          val w = g.targets(j)
          if (l < p.get(w) && writeMin(p, w, l)) {
            // schedule w once per round
            var s = stamp.get(w)
            var claimed = false
            while (s != r && !claimed) {
              if (stamp.compareAndSet(w, s, r)) claimed = true
              else s = stamp.get(w)
            }
            if (claimed) {
              if (len == buf.length) buf = java.util.Arrays.copyOf(buf, len * 2)
              buf(len) = w; len += 1
            }
          }
          j += 1
        }
        fi += 1
      }
      f.publish(buf, len)
    }
  }
}
