package repro.core.minbased

import java.util.concurrent.atomic.AtomicIntegerArray
import repro.core.{Frontier, Par, RunCtx}
import repro.core.Options._
import repro.core.uf.AtomicOps.writeMin
import repro.graph.{Edge, HostGraph}

/** The "other min-based" finish algorithms (Section 3.3.2): the
  * Liu-Tarjan framework (16 rule combinations) with Shiloach-Vishkin and
  * Stergiou's algorithm as two of its instances, and Label-Propagation.
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
  * SV; on when the run's context holds forest slots) replaces writeMin
  * hooking with a hook-once CAS at the root so each tree merge records
  * exactly one forest edge (see DESIGN.md). The kernels' `prev` array is
  * allocated with the context ([[RunCtx.create]]).
  */
object MinBased {
  /** The finish phase of a min-based option as a task-side step taking the
    * frequent label: install the -1 sentinel on the frequent component
    * (B.2.6), pack the edge store from the CSR (the u < v edges minus those
    * internal to the frequent component; a fresh array each run, which
    * Alter variants may mutate), then run the kernel. Ends in a barrier.
    */
  def finish(g: HostGraph, ctx: RunCtx, f: FinishOpt): (Par.Task, Int) => Unit =
    f match {
      case LabelPropOpt =>
        val lp = new LabelProp(g, ctx)
        (t, frequentid) => {
          if (frequentid >= 0) { installSentinel(t, ctx, frequentid); t.sync() }
          lp(t)
        }
      case _ =>
        val kernel = new LiuTarjan(ctx, f)
        val pack = new HostGraph.UpperPack(g)
        (t, frequentid) => {
          // the pack reads only `sampled`, so it may overlap the sentinel
          // writes; its closing barrier orders both before the kernel
          if (frequentid >= 0) installSentinel(t, ctx, frequentid)
          kernel(t, pack(t, if (frequentid >= 0) ctx.sampled else null, frequentid))
        }
    }

  /** Sentinel -1 on this task's share of the frequent component. */
  private def installSentinel(t: Par.Task, ctx: RunCtx, frequentid: Int): Unit = {
    val s = ctx.sampled
    val (lo, hi) = t.range(ctx.n)
    var v = lo
    while (v < hi) { if (s(v) == frequentid) ctx.parents.set(v, -1); v += 1 }
  }

  // =========================================================== Liu-Tarjan
  /** The edge kernel of SV, Stergiou or a Liu-Tarjan variant (Appendix
    * D.4), over one flat array of packed edges split by
    * [[Par.Task.forDynamic]] each phase, which Alter variants mutate (pass
    * a copy). A round is a connect phase over the edges, a shortcut phase
    * over the vertices (which also takes the `prev` snapshot of each
    * vertex's final label) and, for Alter variants, an alter phase over
    * the edges. Runs to fixpoint and ends in a barrier; one instance serves
    * one gang run.
    *
    * SV (Algorithm 15) runs LT-PRF's rules: hook a root under the smaller
    * parent, then shortcut fully. Stergiou's algorithm is LT-PUS whose
    * connect reads its candidates from the previous round's labels in
    * `prev` (the two-array instance, B.2.5).
    */
  final class LiuTarjan(ctx: RunCtx, f: FinishOpt) {
    private val opt = f match {
      case lt: LiuTarjanOpt => lt
      case ShiloachVishkinOpt => LiuTarjanOpt(ParentConnect, rootUp = true, fullShortcut = true, alter = false)
      case StergiouOpt => LiuTarjanOpt(ParentConnect, rootUp = false, fullShortcut = false, alter = false)
      case other => throw new IllegalArgumentException(s"${other.name} has no edge kernel")
    }
    private val progress = new Par.Progress
    /** RootUp's root test: last round's labels. Null otherwise. */
    private val roots = if (opt.rootUp) ctx.prev else null
    private val connectTag = opt.connect match { case Connect => 0; case ParentConnect => 1; case ExtendedConnect => 2 }

    def apply(t: Par.Task, store: Array[Long]): Unit = {
      // the connect loop, chosen once, not per edge
      val loop = if (opt.connect == ParentConnect && opt.rootUp && !opt.alter) 0 else if (f == StergiouOpt) 1 else 2
      val (vlo, vhi) = t.range(ctx.n)
      if (ctx.prev != null) {
        var v = vlo
        while (v < vhi) { ctx.prev(v) = ctx.parents.get(v); v += 1 }
        t.sync()
      }
      var round = 0
      do {
        val r = round
        // one block body per loop, so the JIT compiles each apart from the
        // others' profiles (a shared body slowed Stergiou by 5-10%)
        t.forDynamic(store.length)(loop match {
          case 0 => (lo, hi) => if (hookRoots(store, lo, hi)) progress.mark(r)
          case 1 => (lo, hi) => if (offerPrev(store, lo, hi)) progress.mark(r)
          case _ => (lo, hi) => if (connectAny(store, lo, hi)) progress.mark(r)
        })
        if (shortcut(vlo, vhi)) progress.mark(r)
        t.sync()
        if (opt.alter) t.forDynamic(store.length) { (lo, hi) => if (alter(store, lo, hi)) progress.mark(r) }
        round += 1
        Par.requireConverging(round, f.name)
      } while (progress.changed(round - 1))
    }

    /** ParentConnect with RootUp (SV): hook the larger label, if it was a
      * root last round, under the smaller. Spanning-forest mode hooks once
      * at the root by CAS, so each tree merge records one forest edge; the
      * forest runs (RootUp, no Alter) all take this loop.
      */
    private def hookRoots(arr: Array[Long], lo: Int, hi: Int): Boolean = {
      val p = ctx.parents
      val roots = this.roots
      val forest = ctx.forest
      var ch = false
      var j = lo
      while (j < hi) {
        val e = arr(j)
        val lu = p.get(Edge.src(e)); val lv = p.get(Edge.dst(e))
        if (lu != lv) {
          val h = math.max(lu, lv); val l = math.min(lu, lv)
          if (roots(h) == h) {
            if (forest == null) { if (writeMin(p, h, l)) ch = true }
            else if (p.compareAndSet(h, h, l)) { forest.set(h, e); ch = true }
          }
        }
        j += 1
      }
      ch
    }

    /** Stergiou: ParentConnect whose candidates are last round's labels. */
    private def offerPrev(arr: Array[Long], lo: Int, hi: Int): Boolean = {
      val p = ctx.parents
      val prev = ctx.prev
      var ch = false
      var j = lo
      while (j < hi) {
        val e = arr(j)
        val u = Edge.src(e); val v = Edge.dst(e)
        val cu = prev(v); val cv = prev(u)
        if (cu < u && writeMin(p, u, cu)) ch = true
        if (cv < v && writeMin(p, v, cv)) ch = true
        j += 1
      }
      ch
    }

    /** Any other rule, over a store Alter may have rewritten: deleted
      * edges are -1, and an altered endpoint may be the -1 sentinel, which
      * is then a candidate (smallest label) but never an update target.
      */
    private def connectAny(arr: Array[Long], lo: Int, hi: Int): Boolean = {
      val p = ctx.parents
      val roots = this.roots
      def upd(x: Int, cand: Int): Boolean =
        x >= 0 && cand < x && (roots == null || roots(x) == x) && writeMin(p, x, cand)
      var ch = false
      var j = lo
      while (j < hi) {
        val e = arr(j)
        if (e != -1L) {
          val u = Edge.src(e); val v = Edge.dst(e)
          if (u < 0 && v < 0) { if (opt.alter) arr(j) = -1L }
          else {
            val lu = if (u >= 0) p.get(u) else -1
            val lv = if (v >= 0) p.get(v) else -1
            val c = connectTag match {
              case 0 => // Connect: endpoints as candidates
                if (roots != null) upd(lu, v) | upd(lv, u) else upd(u, v) | upd(v, u)
              case 1 => // ParentConnect: parents as candidates
                if (roots != null) upd(lu, lv) | upd(lv, lu) else upd(u, lv) | upd(v, lu)
              case _ => // ExtendedConnect: parents offered everywhere
                upd(u, lv) | upd(v, lu) | upd(lu, lv) | upd(lv, lu)
            }
            if (c) ch = true
          }
        }
        j += 1
      }
      ch
    }

    /** Only this task writes its vertices' labels here, so each one's
      * label is final for the round once its shortcut is done: one step
      * to the grandparent, or (full shortcut) straight to the root. Also
      * takes the `prev` snapshot.
      */
    private def shortcut(lo: Int, hi: Int): Boolean = {
      val p = ctx.parents
      val prev = ctx.prev
      val full = opt.fullShortcut
      var ch = false
      var v = lo
      while (v < hi) {
        val pv = p.get(v)
        // roots and the sentinel's vertices keep their label
        val l = if (pv < 0 || pv == v) pv else if (full) ctx.root(pv) else p.get(pv)
        if (l != pv) { p.set(v, l); ch = true }
        if (prev != null) prev(v) = l
        v += 1
      }
      ch
    }

    private def alter(arr: Array[Long], lo: Int, hi: Int): Boolean = {
      val p = ctx.parents
      var ch = false
      var j = lo
      while (j < hi) {
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
            if (ne != e) { arr(j) = ne; ch = true }
          }
        }
        j += 1
      }
      ch
    }
  }

  // ====================================================== Label-Propagation
  /** Folklore frontier-based Label-Propagation (B.2.6) in [[Frontier]]
    * rounds, starting from every vertex; terminates after <= diameter
    * rounds. A sparse round pushes the labels that changed last round to
    * the neighbours with a writeMin. A dense round pulls: every vertex
    * takes the smallest label among itself and its neighbours with a
    * plain store, as only its own task writes it; a vertex at the
    * sentinel -1 skips its scan. Ends in a barrier.
    */
  final class LabelProp(g: HostGraph, ctx: RunCtx) extends Frontier.Visit(sweeps = true) with Frontier.Kernel {
    private[core] val f = new Frontier(g, ctx.parents)
    /** Round in which each vertex last joined the next frontier by a push. */
    private val stamp = new AtomicIntegerArray(g.n)

    // initial frontier: every vertex (sampled/frequent vertices push
    // their sentinel once and then never re-enter)
    def apply(t: Par.Task): Unit =
      f.rounds(t, this, this) { f.cur = Array.range(0, g.n); f.size = g.n }

    // w joins the next frontier once per round
    def visit(v: Int, l: Int, w: Int): Boolean =
      l < ctx.parents.get(w) && writeMin(ctx.parents, w, l) && stamp.get(w) != round && stamp.getAndSet(w, round) != round

    def pull(g: HostGraph, v: Int): Boolean = {
      val p = ctx.parents
      val l = p.getPlain(v)
      l >= 0 && {
        var m = l
        val end = g.offsets(v + 1)
        var j = g.offsets(v)
        while (j < end) { val x = p.getPlain(g.targets(j)); if (x < m) m = x; j += 1 }
        m < l && { p.setPlain(v, m); true }
      }
    }

    def endRound(): Boolean = {
      Par.requireConverging(round, LabelPropOpt.name)
      f.size > 0
    }
  }
}
