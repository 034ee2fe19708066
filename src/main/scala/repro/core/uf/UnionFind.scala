package repro.core.uf

import repro.core.Options._
import repro.core.RunCtx
import repro.graph.Edge
import AtomicOps._

/** Concurrent union-find algorithms of Section 3.3.1 (Algorithms 10–14)
  * plus UF-JTB.
  *
  * All unions are min-based: a root is always hooked to a strictly
  * smaller vertex id (except UF-JTB, which hooks by random priority but
  * still only links roots), so the forest stays acyclic and
  * parent(x) <= x holds for non-JTB runs. A union returns true iff this
  * call performed the hook that merged two trees — that is the moment a
  * spanning-forest edge is recorded (Section 3.4).
  */
object UnionFind {

  /** Record edge (u,v) as the forest edge of freshly-hooked root r. */
  @inline private def record(ctx: RunCtx, r: Int, u: Int, v: Int): Unit = {
    val f = ctx.forest
    if (f != null) f.set(r, Edge.pack(u, v))
  }

  /** Dispatch a single union per the variant's Algorithm. */
  def union(ctx: RunCtx, opt: UnionFindOpt, u: Int, v: Int): Boolean = opt.alg match {
    case UfAsync   => unionAsync(ctx, opt.find, u, v)
    case UfHooks   => unionHooks(ctx, opt.find, u, v)
    case UfEarly   => unionEarly(ctx, opt.find, u, v)
    case UfRemCas  => unionRemCas(ctx, opt.find, opt.splice, u, v)
    case UfRemLock => unionRemLock(ctx, opt.find, opt.splice, u, v)
    case UfJtb     => unionJtb(ctx, opt.find, u, v)
  }

  /** Find for queries (streaming ISCONNECTED). */
  def find(ctx: RunCtx, opt: UnionFindOpt, u: Int): Int = opt.alg match {
    case UfJtb => if (opt.find == FindNaive) findNaive(ctx, u) else findTwoTrySplit(ctx, u)
    case UfRemCas | UfRemLock =>
      // Rem's compression options reuse the shared find operators
      opt.find match {
        case FindNaive       => findNaive(ctx, u)
        case FindAtomicSplit => findAtomicSplit(ctx, u)
        case FindAtomicHalve => findAtomicHalve(ctx, u)
        case FindCompress    => findCompress(ctx, u)
      }
    case _ => AtomicOps.find(ctx, opt.find, u)
  }

  // ------------------------------------------------------------ UF-Async
  /** Algorithm 10: find both roots, hook the larger root to the smaller
    * root with a CAS, retry on contention.
    */
  def unionAsync(ctx: RunCtx, f: FindOpt, u: Int, v: Int): Boolean = {
    val p = ctx.parents
    var pu = AtomicOps.find(ctx, f, u)
    var pv = AtomicOps.find(ctx, f, v)
    while (pu != pv) {
      if (pu < pv) { val t = pu; pu = pv; pv = t } // pu is the larger root
      if (p.compareAndSet(pu, pu, pv)) { record(ctx, pu, u, v); return true }
      pu = AtomicOps.find(ctx, f, pu)
      pv = AtomicOps.find(ctx, f, pv)
    }
    false
  }

  // ------------------------------------------------------------ UF-Hooks
  /** Algorithm 11: CAS on an auxiliary hooks array; the parents write is
    * then uncontended.
    */
  def unionHooks(ctx: RunCtx, f: FindOpt, u: Int, v: Int): Boolean = {
    val p = ctx.parents
    val h = ctx.hooks
    var pu = AtomicOps.find(ctx, f, u)
    var pv = AtomicOps.find(ctx, f, v)
    while (pu != pv) {
      if (pu < pv) { val t = pu; pu = pv; pv = t }
      if (h.compareAndSet(pu, -1, pv)) {
        p.set(pu, pv)
        record(ctx, pu, u, v)
        return true
      }
      pu = AtomicOps.find(ctx, f, pu)
      pv = AtomicOps.find(ctx, f, pv)
    }
    false
  }

  // ------------------------------------------------------------ UF-Early
  /** Algorithm 12: walk the two paths together, eagerly trying to hook as
    * soon as the larger side sits at a root; one halving step otherwise.
    * Optionally compresses the endpoints' paths afterwards.
    */
  def unionEarly(ctx: RunCtx, f: FindOpt, u0: Int, v0: Int): Boolean = {
    val p = ctx.parents
    var u = u0; var v = v0
    var hooked = false
    var len = 0
    while (u != v && !hooked) {
      if (u < v) { val t = u; u = v; v = t } // u is larger
      if (p.get(u) == u && p.compareAndSet(u, u, v)) {
        record(ctx, u, u0, v0)
        hooked = true
      } else {
        val z = p.get(u)
        val w = p.get(z)
        if (z != w) p.compareAndSet(u, z, w)
        u = p.get(u)
        len += 1
      }
    }
    ctx.notePath(len)
    if (f != FindNaive) { AtomicOps.find(ctx, f, u0); AtomicOps.find(ctx, f, v0) }
    hooked
  }

  // ---------------------------------------------------------- UF-Rem-CAS
  /** Algorithm 14: Rem's algorithm with CAS hooking at roots and a splice
    * step when stuck at a non-root; compression applied to the endpoints
    * after a successful union when COMPRESS != FindNaive.
    */
  def unionRemCas(ctx: RunCtx, compress: FindOpt, spliceOpt: SpliceOpt,
                  u: Int, v: Int): Boolean = {
    val p = ctx.parents
    var ru = u; var rv = v
    var len = 0
    while (true) {
      var pu = p.get(ru)
      var pv = p.get(rv)
      if (pu == pv) { ctx.notePath(len); return false }
      // WLOG p[ru] > p[rv]
      if (pu < pv) { var t = ru; ru = rv; rv = t; t = pu; pu = pv; pv = t }
      if (ru == pu) { // ru is a root
        if (p.compareAndSet(ru, ru, pv)) {
          record(ctx, ru, u, v)
          if (compress != FindNaive) {
            AtomicOps.find(ctx, compress, u); AtomicOps.find(ctx, compress, v)
          }
          ctx.notePath(len)
          return true
        }
      } else {
        ru = AtomicOps.splice(ctx, spliceOpt, ru, rv)
        len += 1
      }
    }
    false
  }

  // --------------------------------------------------------- UF-Rem-Lock
  /** Algorithm 13: as UF-Rem-CAS but hooks under a per-vertex spinlock
    * (Patwary et al.'s locked Rem variant).
    */
  def unionRemLock(ctx: RunCtx, compress: FindOpt, spliceOpt: SpliceOpt,
                   u: Int, v: Int): Boolean = {
    val p = ctx.parents
    val locks = ctx.locks
    var ru = u; var rv = v
    var len = 0
    while (true) {
      var pu = p.get(ru)
      var pv = p.get(rv)
      if (pu == pv) { ctx.notePath(len); return false }
      if (pu < pv) { var t = ru; ru = rv; rv = t; t = pu; pu = pv; pv = t }
      if (ru == pu) {
        // spin-lock ru, re-check root-ness and ordering under the lock
        while (!locks.compareAndSet(ru, 0, 1)) {}
        val stillRoot = p.get(ru) == ru
        val pv2 = p.get(rv)
        val ok = stillRoot && ru > pv2
        if (ok) p.set(ru, pv2)
        locks.set(ru, 0)
        if (ok) {
          record(ctx, ru, u, v)
          if (compress != FindNaive) {
            AtomicOps.find(ctx, compress, u); AtomicOps.find(ctx, compress, v)
          }
          ctx.notePath(len)
          return true
        }
      } else {
        ru = AtomicOps.splice(ctx, spliceOpt, ru, rv)
        len += 1
      }
    }
    false
  }

  // -------------------------------------------------------------- UF-JTB
  /** Randomized concurrent union-find: hook the root of lower random
    * priority under the other root (linking only roots keeps the
    * structure acyclic; priorities strictly increase along links).
    */
  def unionJtb(ctx: RunCtx, f: FindOpt, u: Int, v: Int): Boolean = {
    val p = ctx.parents
    val prio = ctx.prio
    @inline def jfind(x: Int): Int =
      if (f == FindNaive) findNaive(ctx, x) else findTwoTrySplit(ctx, x)
    var pu = jfind(u)
    var pv = jfind(v)
    while (pu != pv) {
      // hook lower priority under higher priority
      val (lo, hi) = if (prio(pu) < prio(pv)) (pu, pv) else (pv, pu)
      if (p.compareAndSet(lo, lo, hi)) { record(ctx, lo, u, v); return true }
      pu = jfind(pu); pv = jfind(pv)
    }
    false
  }
}
