package repro.core.uf

import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLongArray}
import repro.core.Options._
import repro.core.RunCtx

/** Atomic primitives and the find / splice operators of Algorithm 8 / 9.
  *
  * All operators run concurrently on the shared parents array; the
  * invariant maintained by every linking algorithm (and restored after
  * sampling by label normalization, see `ConnectIt.sampleAndNormalize`) is
  * parent(x) <= x, so walks terminate.
  */
object AtomicOps {

  /** writeMin (Appendix A): atomically lower the value at i to v. */
  def writeMin(a: AtomicIntegerArray, i: Int, v: Int): Boolean = {
    var c = a.get(i)
    while (v < c) {
      if (a.compareAndSet(i, c, v)) return true
      c = a.get(i)
    }
    false
  }

  /** writeMin on a `Long` slot. */
  def writeMin(a: AtomicLongArray, i: Int, v: Long): Boolean = {
    var c = a.get(i)
    while (v < c) {
      if (a.compareAndSet(i, c, v)) return true
      c = a.get(i)
    }
    false
  }

  // --------------------------------------------------------------- finds
  def findNaive(ctx: RunCtx, u0: Int): Int = {
    val p = ctx.parents
    var v = u0
    var len = 0
    var pv = p.get(v)
    while (pv != v) { v = pv; pv = p.get(v); len += 1 }
    ctx.notePath(len)
    v
  }

  def findCompress(ctx: RunCtx, u0: Int): Int = {
    val p = ctx.parents
    var r = u0
    var len = 0
    var pr = p.get(r)
    if (pr == r) return r
    while (pr != r) { r = pr; pr = p.get(r); len += 1 }
    ctx.notePath(len)
    // compress the path from u0 down to r
    var u = u0
    var j = p.get(u)
    while (j > r) {
      p.compareAndSet(u, j, r)
      u = j
      j = p.get(u)
    }
    r
  }

  /** Path splitting: every node on the path points to its grandparent. */
  def findAtomicSplit(ctx: RunCtx, u0: Int): Int = {
    val p = ctx.parents
    var u = u0
    var len = 0
    var v = p.get(u)
    var w = p.get(v)
    while (v != w) {
      p.compareAndSet(u, v, w)
      u = v
      v = p.get(u); w = p.get(v)
      len += 1
    }
    ctx.notePath(len)
    v
  }

  /** Path halving: every other node points to its grandparent. */
  def findAtomicHalve(ctx: RunCtx, u0: Int): Int = {
    val p = ctx.parents
    var u = u0
    var len = 0
    var v = p.get(u)
    var w = p.get(v)
    while (v != w) {
      p.compareAndSet(u, v, w)
      u = p.get(u)
      v = p.get(u); w = p.get(v)
      len += 1
    }
    ctx.notePath(len)
    v
  }

  /** Two-try splitting (UF-JTB, Jayanti–Tarjan–Boix-Adserà): walk to the
    * root performing at most two CAS split attempts along the way.
    */
  def findTwoTrySplit(ctx: RunCtx, u0: Int): Int = {
    val p = ctx.parents
    var u = u0
    var tries = 0
    var len = 0
    var v = p.get(u)
    var w = p.get(v)
    while (v != w) {
      if (tries < 2) { p.compareAndSet(u, v, w); tries += 1 }
      u = v
      v = p.get(u); w = p.get(v)
      len += 1
    }
    ctx.notePath(len)
    v
  }

  def find(ctx: RunCtx, opt: FindOpt, u: Int): Int = opt match {
    case FindNaive       => findNaive(ctx, u)
    case FindAtomicSplit => findAtomicSplit(ctx, u)
    case FindAtomicHalve => findAtomicHalve(ctx, u)
    case FindCompress    => findCompress(ctx, u)
  }

  // -------------------------------------------------------------- splice
  /** SplitAtomicOne (Alg 9): one path-splitting step at u; returns v. */
  def splitAtomicOne(ctx: RunCtx, u: Int): Int = {
    val p = ctx.parents
    val v = p.get(u)
    val w = p.get(v)
    if (v != w) p.compareAndSet(u, v, w)
    v
  }

  /** HalveAtomicOne (Alg 9): one path-halving step at u; returns w. */
  def halveAtomicOne(ctx: RunCtx, u: Int): Int = {
    val p = ctx.parents
    val v = p.get(u)
    val w = p.get(v)
    if (v != w) p.compareAndSet(u, v, w)
    w
  }

  /** SpliceAtomic (Alg 9): splice u's parent pointer toward v's tree.
    * Only redirects downward (guard pv < pu) to preserve the
    * parent(x) <= x invariant under concurrency; returns old parent.
    */
  def spliceAtomic(ctx: RunCtx, u: Int, v: Int): Int = {
    val p = ctx.parents
    val pu = p.get(u)
    val pv = p.get(v)
    if (pv < pu) p.compareAndSet(u, pu, pv)
    pu
  }

  def splice(ctx: RunCtx, opt: SpliceOpt, u: Int, v: Int): Int = opt match {
    case SplitAtomicOne => splitAtomicOne(ctx, u)
    case HalveAtomicOne => halveAtomicOne(ctx, u)
    case SpliceAtomic   => spliceAtomic(ctx, u, v)
  }
}
