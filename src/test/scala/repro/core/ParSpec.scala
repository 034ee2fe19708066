package repro.core

import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLong}
import repro.SparkSpec
import repro.graph.SharedState

/** The gang executor: one barrier-mode job whose tasks meet at in-JVM
  * round barriers, and which fails loudly instead of hanging.
  */
class ParSpec extends SparkSpec {

  test("gang runs one task per slot; writes before a barrier are seen after it") {
    val p = Par.taskSlots(spark)
    val rounds = 5
    val seen = new AtomicIntegerArray(p)
    val slots = new Array[Int](p * rounds)
    Par.gang(spark, "visibility") { t =>
      var r = 0
      while (r < rounds) {
        slots(r * t.size + t.index) = r + 1
        t.sync()
        // every peer's write of this round is visible
        var ok = true
        var i = 0
        while (i < t.size) { if (slots(r * t.size + i) != r + 1) ok = false; i += 1 }
        if (ok) seen.incrementAndGet(t.index)
        r += 1
      }
    }
    assert((0 until p).forall(seen.get(_) == rounds))
  }

  test("dynamic ranges cover [0, n) exactly once, loop after loop") {
    val n = 10007
    val hits = new AtomicIntegerArray(n)
    Par.gang(spark, "dynamic") { t =>
      var loop = 0
      while (loop < 3) {
        t.forDynamic(n, 7) { (lo, hi) =>
          var v = lo
          while (v < hi) { hits.incrementAndGet(v); v += 1 }
        }
        loop += 1
      }
    }
    assert((0 until n).forall(hits.get(_) == 3))
  }

  test("single runs on task 0 only") {
    val calls = new AtomicLong(0)
    Par.gang(spark, "single") { t => t.single(calls.incrementAndGet()); t.single(calls.incrementAndGet()) }
    assert(calls.get() == 2)
  }

  test("a task failing in round 2 fails the job fast with its own exception") {
    final class Boom extends RuntimeException("boom in round 2")
    val boom = new Boom
    val base = SharedState.size
    val t0 = System.nanoTime()
    val e = intercept[Boom] {
      Par.gang(spark, "failing") { t =>
        var r = 0
        while (r < 4) {
          if (r == 2 && t.index == t.size - 1) throw boom
          t.sync()
          r += 1
        }
      }
    }
    val sec = (System.nanoTime() - t0) / 1e9
    assert(e eq boom)
    assert(sec < Par.BarrierTimeoutSec / 10.0, s"failure took ${sec}s")
    assert(SharedState.size == base)
    // the executor is usable again afterwards
    Par.gang(spark, "after-failure")(_.sync())
  }

  test("a gang below GrainSize runs on the calling thread as a gang of one") {
    val caller = Thread.currentThread()
    var sizes = List.empty[Int]
    val jobs = jobsOf {
      Par.gang(spark, "inline", work = Par.GrainSize - 1) { t =>
        assert(Thread.currentThread() eq caller)
        t.sync(); t.single(sizes ::= t.size)
      }
    }
    assert(jobs == 0 && sizes == List(1))
    assert(jobsOf(Par.gang(spark, "ganged", work = Par.GrainSize)(_.sync())) == 1)
  }

  test("a failure thrown by every task keeps its message") {
    for (work <- Seq(0L, Par.GrainSize)) {
      val e = intercept[IllegalArgumentException] {
        Par.gang(spark, "no-fixpoint", work) { t => t.sync(); require(false, "X did not converge") }
      }
      assert(e.getMessage.contains("X did not converge"))
    }
  }

  test("progress flags agree on every task without a reset barrier") {
    val rounds = 200
    for (_ <- 0 until 10) {
      val ran = new AtomicIntegerArray(Par.taskSlots(spark))
      val progress = new Par.Progress
      Par.gang(spark, "progress") { t =>
        var r = 0
        do {
          // one task changes something in each of the first rounds
          if (r < rounds && r % t.size == t.index) progress.mark(r)
          t.sync()
          r += 1
        } while (progress.changed(r - 1))
        ran.set(t.index, r)
      }
      assert((0 until ran.length).forall(ran.get(_) == rounds + 1))
    }
  }

  test("task slots come from a local master only") {
    assert(Par.taskSlots("local", 8, 1) == 1)
    assert(Par.taskSlots("local[3]", 8, 1) == 3)
    assert(Par.taskSlots("local[*]", 8, 1) == 8)
    assert(Par.taskSlots("local[4, 2]", 8, 1) == 4)
    assert(Par.taskSlots("local[*]", 8, 2) == 4)
    intercept[IllegalArgumentException](Par.taskSlots("spark://host:7077", 8, 1))
    intercept[IllegalArgumentException](Par.taskSlots("local-cluster[2,1,1024]", 8, 1))
  }
}
