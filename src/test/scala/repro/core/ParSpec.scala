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
