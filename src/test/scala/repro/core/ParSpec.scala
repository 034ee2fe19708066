package repro.core

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLong, AtomicReferenceArray}
import org.apache.spark.TaskContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import repro.SparkSpec
import repro.graph.SharedState
import scala.util.Try

/** The gang executor: a resident crew of barrier-mode tasks whose runs
  * meet at in-JVM round barriers, and which fails loudly instead of
  * hanging.
  */
class ParSpec extends SparkSpec {
  /** Longest a Spark job may wait behind a parked crew: below the idle
    * linger, so only the crew's release can let the job through in time.
    */
  private val ParkedJobBoundSec = Par.IdleLingerNs / 1e9

  private def secondsOf(f: => Unit): Double = { val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9 }

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
        t.forDynamic(n) { (lo, hi) =>
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

  test("a task failing while its peers spin at the barrier fails the call within 1 s with its own exception") {
    final class Boom extends RuntimeException("boom in round 50")
    Par.gang(spark, "spin-warm")(_.sync()) // the crew is up before the clock starts
    for (rep <- 1 to 5) {
      val boom = new Boom
      var e: Boom = null
      // the peers reach round 50's barrier with no work in between, so the
      // last task throws while they spin there
      val sec = secondsOf {
        e = intercept[Boom] {
          Par.gang(spark, s"spin-failing-$rep") { t =>
            var r = 0
            while (r < 100) {
              if (r == 50 && t.index == t.size - 1) throw boom
              t.sync()
              r += 1
            }
          }
        }
      }
      assert(e eq boom)
      assert(sec < 1.0, s"rep $rep: failure took ${sec}s")
    }
    Par.gang(spark, "after-spin-failure")(_.sync())
  }

  test("10,000 barrier rounds complete, and every task sees each round's writes") {
    val p = Par.taskSlots(spark)
    val rounds = 10000
    // round r writes row r mod 2: a task can write row r + 1 only after
    // the barrier of round r + 1, which every peer reaches only after
    // reading row r
    val rows = Array.ofDim[Int](2, p)
    val seen = new AtomicIntegerArray(p)
    Par.gang(spark, "many-rounds") { t =>
      var ok = 0
      var r = 1
      while (r <= rounds) {
        val row = rows(r & 1)
        row(t.index) = r
        t.sync()
        var all = true
        var i = 0
        while (i < t.size) { if (row(i) != r) all = false; i += 1 }
        if (all) ok += 1
        r += 1
      }
      seen.set(t.index, ok)
    }
    assert((0 until p).forall(seen.get(_) == rounds), (0 until p).map(seen.get).mkString(","))
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

  // ------------------------------------------------------------- residency

  test("10 consecutive gang runs launch 1 Spark job in total") {
    val base = SharedState.size
    val runs = new AtomicLong(0)
    assert(jobsOf((1 to 10).foreach(i => Par.gang(spark, s"resident-$i")(t => t.single(runs.incrementAndGet())))) == 1)
    assert(runs.get == 10)
    assert(SharedState.size == base)
  }

  test("every run's body runs on the same P distinct Spark task threads, partitions 0..P-1") {
    val p = Par.taskSlots(spark)
    val runs = 5
    val threads = new AtomicReferenceArray[Thread](p * runs)
    val parts = new AtomicIntegerArray(p * runs)
    Par.release(spark)
    for (r <- 0 until runs) Par.gang(spark, s"threads-$r") { t =>
      val ctx = TaskContext.get()
      threads.set(r * p + t.index, Thread.currentThread())
      parts.set(r * p + t.index, if (ctx == null) -1 else ctx.partitionId())
    }
    val caller = Thread.currentThread()
    for (r <- 0 until runs) {
      val ts = (0 until p).map(i => threads.get(r * p + i))
      assert(ts.distinct.length == p && !ts.contains(caller), s"run $r")
      assert((0 until p).forall(i => parts.get(r * p + i) == i), s"run $r")
      assert(ts == (0 until p).map(threads.get), s"run $r ran on other threads than run 0")
    }
  }

  test("a parked crew lets a DataFrame count and a graph intake job through, and the next gang works") {
    val base = SharedState.size
    assert(spark.range(1000).count() == 1000) // first DataFrame action of the JVM: not timed
    Par.gang(spark, "park-1")(_.sync())
    var rows = 0L
    val countSec = secondsOf { rows = spark.range(1000).count() }
    assert(rows == 1000)
    assert(countSec < ParkedJobBoundSec, s"count() took ${countSec}s behind a parked crew")
    Par.gang(spark, "park-2")(_.sync())
    val seen = new AtomicLong(0)
    val rdd = spark.sparkContext.parallelize(1 to 1000, 4)
    val intakeSec = secondsOf(Par.eachPartition(rdd, "parked-intake")((_, it) => seen.addAndGet(it.size.toLong)))
    assert(seen.get == 1000)
    assert(intakeSec < ParkedJobBoundSec, s"eachPartition took ${intakeSec}s behind a parked crew")
    assert(jobsOf(Par.gang(spark, "park-3")(_.sync())) == 1)
    assert(SharedState.size == base)
  }

  test("a throwing body fails only its own run; the crew serves the next") {
    val base = SharedState.size
    final class Boom extends RuntimeException("boom")
    val ok = new AtomicLong(0)
    val jobs = jobsOf {
      Par.gang(spark, "before")(t => t.single(ok.incrementAndGet()))
      intercept[Boom](Par.gang(spark, "throws") { t => t.sync(); if (t.index == 0) throw new Boom; t.sync() })
      Par.gang(spark, "after")(t => t.single(ok.incrementAndGet()))
    }
    assert(jobs == 1 && ok.get == 2)
    assert(SharedState.size == base)
  }

  test("cancelling every job while the crew is parked leaves no call hanging") {
    val base = SharedState.size
    for (i <- 1 to 5) {
      Par.gang(spark, s"parked-$i")(_.sync())
      spark.sparkContext.cancelAllJobs()
      // the cancel is asynchronous: the crew may still take the run, or
      // die under it, which must fail the call by name
      var r: Try[Unit] = null
      val sec = secondsOf { r = Try(Par.gang(spark, s"after-cancel-$i")(_.sync())) }
      r.failed.foreach(e => assert(e.getMessage.contains(s"after-cancel-$i"), e.getMessage))
      assert(sec < ParkedJobBoundSec, s"the call after a cancel took ${sec}s")
    }
    assert(jobsOf(Par.gang(spark, "after-cancels")(_.sync())) == 1)
    assert(SharedState.size == base)
  }

  test("cancelling every job during a run fails that run by name, without hanging") {
    val base = SharedState.size
    val started = new CountDownLatch(Par.taskSlots(spark))
    val canceller = new Thread(() => {
      if (started.await(30, TimeUnit.SECONDS)) spark.sparkContext.cancelAllJobs()
    })
    canceller.start()
    var e: IllegalStateException = null
    val sec = secondsOf {
      e = intercept[IllegalStateException] {
        Par.gang(spark, "cancelled-mid-run") { t =>
          started.countDown()
          while (true) { Thread.sleep(1); t.sync() }
        }
      }
    }
    canceller.join()
    assert(e.getMessage.contains("cancelled-mid-run"), e.getMessage)
    assert(sec < 30, s"the cancelled run took ${sec}s to fail")
    Par.gang(spark, "after-mid-run-cancel")(_.sync())
    assert(SharedState.size == base)
  }

  test("an idle crew leaves on its own after the linger") {
    val crewJobs = ConcurrentHashMap.newKeySet[Int]()
    val ended = new CountDownLatch(1)
    val l = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(Par.CrewTag) != null)) crewJobs.add(e.jobId)
      override def onJobEnd(e: SparkListenerJobEnd): Unit = if (crewJobs.contains(e.jobId)) ended.countDown()
    }
    val sc = spark.sparkContext
    sc.addSparkListener(l)
    try {
      Par.release(spark)
      Par.gang(spark, "lingering")(_.sync())
      val t0 = System.nanoTime()
      assert(ended.await(Par.IdleLingerNs / 1000000L + 10000L, TimeUnit.MILLISECONDS), "the idle crew did not leave")
      assert(System.nanoTime() - t0 >= Par.IdleLingerNs / 2, "the crew left before it was idle for the linger")
    } finally sc.removeSparkListener(l)
  }
}
