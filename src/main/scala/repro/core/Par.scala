package repro.core

import java.util.concurrent.{Phaser, TimeUnit, TimeoutException}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference}
import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.graph.SharedState

/** Spark-side parallel execution: the substrate for all kernels.
  *
  * Every kernel runs through [[gang]]: a whole multi-round computation is
  * ONE barrier-mode Spark job whose P tasks (P = the task slots of the
  * local master) start together and stay alive for the run. The paper's
  * fork-join barrier between rounds is a `java.util.concurrent.Phaser`
  * shared by the tasks, costing tens of microseconds instead of a job
  * launch; Spark's own `BarrierTaskContext.barrier()` is an RPC round
  * trip through the driver, about a second per call, so it is not used.
  * Below [[GrainSize]] of work the body runs on the calling thread as a
  * gang of one. A gang body is registered in [[SharedState]] and never
  * serialized, so it captures the run's shared objects directly; this is
  * valid only in local mode, which [[gang]] checks. [[eachPartition]]
  * hands a registered body the rows of an existing RDD's partitions (the
  * graph intake). [[jobs]] (serialized chunk closures) serves only the
  * Table 8 edge-map baselines.
  */
object Par {
  /** Granularity control: below this estimated work a [[gang]] runs on
    * the calling thread, and inside a gang a BFS level or Label-Propagation
    * round runs on task 0 instead of being split.
    */
  val GrainSize: Long = 65536L

  def jobs(spark: SparkSession, nChunks: Int)(f: Int => Unit): Unit =
    spark.sparkContext.parallelize(0 until nChunks, nChunks).foreach(f)

  /** Default kernel fan-out: 2 tasks per core. */
  def defaultChunks(spark: SparkSession): Int =
    math.max(1, 2 * spark.sparkContext.defaultParallelism)

  /** Split [0, n) into nChunks ranges; returns (lo, hi) for chunk i. */
  def range(n: Int, nChunks: Int, i: Int): (Int, Int) = {
    val per = (n + nChunks - 1) / nChunks
    val lo = math.min(n, i * per)
    (lo, math.min(n, lo + per))
  }

  // ================================================================ gang
  /** How long a task waits at a gang barrier for its peers before it
    * fails the run. No legitimate round keeps a task waiting this long:
    * dynamic ranges leave at most one block of imbalance, and the
    * task-0-only steps are short sequential passes.
    */
  private[core] val BarrierTimeoutSec: Long = 120L

  private val LocalN = """local\[\s*([0-9]+|\*)\s*(?:,\s*[0-9]+\s*)?\]""".r

  /** Task slots of a Spark master that runs tasks inside this JVM:
    * `local` is 1, `local[N]` / `local[N,F]` is N, `local[*]` is `cores`;
    * each task takes `taskCpus` of them. Any other master is rejected:
    * gang tasks share memory with the driver through [[SharedState]].
    */
  def taskSlots(master: String, cores: Int, taskCpus: Int): Int = {
    val n = master.trim match {
      case "local" => 1
      case LocalN("*") => cores
      case LocalN(k) => k.toInt
      case other => throw new IllegalArgumentException(
        s"gang jobs need a local master (local, local[N], local[*]); got '$other'")
    }
    math.max(1, n / math.max(1, taskCpus))
  }

  /** Task slots of this session's master (the default gang size). */
  def taskSlots(spark: SparkSession): Int = {
    val sc = spark.sparkContext
    taskSlots(sc.master, Runtime.getRuntime.availableProcessors, sc.getConf.getInt("spark.task.cpus", 1))
  }

  private val gangCounter = new AtomicLong(0)

  /** Run `body` on P tasks of one barrier-mode Spark job, P = the task
    * slots, so every task of the gang can start at once. The tasks
    * synchronize through [[Task.sync]]. If a task throws, its peers stop
    * at their next barrier and this call throws the original exception.
    * `run` names the run in errors. If `work` is below [[GrainSize]] the
    * body runs on the calling thread as a gang of one, whose barriers
    * return at once.
    */
  def gang(spark: SparkSession, run: String, work: Long = Long.MaxValue)(body: Task => Unit): Unit = {
    if (work < GrainSize) { new Gang(run, 1, body).runTask(0); return }
    val size = taskSlots(spark)
    val key = s"gang:$run#${gangCounter.incrementAndGet()}"
    val g = new Gang(key, size, body)
    SharedState.put(key, g)
    try {
      spark.sparkContext.parallelize(0 until size, size).barrier()
        .mapPartitions { it => SharedState.get[Gang](key).runTask(it.next()); Iterator.empty[Int] }
        .count()
    } catch {
      case e: Throwable =>
        g.abort()
        throw Option(g.failure.get).getOrElse(e)
    } finally SharedState.remove(key)
  }

  /** Run `f(partition, rows)` on every partition of `rdd` in one Spark
    * job. Like a gang body, `f` is registered in [[SharedState]] and never
    * serialized, so it can write its results straight into driver arrays.
    * If a task throws, this call throws that task's exception.
    */
  def eachPartition[T](rdd: RDD[T], run: String)(f: (Int, Iterator[T]) => Unit): Unit = {
    val key = s"part:$run#${gangCounter.incrementAndGet()}"
    val failure = new AtomicReference[Throwable]()
    val body: (Int, Iterator[T]) => Unit = (p, it) =>
      try f(p, it) catch { case e: Throwable => failure.compareAndSet(null, e); throw e }
    SharedState.put(key, body)
    try rdd.foreachPartition { it =>
      SharedState.get[(Int, Iterator[T]) => Unit](key)(TaskContext.getPartitionId(), it)
    } catch {
      case e: Throwable => throw Option(failure.get).getOrElse(e)
    } finally SharedState.remove(key)
  }

  /** Whether a round of a gang loop changed anything. A task that makes a
    * change in round r calls `mark(r)`; after the barrier that closes
    * round r every task asks `changed(r)`. Nothing is ever reset, so no
    * reset can race a slow reader: a mark of round r + 1 exists only once
    * some task has seen round r change, so every task gets the same
    * answer. One instance serves one loop.
    */
  final class Progress {
    private val last = new AtomicInteger(-1)
    def mark(round: Int): Unit = if (last.get() < round) last.set(round)
    def changed(round: Int): Boolean = last.get() >= round
  }

  /** Thrown at a barrier when a peer has failed; the peer's exception is
    * the one reported.
    */
  private final class PeerFailed(run: String)
    extends RuntimeException(s"$run: stopped because a peer task failed", null, false, false)

  /** Shared state of one gang run: the round barrier, the first failure
    * and the cursors of dynamically claimed ranges.
    */
  private[core] final class Gang(val id: String, val size: Int, body: Task => Unit) {
    private val phaser = new Phaser(size)
    val failure = new AtomicReference[Throwable]()
    private val live = new AtomicInteger(0)
    /** Cursors of dynamic loops, used alternately (see [[Task.forDynamic]]). */
    val cursors: Array[AtomicInteger] = Array.fill(2)(new AtomicInteger(0))

    def runTask(index: Int): Unit = {
      // a retried attempt of a failed stage must not run the body again
      if (phaser.isTerminated) throw new PeerFailed(id)
      live.incrementAndGet()
      try body(new Task(this, index))
      catch {
        case e: Throwable =>
          if (!e.isInstanceOf[PeerFailed]) failure.compareAndSet(null, e)
          phaser.forceTermination()
          throw e
      } finally live.decrementAndGet()
    }

    def await(round: Int): Unit = {
      val phase = phaser.arrive()
      if (phase < 0) throw new PeerFailed(id)
      val next =
        try phaser.awaitAdvanceInterruptibly(phase, BarrierTimeoutSec, TimeUnit.SECONDS)
        catch {
          case _: TimeoutException => throw new IllegalStateException(
            s"$id: barrier of round $round timed out after ${BarrierTimeoutSec}s " +
            "waiting for peer tasks (a task is stuck or did not reach the barrier)")
        }
      if (next < 0) throw new PeerFailed(id)
    }

    /** After a failed job: stop every task at its next barrier and wait
      * until none is still inside the body, so a failed run leaves nothing
      * running behind it.
      */
    def abort(): Unit = {
      phaser.forceTermination()
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(BarrierTimeoutSec)
      while (live.get() > 0 && System.nanoTime() < deadline) Thread.sleep(1)
    }
  }

  /** One task's view of a gang run. All tasks must make the same
    * sequence of [[sync]] / [[single]] / [[forDynamic]] calls.
    */
  final class Task private[Par] (gang: Gang, val index: Int) {
    def size: Int = gang.size
    private var round = 0
    private var loops = 0

    /** Round barrier: returns once every task has reached it. Writes made
      * before it are visible to every task after it.
      */
    def sync(): Unit = { gang.await(round); round += 1 }

    /** Task 0 runs `f`, then all tasks meet at a barrier. Whatever `f`
      * touches must not have been read or written by other tasks since
      * the last barrier.
      */
    def single(f: => Unit): Unit = { if (index == 0) f; sync() }

    /** This task's static share of [0, n). */
    def range(n: Int): (Int, Int) = Par.range(n, size, index)

    /** Blocks of [0, n) of at least `minGrain` items, claimed dynamically
      * by whichever task is free; ends in a barrier. Loop k claims from
      * cursor k mod 2 while task 0 zeroes the other one, which loop k - 1
      * used; the barriers around loop k keep the two apart.
      */
    def forDynamic(n: Int, minGrain: Int = 64)(f: (Int, Int) => Unit): Unit = {
      val grain = math.max(minGrain, n / (size * 16))
      val cursor = gang.cursors(loops & 1)
      if (index == 0) gang.cursors((loops + 1) & 1).set(0)
      loops += 1
      var lo = cursor.getAndIncrement().toLong * grain
      while (lo < n) {
        f(lo.toInt, math.min(n.toLong, lo + grain).toInt)
        lo = cursor.getAndIncrement().toLong * grain
      }
      sync()
    }
  }
}
