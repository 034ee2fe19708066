package repro.core

import java.util.concurrent.{Phaser, TimeUnit, TimeoutException}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference, AtomicReferenceArray}
import java.util.concurrent.locks.LockSupport
import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerApplicationEnd, SparkListenerJobStart}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import scala.concurrent.ExecutionContext
import repro.graph.SharedState

/** Spark-side parallel execution: the substrate for all kernels.
  *
  * Every kernel runs through [[gang]]: a whole multi-round computation
  * runs on P tasks (P = the task slots of the local master) that start
  * together and stay alive for the run. The tasks are those of the
  * resident crew, ONE barrier-mode Spark job that the first gang run
  * starts and whose tasks park between runs, as the paper's worker
  * threads live across parallel regions; a run costs a hand-off, not a
  * job launch. The crew leaves before graph intake ([[eachPartition]]),
  * as any other Spark job starts, at application end, or after
  * [[IdleLingerNs]] without a run; the next gang starts a new one. The
  * paper's fork-join barrier between rounds is a
  * `java.util.concurrent.Phaser` shared by the tasks, at which a task
  * spins briefly before it parks ([[BarrierSpinNs]]), so a barrier costs
  * a few microseconds; Spark's own `BarrierTaskContext.barrier()` is an
  * RPC round trip through the driver, about a second per call, so it is
  * not used. Below [[GrainSize]] of work the body runs on the calling
  * thread as a gang of one. A gang body is handed to the tasks in memory
  * and never serialized, so it captures the run's shared objects directly;
  * this is valid only in local mode, which [[gang]] checks.
  * [[eachPartition]] hands a body registered in [[SharedState]] the rows
  * of an existing RDD's partitions (the graph intake); every parallel
  * loop after it is a gang body.
  */
object Par {
  /** Granularity control: below this estimated work a [[gang]] runs on
    * the calling thread instead of going to the crew. Rounds inside a
    * gang have their own, much smaller threshold ([[Frontier.SplitWork]]).
    * It is the smallest op count from which the crew was not clearly
    * slower than running inline in any run of the crossover probe
    * (`Tables.grain`, `sbt "bench/testOnly repro.bench.GrainBench"`):
    * UF-Rem-CAS batches of half INSERTs (RMAT-20) and half queries on a
    * structure preloaded with 500k edges, each cell the median of 31 warm
    * batches on 4 tasks (4 vCPUs). Five runs; each cell below is the
    * middle run (lowest-highest). At 4096 ops the crew won three runs by
    * 2-28% and lost two by 10% and 38%; at 8192 it won four runs by
    * 28-36% and lost one by 1%; from 16384 on it won every run by 18-61%.
    * An empty gang took 0.033-0.088 ms on the crew (the hand-off) and
    * 0.001-0.004 ms inline.
    * {{{
    *   ops     inline ms              crew ms
    *   1024    0.109 (0.086-0.124)    0.170 (0.169-0.208)
    *   2048    0.157 (0.132-0.228)    0.236 (0.167-0.350)
    *   4096    0.308 (0.237-0.406)    0.264 (0.222-0.559)
    *   8192    0.635 (0.508-0.701)    0.447 (0.364-0.529)
    *   16384   1.057 (0.943-1.166)    0.692 (0.467-0.777)
    *   32768   1.651 (1.500-1.958)    1.019 (0.923-1.105)
    *   65536   2.498 (2.291-2.779)    1.404 (0.895-1.411)
    * }}}
    */
  val GrainSize: Long = 8192L

  /** One plain Spark job of `tasks` tasks running the serialized
    * closure `f(task)`. No kernel uses it; it stays only because the
    * benchmark's self-test (`perfbench/test`) launches its test jobs with
    * it, and goes with the next change to the benchmark.
    */
  def jobs(spark: SparkSession, tasks: Int)(f: Int => Unit): Unit =
    spark.sparkContext.parallelize(0 until tasks, tasks).foreach(f)

  /** Split [0, n) into `parts` ranges; returns (lo, hi) for part i. */
  def range(n: Int, parts: Int, i: Int): (Int, Int) = {
    val per = (n + parts - 1) / parts
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

  /** How long a task spins at a gang barrier before it parks. Runs of
    * 2000 empty rounds on 4 tasks (4 vCPUs) took a median 12.0-12.6 us
    * per barrier with an immediate park and 0.9-1.6 us with this spin.
    * Only a barrier inside a run spins: crew tasks between runs and the
    * driver waiting for a run park, since spinning tasks on a full
    * machine delay the driver's wake-up and so slow the hand-off.
    */
  private val BarrierSpinNs: Long = TimeUnit.MICROSECONDS.toNanos(20)

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
        s"gang runs need a local master (local, local[N], local[*]); got '$other'")
    }
    math.max(1, n / math.max(1, taskCpus))
  }

  /** Task slots of this session's master (the default gang size). */
  def taskSlots(spark: SparkSession): Int = {
    val sc = spark.sparkContext
    taskSlots(sc.master, Runtime.getRuntime.availableProcessors, sc.getConf.getInt("spark.task.cpus", 1))
  }

  private val gangCounter = new AtomicLong(0)

  /** Run `body` on the P tasks of the resident crew, P = the task slots,
    * so every task of the gang runs at once. The tasks synchronize through
    * [[Task.sync]]. If a task throws, its peers stop at their next barrier
    * and this call throws the original exception; if the crew's Spark job
    * ends mid-run (killed or cancelled), this call fails with an error
    * that names the run. `run` names the run in errors. If `work` is below
    * [[GrainSize]] the body runs on the calling thread as a gang of one,
    * whose barriers return at once.
    */
  def gang(spark: SparkSession, run: String, work: Long = Long.MaxValue)(body: Task => Unit): Unit = {
    if (work < GrainSize) { new Gang(run, 1, body).runTask(0); return }
    val g = new Gang(s"gang:$run#${gangCounter.incrementAndGet()}", taskSlots(spark), body)
    val sc = spark.sparkContext
    crewLock.synchronized {
      var c = crew
      while (c == null || (c.sc ne sc) || !c.execute(g)) c = Crew.launch(sc, g.size)
    }
    Option(g.failure.get).foreach(e => throw e)
  }

  /** Sends the resident crew away, if there is one: its tasks finish the
    * run in progress, if any, and their Spark job ends, freeing the task
    * slots for another job. The next [[gang]] starts a new crew.
    */
  def release(spark: SparkSession): Unit = release(spark.sparkContext)

  private def release(sc: SparkContext): Unit = {
    val c = crew
    if (c != null && (c.sc eq sc)) c.release()
  }

  /** Run `f(partition, rows)` on every partition of `rdd` in one Spark
    * job. Like a gang body, `f` is registered in [[SharedState]] and never
    * serialized, so it can write its results straight into driver arrays.
    * If a task throws, this call throws that task's exception.
    */
  def eachPartition[T](rdd: RDD[T], run: String)(f: (Int, Iterator[T]) => Unit): Unit = {
    release(rdd.sparkContext)
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

  /** Shared state of one gang run: the round barrier, the first failure,
    * the cursors of dynamically claimed ranges and the count of tasks
    * still in the run.
    */
  private[core] final class Gang(val id: String, val size: Int, body: Task => Unit) {
    private val phaser = new Phaser(size)
    val failure = new AtomicReference[Throwable]()
    private val live = new AtomicInteger(0)
    /** Cursors of dynamic loops, used alternately (see [[Task.forDynamic]]). */
    val cursors: Array[AtomicInteger] = Array.fill(2)(new AtomicInteger(0))
    /** Tasks that have not yet left the run, and the thread waiting for them. */
    private val pending = new AtomicInteger(size)
    @volatile private var waiter: Thread = null

    def runTask(index: Int): Unit = {
      // a task that reaches a run after it failed must not run the body
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

    /** Crew side: one task has left the run, by any path. */
    def left(): Unit = if (pending.decrementAndGet() == 0) LockSupport.unpark(waiter)

    /** Driver side: parks until every task has left the run, or until
      * `ended` holds, and returns whether every task left.
      */
    def awaitTasks(ended: => Boolean): Boolean = {
      waiter = Thread.currentThread()
      while (pending.get > 0 && !ended) LockSupport.parkNanos(this, PollNs)
      pending.get == 0
    }

    def await(round: Int): Unit = {
      val phase = phaser.arrive()
      if (phase < 0) throw new PeerFailed(id)
      // inside a run every task is active and the driver is parked, so a
      // short spin catches most barriers before a park would; a
      // terminated phaser's phase is negative, which ends the spin too
      val spinUntil = System.nanoTime() + BarrierSpinNs
      while (phaser.getPhase == phase && System.nanoTime() - spinUntil < 0) Thread.onSpinWait()
      val next =
        try phaser.awaitAdvanceInterruptibly(phase, BarrierTimeoutSec, TimeUnit.SECONDS)
        catch {
          case _: TimeoutException => throw new IllegalStateException(
            s"$id: barrier of round $round timed out after ${BarrierTimeoutSec}s " +
            "waiting for peer tasks (a task is stuck or did not reach the barrier)")
        }
      if (next < 0) throw new PeerFailed(id)
    }

    /** After the crew's job ended mid-run: stop every task at its next
      * barrier and wait until none is still inside the body, so a failed
      * run leaves nothing running behind it.
      */
    def abort(): Unit = {
      phaser.forceTermination()
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(BarrierTimeoutSec)
      while (live.get() > 0 && System.nanoTime() < deadline) Thread.sleep(1)
    }
  }

  // ================================================================ crew
  /** How long a parked crew waits for its next run before it leaves on its
    * own. A backstop only: any other Spark job sends the crew away as it
    * starts, so no job waits longer than this behind a parked crew.
    */
  private[core] val IdleLingerNs: Long = TimeUnit.SECONDS.toNanos(5)

  /** Longest park of a crew task or of a driver waiting for a run, so that
    * each sees a killed task or an ended job without a wake-up. Runs are
    * handed over by direct unparks, not by this poll.
    */
  private val PollNs: Long = TimeUnit.MILLISECONDS.toNanos(50)

  /** Longest that SparkContext.stop waits for the crew's tasks to end. */
  private val StopGraceNs: Long = TimeUnit.SECONDS.toNanos(1)

  /** Local property that tags the crew's own Spark job. */
  private[core] val CrewTag = "repro.par.crew"

  private val crewCounter = new AtomicLong(0)
  private val crewLock = new Object
  /** The resident crew, if any. Set under `crewLock`. */
  @volatile private var crew: Crew = null
  /** The context [[CrewListener]] listens on. Under `crewLock`. */
  private var listening: SparkContext = null

  /** The resident crew: one barrier-mode Spark job of `size` tasks that
    * stays up across gang runs, as the paper's worker threads do across
    * parallel regions. Its tasks park between runs. A run is handed over by
    * publishing its [[Gang]] and unparking them; each task calls
    * `runTask(index)` on it. The crew leaves when it is released (another
    * Spark job starts, graph intake, application end), when it has been
    * idle for [[IdleLingerNs]], or when its job dies.
    */
  private final class Crew(val sc: SparkContext, val size: Int) {
    val id: Long = crewCounter.incrementAndGet()
    /** The crew's Spark job; -1 until submitted. */
    @volatile var jobId: Int = -1
    private val threads = new AtomicReferenceArray[Thread](size)
    private val serving = new AtomicInteger(0)
    // the run being handed over, how many were, and whether the crew is
    // leaving: guarded by this
    private var run: Gang = null
    private var runs = 0L
    private var leaving = false
    @volatile private var ended = false
    @volatile private var endCause: Throwable = null

    /** Hands `g` to the tasks and waits until each has left it. Returns
      * false, running nothing, if the crew is leaving.
      */
    def execute(g: Gang): Boolean = {
      val taken = synchronized { if (!leaving) { run = g; runs += 1 }; !leaving }
      if (taken) {
        wake()
        val done = g.awaitTasks(ended)
        synchronized { run = null } // the crew must not keep the run's arrays alive
        if (!done) {
          g.abort()
          throw new IllegalStateException(
            s"${g.id}: the resident gang's Spark job ${jobId} ended during the run", endCause)
        }
      }
      taken
    }

    /** Task side: runs each run handed over, parked in between, until the
      * crew leaves.
      */
    def serve(index: Int, ctx: TaskContext): Unit = {
      serving.incrementAndGet()
      threads.set(index, Thread.currentThread())
      var seen = 0L
      var idleFrom = System.nanoTime()
      var staying = true
      while (staying) {
        var g: Gang = null
        synchronized {
          if (runs > seen) { seen = runs; g = run }
          else if (leaving || ctx.isInterrupted() || System.nanoTime() - idleFrom > IdleLingerNs) {
            leaving = true; staying = false
          }
        }
        if (g != null) {
          // the gang records a body's failure for the driver to rethrow
          try g.runTask(index) catch { case _: Throwable => () } finally g.left()
          idleFrom = System.nanoTime()
        } else if (staying) LockSupport.parkNanos(this, PollNs)
      }
      serving.decrementAndGet()
      wake()
    }

    def release(): Unit = { synchronized { leaving = true }; wake() }

    /** The crew's job has ended, by success (every task left) or not.
      * SparkContext.stop fails the job on its way to stopping the task
      * scheduler, and that does not wait for status updates in flight; so
      * then the tasks get until they are back in the executor's pool, and
      * their updates one poll more, to reach the scheduler first.
      */
    def end(cause: Throwable): Unit = {
      endCause = cause
      release()
      ended = true
      if (sc.isStopped) {
        val deadline = System.nanoTime() + StopGraceNs
        def pooled(t: Thread) = t == null ||
          t.getState == Thread.State.TIMED_WAITING || t.getState == Thread.State.TERMINATED
        while ((serving.get > 0 || !(0 until size).forall(i => pooled(threads.get(i)))) &&
               System.nanoTime() < deadline) LockSupport.parkNanos(this, PollNs / 100)
        LockSupport.parkNanos(this, PollNs)
      }
    }

    private def wake(): Unit = {
      var i = 0
      while (i < size) { LockSupport.unpark(threads.get(i)); i += 1 }
    }
  }

  private object Crew {
    /** Submits a new crew's job and makes it the resident crew. */
    def launch(sc: SparkContext, size: Int): Crew = {
      if (listening ne sc) { sc.addSparkListener(new CrewListener(sc)); listening = sc }
      val c = new Crew(sc, size)
      crew = c
      val id = c.id
      val tag = sc.getLocalProperty(CrewTag)
      sc.setLocalProperty(CrewTag, id.toString)
      val job =
        try sc.parallelize(0 until size, size).barrier().mapPartitions { it =>
          val mine = crew
          if (mine != null && mine.id == id) mine.serve(it.next(), TaskContext.get())
          Iterator.empty[Int]
        }.countAsync()
        finally sc.setLocalProperty(CrewTag, tag)
      c.jobId = job.jobIds.head
      job.onComplete(r => c.end(r.failed.toOption.orNull))(ExecutionContext.parasitic)
      c
    }
  }

  /** Sends the crew away when any Spark job not its own starts, so that
    * job gets the task slots, and when the application ends. Jobs that
    * started before the crew's own do not send it away.
    */
  private final class CrewListener(sc: SparkContext) extends SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val c = crew
      if (c != null && (c.sc eq sc) && c.jobId < e.jobId &&
          Option(e.properties).forall(_.getProperty(CrewTag) == null)) c.release()
    }

    override def onApplicationEnd(e: SparkListenerApplicationEnd): Unit = release(sc)
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
