package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.graph.SharedState
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Try

/** One issued operation: its wall time, GC time and verdict. */
final class OpRec(val id: Long, val kind: String, val measured: Boolean,
                  val traced: Boolean, val startNs: Long, val endNs: Long,
                  val gcMs: Long, val ok: Boolean) {
  def wallS: Double = (endNs - startNs) / 1e9
  def span: Span = Span(id, 0L, id, kind, startNs, endNs)
}

/** What the traced layers did during one operation. */
final case class OpLayers(jobs: Int, tasks: Int, jobS: Double, taskRunS: Double,
                          schedS: Double, driverS: Double)

/** Issues operations one at a time from the driver thread (a closed loop
  * with one client) and checks each outside its timed region. With a
  * listener it traces the ops it is asked to trace: one span per op,
  * child spans per phase step and per Spark job, all in memory.
  */
final class Runner(spark: SparkSession, val listener: Option[JobListener]) {
  val ops = mutable.ArrayBuffer.empty[OpRec]
  private val steps = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0L
  private var current = 0L // traced op now running, 0 if none
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  // listener times are epoch ms; spans use nanoTime
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  private def newId(): Long = { nextId += 1; nextId }

  def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  def attempted: Int = ops.length
  def failed: Int = ops.count(!_.ok)

  /** Runs `body` as one timed operation. `check` runs after the timed
    * region and gets None if the body threw. The op fails if it threw,
    * if `check` says so, or if SharedState is not back to its size from
    * before the op.
    */
  def op[T](kind: String, measured: Boolean, traced: Boolean)
           (body: => T)(check: Option[T] => Boolean): (Option[T], OpRec) = {
    val id = newId()
    val tr = traced && listener.isDefined
    val sc = spark.sparkContext
    val size0 = SharedState.size
    val gc0 = gcMs
    if (tr) { sc.setLocalProperty(JobListener.OpKey, id.toString); current = id }
    val t0 = System.nanoTime()
    val res = Try(body)
    val t1 = System.nanoTime()
    if (tr) { sc.setLocalProperty(JobListener.OpKey, null); current = 0L }
    val gc1 = gcMs
    res.failed.foreach(e => Console.err.println(s"perfbench: $kind op $id threw $e"))
    val out = res.toOption
    val ok = Try(check(out)).getOrElse(false) && res.isSuccess && SharedState.size == size0
    val rec = new OpRec(id, kind, measured, tr, t0, t1, gc1 - gc0, ok)
    ops += rec
    (out, rec)
  }

  /** Times one step of the running op, as a child span if it is traced. */
  def step[T](name: String)(body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    val t1 = System.nanoTime()
    if (current != 0L) steps += Span(newId(), current, current, name, t0, t1)
    (r, (t1 - t0) / 1e9)
  }

  private lazy val jobSpans: Map[Long, Seq[(Span, JobRec)]] = listener match {
    case None => Map.empty
    case Some(l) =>
      l.drain(spark.sparkContext)
      ops.filter(_.traced).map { o =>
        o.id -> l.jobsOf(o.id).map { j =>
          val s = j.startMs * 1000000L - epochOffsetNs
          val e = math.max(j.startMs, j.endMs) * 1000000L - epochOffsetNs
          (Span(newId(), o.id, o.id, s"job ${j.jobId}", s, e), j)
        }
      }.toMap
  }

  /** Layer split of one traced op; the driver's share is the op's time
    * not covered by any of its Spark jobs.
    */
  def layers(o: OpRec): OpLayers = {
    val js = jobSpans.getOrElse(o.id, Nil)
    OpLayers(
      jobs = js.length,
      tasks = js.map(_._2.tasks).sum,
      jobS = js.map(_._1.durNs).sum / 1e9,
      taskRunS = js.map(_._2.runMs).sum / 1e3,
      schedS = js.map(_._2.schedMs).sum / 1e3,
      driverS = Spans.selfNs(o.span, js.map(_._1)) / 1e9)
  }

  /** Every span of every traced op. */
  def spans: Seq[Span] =
    ops.filter(_.traced).map(_.span).toSeq ++ steps ++ jobSpans.values.flatten.map(_._1)
}
