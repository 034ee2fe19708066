package perfbench

import java.util.Properties
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One traced interval on the System.nanoTime clock. An operation span
  * has `parent == 0`; every span of one operation carries its `op` id.
  */
final case class Span(id: Long, parent: Long, op: Long, name: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

object Spans {

  /** Length of the union of `children`, clipped to [lo, hi]: time covered
    * by overlapping children counts once.
    */
  def covered(lo: Long, hi: Long, children: Seq[(Long, Long)]): Long = {
    val iv = children.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => a < b }.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    iv.foreach { case (a, b) =>
      if (a > curE) { if (curE > curS) total += curE - curS; curS = a; curE = b }
      else if (b > curE) curE = b
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** A span's self time: its duration minus the part its children cover. */
  def selfNs(s: Span, children: Seq[Span]): Long =
    s.durNs - covered(s.startNs, s.endNs, children.map(c => (c.startNs, c.endNs)))
}

/** One Spark job submitted while a traced operation ran. Listener times
  * are epoch milliseconds, as Spark stamps its events.
  */
final class JobRec(val op: Long, val jobId: Int, val startMs: Long) {
  var endMs: Long = -1L
  var tasks: Int = 0
  var runMs: Long = 0L
  var schedMs: Long = 0L
}

/** Attributes Spark jobs to operations. The driver thread sets the local
  * property [[JobListener.OpKey]] to the op id before a traced operation
  * and clears it after, so each job's start event names its op. Events
  * arrive asynchronously; call [[drain]] before reading.
  */
final class JobListener extends SparkListener {
  private val jobs = mutable.ArrayBuffer.empty[JobRec]
  private val byJob = mutable.HashMap.empty[Int, JobRec]
  private val byStage = mutable.HashMap.empty[Int, JobRec]

  private def opOf(p: Properties): Option[Long] =
    Option(p).flatMap(x => Option(x.getProperty(JobListener.OpKey))).map(_.toLong)

  override def onJobStart(e: SparkListenerJobStart): Unit = opOf(e.properties).foreach { op =>
    synchronized {
      val j = new JobRec(op, e.jobId, e.time)
      jobs += j; byJob(e.jobId) = j
      e.stageIds.foreach(byStage(_) = j)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    byStage.get(e.stageId).foreach { j =>
      val i = e.taskInfo; val m = e.taskMetrics
      j.tasks += 1
      if (m != null) {
        j.runMs += m.executorRunTime
        // scheduler delay as the Spark UI computes it
        val gettingResult = if (i.gettingResultTime > 0) i.finishTime - i.gettingResultTime else 0L
        j.schedMs += math.max(0L, (i.finishTime - i.launchTime) - m.executorRunTime -
          m.executorDeserializeTime - m.resultSerializationTime - gettingResult)
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byJob.get(e.jobId).foreach { j => j.endMs = e.time; notifyAll() }
  }

  /** Jobs of op `op`, in submission order. */
  def jobsOf(op: Long): Seq[JobRec] = synchronized(jobs.filter(_.op == op).toSeq)

  /** Waits until every event posted before this call has been delivered:
    * runs a one-task sentinel job and waits for its end event (the
    * listener bus is FIFO).
    */
  def drain(sc: SparkContext, timeoutMs: Long = 30000L): Unit = {
    val prev = sc.getLocalProperty(JobListener.OpKey)
    sc.setLocalProperty(JobListener.OpKey, JobListener.Sentinel.toString)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(JobListener.OpKey, prev)
    val deadline = System.currentTimeMillis() + timeoutMs
    synchronized {
      def done = jobs.exists(j => j.op == JobListener.Sentinel && j.endMs >= 0)
      while (!done && System.currentTimeMillis() < deadline) wait(100)
      require(done, "Spark listener bus did not drain")
      jobs.filterInPlace(_.op != JobListener.Sentinel)
    }
  }
}

object JobListener {
  val OpKey = "perfbench.op"
  private val Sentinel = -1L
}
