package perfbench

import repro.core.{ConnectIt, Par}
import repro.core.Options._
import repro.graph.{HostGraph, SharedState}
import scala.collection.mutable

/** Tests of the benchmark's own arithmetic and attribution:
  * `python3 perfbench/run.py --self-test`. Exits non-zero on a failure.
  */
object SelfTest {
  private val failures = mutable.ArrayBuffer.empty[String]

  private def check(name: String)(cond: => Boolean): Unit = {
    val ok = scala.util.Try(cond).getOrElse(false)
    println(s"${if (ok) "ok  " else "FAIL"} $name")
    if (!ok) failures += name
  }

  def main(args: Array[String]): Unit = {
    percentiles()
    selfTime()
    val out = args.sliding(2).collectFirst { case Array("--out", d) => d }.getOrElse("target/perfbench")
    val spark = Main.session(out)
    try attribution(spark) finally spark.stop()
    if (failures.nonEmpty) {
      Console.err.println(s"${failures.length} self-test(s) failed: ${failures.mkString("; ")}")
      sys.exit(1)
    }
    println("all self-tests passed")
  }

  private def percentiles(): Unit = {
    val xs = (1 to 100).map(_.toDouble).reverse
    check("p50 of 1..100 is 50")(Stats.percentile(xs, 0.5) == 50.0)
    check("p90 of 1..100 is 90")(Stats.percentile(xs, 0.9) == 90.0)
    check("median of one sample")(Stats.median(Seq(3.0)) == 3.0)
    check("p90 of 100 samples has 10 beyond it")(Stats.beyond(100, 0.9) == 10 && Stats.valid(100, 0.9))
    check("p90 of 99 samples is not valid")(!Stats.valid(99, 0.9))
    check("p50 needs 20 samples")(Stats.valid(20, 0.5) && !Stats.valid(19, 0.5))
    check("no samples, no valid percentile")(!Stats.valid(0, 0.5))
  }

  private def selfTime(): Unit = {
    val op = Span(1, 0, 1, "op", 0, 100)
    def kids(iv: (Long, Long)*) = iv.map { case (a, b) => Span(2, 1, 1, "job", a, b) }
    check("disjoint children")(Spans.selfNs(op, kids((10, 20), (30, 50))) == 70)
    check("overlapping children count once")(Spans.selfNs(op, kids((10, 40), (20, 50), (45, 60))) == 50)
    check("nested child counts once")(Spans.selfNs(op, kids((10, 60), (20, 30))) == 50)
    check("children clipped to the span")(Spans.selfNs(op, kids((-20, 10), (90, 150))) == 80)
    check("no children: all self time")(Spans.selfNs(op, Nil) == 100)
    check("child covering the span leaves no self time")(Spans.selfNs(op, kids((0, 100))) == 0)
  }

  /** Jobs land on the op that submitted them, on a tiny graph. */
  private def attribution(spark: org.apache.spark.sql.SparkSession): Unit = {
    val l = new JobListener
    spark.sparkContext.addSparkListener(l)
    // jobs of the set-up belong to no op
    val g = HostGraph.fromArray(spark, 64, (0 until 63).map(i => (i, i + 1)).toArray)
    val base = SharedState.size
    val r = new Runner(spark, Some(l))
    val (_, twoJobs) = r.op("two-jobs", true, true) {
      Par.jobs(spark, 4)(_ => ()); Par.jobs(spark, 3)(_ => ())
    }(_.isDefined)
    val (_, untraced) = r.op("untraced", true, false)(Par.jobs(spark, 2)(_ => ()))(_.isDefined)
    val (_, none) = r.op("no-jobs", true, true)(Thread.sleep(5))(_.isDefined)
    // NoSampling + union-find finishes in one edge-parallel job
    val (res, cc) = r.op("cc", true, true) {
      ConnectIt.connectivity(spark, g, NoSampling, UnionFindOpt(UfRemCas))
    }(_.exists(_.numComponents == 1))
    val (_, leak) = r.op("leak", true, true)(SharedState.put("perfbench-leak", "x"))(_.isDefined)
    SharedState.remove("perfbench-leak")
    val (_, thrown) = r.op("throws", true, true)(throw new RuntimeException("boom"))(_ => true)
    g.unregister()

    val lt = r.layers(twoJobs)
    check("two-job op gets its 2 jobs and 7 tasks")(lt.jobs == 2 && lt.tasks == 7)
    check("untraced op is not traced")(!untraced.traced)
    check("untraced op's job is attributed to no traced op")(
      r.ops.filter(_.traced).map(o => r.layers(o).jobs).sum == 2 + 0 + 1 + 0 + 0)
    check("op without jobs gets none, all driver time")(
      r.layers(none).jobs == 0 && math.abs(r.layers(none).driverS - none.wallS) < 1e-9)
    check("connectivity op gets exactly 1 job")(r.layers(cc).jobs == 1 && res.isDefined && cc.ok)
    check("driver time within op wall")(lt.driverS >= 0 && lt.driverS <= twoJobs.wallS)
    check("job spans lie inside their op, to the millisecond")(
      r.spans.filter(_.parent == twoJobs.id).forall(s =>
        s.startNs >= twoJobs.startNs - 1000000L && s.endNs <= twoJobs.endNs + 1000000L))
    check("op leaving state behind fails")(!leak.ok)
    check("op that throws fails")(!thrown.ok)
    check("runner counts attempts and failures")(r.attempted == 6 && r.failed == 2)
    check("spans: one per traced op plus one per job")(r.spans.length == 5 + 3)
    check("every job span lies under its op")(r.spans.filter(_.parent != 0).forall { s =>
      r.ops.exists(o => o.id == s.parent && o.id == s.op)
    })
    check("shared state back to base")(SharedState.size == base - 1)
  }
}
