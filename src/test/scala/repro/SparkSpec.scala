package repro

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Par

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Number of Spark jobs `f` launches, counted by a SparkListener. The
    * resident gang crew is released first, so `f`'s first gang run starts
    * a crew of its own and counts as one job. A sentinel job drains the
    * asynchronous listener bus before counting.
    */
  def jobsOf(f: => Unit): Int = {
    val started = new AtomicInteger(0)
    val sentinelDone = new CountDownLatch(1)
    val sentinelJobs = ConcurrentHashMap.newKeySet[Int]()
    val l = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("repro.sentinel") != null)) sentinelJobs.add(e.jobId)
        else started.incrementAndGet()
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (sentinelJobs.contains(e.jobId)) sentinelDone.countDown()
    }
    val sc = spark.sparkContext
    sc.addSparkListener(l)
    try {
      Par.release(spark)
      f
      sc.setLocalProperty("repro.sentinel", "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty("repro.sentinel", null)
      assert(sentinelDone.await(30, TimeUnit.SECONDS), "listener bus did not drain")
      started.get()
    } finally sc.removeSparkListener(l)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // INFO logging at one line per task measurably inflates the short
    // job barriers the kernels use; keep the log at WARN for benching.
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
