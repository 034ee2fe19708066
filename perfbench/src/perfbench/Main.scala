package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Settings of one benchmark run. `out` is the directory for scratch
  * files and the span dump.
  */
final case class Env(spark: SparkSession, workload: String, seed: Long,
                     seconds: Int, trace: Boolean, out: String, sessionS: Double)

/** Flat JSON output without a library. */
object Json {
  def str(s: String): String = s.flatMap {
    case '"' => "\\\""; case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }.mkString("\"", "", "\"")

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a number")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}

/** Metrics of one run. `json` holds the metrics of the result line (the
  * end-to-end set untraced, the per-layer set traced); every line also
  * goes to stdout with its unit as it is recorded.
  */
final class Report {
  val json = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String, note: String = ""): Unit = {
    json(name) = (value, unit)
    show(name, value, unit, note)
  }

  def show(name: String, value: Double, unit: String, note: String = ""): Unit =
    println(f"  $name%-44s ${fmt(value)}%14s $unit" + (if (note.isEmpty) "" else s"  ($note)"))

  def line(s: String): Unit = println(s)

  private def fmt(v: Double): String =
    if (v == 0.0 || math.abs(v) >= 1e5 || math.abs(v) < 1e-3) f"$v%.4g" else f"$v%.6f"

  def result(attempted: Int, failed: Int): String = Json.obj(Seq(
    "correct" -> (failed == 0).toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(json.toSeq.map { case (k, (v, u)) =>
      k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })))
}

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1>`. Prints provenance, every metric by name with its unit,
  * and as the last stdout line the JSON result.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = kv.getOrElse("workload", "")
    if (!Workloads.names.contains(workload)) {
      Console.err.println(s"perfbench: unknown workload '$workload'; one of ${Workloads.names.mkString(", ")}")
      sys.exit(2)
    }
    val out = kv.getOrElse("out", "target/perfbench")
    Files.createDirectories(Paths.get(out))
    val t0 = System.nanoTime()
    val spark = session(out)
    val env = Env(spark, workload, kv.getOrElse("seed", "1").toLong,
      kv.getOrElse("seconds", "10").toInt, kv.getOrElse("trace", "0") == "1", out,
      (System.nanoTime() - t0) / 1e9)
    val result =
      try {
        println(s"provenance ${provenance(env, kv)}")
        Workloads.run(env)
      } finally spark.stop()
    println(result)
  }

  /** Spark in local mode on every core this process may use. */
  def session(out: String): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/spark-warehouse")
      // the repository's own harness settings (SparkSpec)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def provenance(env: Env, kv: Map[String, String]): String = {
    val sc = env.spark.sparkContext
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    Json.obj(Seq(
      "workload" -> Json.str(env.workload),
      "seed" -> env.seed.toString,
      "seconds" -> env.seconds.toString,
      "trace" -> env.trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "master" -> Json.str(sc.master),
      "default_parallelism" -> sc.defaultParallelism.toString,
      "xmx" -> Json.str(jvmArgs.filter(_.startsWith("-Xmx")).lastOption.getOrElse("(default)")),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
      "spark" -> Json.str(env.spark.version),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "jvm" -> Json.str(System.getProperty("java.vm.name") + " " + System.getProperty("java.runtime.version")),
      "commit" -> Json.str(kv.getOrElse("commit", "unknown")),
      "source_digest" -> Json.str(kv.getOrElse("digest", "unknown")),
    ))
  }
}
