package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoints, one object per evaluation table.
  *
  *   spark-submit --class repro.jobs.Table3Job repro.jar
  */
object TableJobs {
  def session(): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("connectit-repro")
      .getOrCreate()

  def run(f: SparkSession => Seq[String]): Unit = {
    val spark = session()
    spark.sparkContext.setLogLevel("WARN")
    try f(spark) finally spark.stop()
  }
}

object Table1Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table1) }
object Table2Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table2) }
object Table3Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table3) }
object Table3bJob { def main(args: Array[String]): Unit = TableJobs.run(Tables.table3b) }
object Table4Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table4) }
object Table5Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table5(_)) }
object Table6Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table6) }
object Table7Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table7) }
object Table8Job { def main(args: Array[String]): Unit = TableJobs.run(Tables.table8) }

/** All tables in evaluation order (the full reproduction run). */
object AllTablesJob {
  def main(args: Array[String]): Unit = TableJobs.run { spark =>
    Tables.table2(spark) ++ Tables.table3(spark) ++ Tables.table3b(spark) ++ Tables.table1(spark) ++
      Tables.table4(spark) ++ Tables.table5(spark) ++ Tables.table6(spark) ++
      Tables.table7(spark) ++ Tables.table8(spark)
  }
}
