package repro

import org.apache.spark.sql.SparkSession
import repro.graph.{GraphGen, HostGraph, Reference}

/** Small graphs shared across test suites (built once per JVM). */
object TestGraphs {
  private var cache = Map.empty[String, HostGraph]

  def get(name: String)(build: => HostGraph): HostGraph = synchronized {
    cache.get(name) match {
      case Some(g) => g
      case None =>
        val g = build
        cache += name -> g
        g
    }
  }

  def path(spark: SparkSession): HostGraph =
    get("path")(HostGraph.fromEdges(spark, GraphGen.path(spark, 300)))

  def torus(spark: SparkSession): HostGraph =
    get("torus")(HostGraph.fromEdges(spark, GraphGen.torus2d(spark, 16, 16)))

  def rmat(spark: SparkSession): HostGraph =
    get("rmat")(HostGraph.fromEdges(spark, GraphGen.rmat(spark, 10, 4000), nOverride = 1 << 10))

  def star(spark: SparkSession): HostGraph =
    get("star")(HostGraph.fromEdges(spark, GraphGen.star(spark, 500)))

  def multi(spark: SparkSession): HostGraph =
    get("multi")(HostGraph.fromEdges(spark,
      GraphGen.multiComponent(spark, 1200, 900, 4), nOverride = 1200))

  def uniform(spark: SparkSession): HostGraph =
    get("uniform")(HostGraph.fromEdges(spark, GraphGen.uniform(spark, 800, 3000), nOverride = 800))

  /** Star centred at the largest id: the centre has no neighbour above it. */
  def starHigh(spark: SparkSession): HostGraph =
    get("star-high")(HostGraph.fromArray(spark, 500, Array.tabulate(499)(i => (499, i))))

  /** Path 299 - 298 - ... - 0, its edges given as (higher, lower) from the top. */
  def pathDesc(spark: SparkSession): HostGraph =
    get("path-desc")(HostGraph.fromArray(spark, 300, Array.tabulate(299)(i => (299 - i, 298 - i))))

  /** Uniform n = 2^15 with 3n samples: more CSR slots than
    * [[repro.core.Par.GrainSize]], so its gang passes split across tasks,
    * and sparse enough that sampling leaves inter-component edges.
    */
  def large(spark: SparkSession): HostGraph =
    get("large")(HostGraph.fromEdges(spark, GraphGen.uniform(spark, 1 << 15, 3L << 15, seed = 3), nOverride = 1 << 15))

  /** Suite of (name, graph, reference labels) used by cross-product tests. */
  def suite(spark: SparkSession): Seq[(String, HostGraph, Array[Int])] = {
    val gs = Seq(
      "path" -> path(spark),
      "torus" -> torus(spark),
      "rmat" -> rmat(spark),
      "star" -> star(spark),
      "multi" -> multi(spark),
      "uniform" -> uniform(spark),
      "star-high" -> starHigh(spark),
      "path-desc" -> pathDesc(spark),
    )
    gs.map { case (n, g) => (n, g, Reference.cc(g)) }
  }
}
