package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic graph generators.
  *
  * Every generator returns an edge DataFrame with integer columns
  * (`u`, `v`) — a *directed* edge list that [[HostGraph]] symmetrizes and
  * deduplicates. All generators are deterministic in (params, seed).
  *
  * These replace the paper's public inputs (road_usa, LiveJournal,
  * com-Orkut, Twitter, Friendster, ClueWeb, Hyperlink) which cannot be
  * downloaded in this offline container; DESIGN.md maps each paper graph
  * to the generator with the same structural role.
  */
object GraphGen {

  /** Cheap deterministic 64-bit mix (splitmix64 finalizer). */
  private[repro] def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0,1) from a hash of (seed, i, salt). */
  private[repro] def u01(seed: Long, i: Long, salt: Long): Double =
    ((mix(seed ^ mix(i) ^ mix(salt * 0x5851f42d4c957f2dL)) >>> 11).toDouble
      / (1L << 53).toDouble)

  /** RMAT (Kronecker) graph: 2^scale vertices, m directed edge samples.
    * Default quadrant probabilities (a,b,c) = (0.5, 0.1, 0.1) as in the
    * paper's streaming experiments (Section 4.4).
    */
  def rmat(spark: SparkSession, scale: Int, m: Long,
           a: Double = 0.5, b: Double = 0.1, c: Double = 0.1,
           seed: Long = 42): DataFrame = {
    import spark.implicits._
    val s = scale
    spark.range(m).mapPartitions { it =>
      it.map { i =>
        var u = 0; var v = 0
        var lvl = 0
        while (lvl < s) {
          val r = u01(seed, i, lvl)
          // quadrants: a | b / c | d, with d = 1 - a - b - c
          if (r < a) { /* (0,0) */ }
          else if (r < a + b) { v |= 1 << lvl }
          else if (r < a + b + c) { u |= 1 << lvl }
          else { u |= 1 << lvl; v |= 1 << lvl }
          lvl += 1
        }
        (u, v)
      }
    }.toDF("u", "v")
  }

  /** Uniform random multigraph on n vertices with m directed samples. */
  def uniform(spark: SparkSession, n: Int, m: Long, seed: Long = 7): DataFrame = {
    import spark.implicits._
    spark.range(m).mapPartitions { it =>
      it.map { i =>
        val u = ((mix(seed ^ mix(i)) >>> 1) % n).toInt
        val v = ((mix(seed ^ mix(i) ^ 0x1234abcdL) >>> 1) % n).toInt
        (u, v)
      }
    }.toDF("u", "v")
  }

  /** 2-D torus (rows x cols): each vertex connects to its right and down
    * neighbour with wrap-around. High diameter (~(rows+cols)/2), average
    * degree 4 — the analogue of the road_usa input.
    */
  def torus2d(spark: SparkSession, rows: Int, cols: Int): DataFrame = {
    import spark.implicits._
    val n = rows.toLong * cols
    spark.range(n).select(
      col("id").cast("int").as("v0"),
      ((col("id") / cols).cast("int")).as("r"),
      ((col("id") % cols).cast("int")).as("c"),
    ).select(
      col("v0"),
      (col("r") * cols + (col("c") + 1) % cols).cast("int").as("right"),
      (((col("r") + 1) % rows) * cols + col("c")).cast("int").as("down"),
    ).select(
      explode(array(
        struct(col("v0").as("u"), col("right").as("v")),
        struct(col("v0").as("u"), col("down").as("v")),
      )).as("e")
    ).select(col("e.u"), col("e.v"))
  }

  /** Barabási–Albert preferential attachment: n vertices, each new vertex
    * adds d edges to endpoints of previously placed edge slots (the
    * standard O(m) trick: a uniformly random prior slot endpoint is a
    * degree-proportional vertex). Attachment is inherently sequential, so
    * the slot array is built on the driver and then parallelized — the
    * generator is input preparation, not a measured artifact (DESIGN.md).
    */
  def barabasiAlbert(spark: SparkSession, n: Int, d: Int, seed: Long = 11): DataFrame = {
    import spark.implicits._
    require(n > d && d >= 1)
    val m = (n - d).toLong * d
    require(2 * m < Int.MaxValue)
    // connected seed: a path over the first d vertices, pre-loaded into
    // the slot array so seed vertices can be sampled as targets
    val seedEdges = math.max(0, d - 1)
    val slots = new Array[Int](2 * (m.toInt + seedEdges))
    val edges = new Array[Long](m.toInt + seedEdges)
    var w = 0
    var e = 0
    var j0 = 1
    while (j0 < d) {
      edges(e) = Edge.pack(j0, j0 - 1)
      e += 1
      slots(w) = j0; slots(w + 1) = j0 - 1; w += 2
      j0 += 1
    }
    var i = d
    val rnd = new java.util.Random(seed)
    while (i < n) {
      var j = 0
      while (j < d) {
        val tgt = if (w == 0) 0 else slots(rnd.nextInt(w))
        edges(e) = Edge.pack(i, tgt)
        e += 1
        slots(w) = i; slots(w + 1) = tgt; w += 2
        j += 1
      }
      i += 1
    }
    spark.sparkContext.parallelize(edges.toIndexedSeq, math.max(1, spark.sparkContext.defaultParallelism))
      .map(e => (Edge.src(e), Edge.dst(e))).toDF("u", "v")
  }

  /** Web-graph-like input: an RMAT core plus `isolatedFrac` extra isolated
    * vertices and a locally-clustered vertex *ordering* (ids grouped in
    * blocks, like lexicographically-ordered URLs). Analogue of
    * ClueWeb/Hyperlink: many components, big largest component, an
    * ordering that makes first-k (Afforest) edge selection parochial.
    */
  def webLike(spark: SparkSession, scale: Int, m: Long,
              isolatedFrac: Double = 0.3, seed: Long = 17): DataFrame = {
    import spark.implicits._
    val core = 1 << scale
    val blocks = 1 << (scale / 2)
    val blockSz = core / blocks
    // permute ids so that RMAT's hub structure is spread over id-blocks:
    // id -> block-major relabeling keeps local runs of ids densely
    // interconnected (domain-like locality).
    rmat(spark, scale, m, seed = seed).select(
      (((col("u") % blocks) * blockSz) + (col("u") / blocks)).cast("int").as("u"),
      (((col("v") % blocks) * blockSz) + (col("v") / blocks)).cast("int").as("v"),
    )
    // isolated vertices are added by HostGraph via an explicit n override.
  }

  /** Path graph 0-1-2-...-(n-1); tiny high-diameter test input. */
  def path(spark: SparkSession, n: Int): DataFrame = {
    import spark.implicits._
    spark.range(n - 1).select(col("id").cast("int").as("u"),
                              (col("id") + 1).cast("int").as("v"))
  }

  /** Star graph: center 0 connected to 1..n-1. */
  def star(spark: SparkSession, n: Int): DataFrame = {
    import spark.implicits._
    spark.range(1, n).select(lit(0).as("u"), col("id").cast("int").as("v"))
  }

  /** Erdős–Rényi-ish random graph with expected m edges, guaranteed to
    * contain at least minComponents separate blocks of vertices.
    */
  def multiComponent(spark: SparkSession, n: Int, mPerBlock: Long,
                     blocks: Int, seed: Long = 23): DataFrame = {
    require(blocks >= 1 && n % blocks == 0)
    val bn = n / blocks
    (0 until blocks).map { b =>
      uniform(spark, bn, mPerBlock, seed + b)
        .select((col("u") + b * bn).cast("int").as("u"),
                (col("v") + b * bn).cast("int").as("v"))
    }.reduce(_ union _)
  }
}
