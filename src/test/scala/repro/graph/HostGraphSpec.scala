package repro.graph

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.Par

/** The CSR builder against a Scala-collections oracle: the sorted
  * distinct u < v pairs of the samples (self-loops dropped), each vertex's
  * sorted neighbours, and that pair list cut into equal chunks.
  */
class HostGraphSpec extends SparkSpec {

  private def df(samples: Seq[(Int, Int)], slices: Int): DataFrame = {
    val s = spark
    import s.implicits._
    spark.sparkContext.parallelize(samples, slices).toDF("u", "v")
  }

  private def assertOracle(g: HostGraph, samples: Seq[(Int, Int)], nOverride: Int = -1): Unit = {
    val canon = samples.collect { case (u, v) if u != v => (math.min(u, v), math.max(u, v)) }.distinct.sorted
    val n = math.max(nOverride, if (canon.isEmpty) 1 else canon.map(_._2).max + 1)
    val nbrs = (canon ++ canon.map(_.swap)).groupMap(_._1)(_._2)
    val adj = (0 until n).map(v => nbrs.getOrElse(v, Seq.empty).sorted)
    val packed = canon.map { case (u, v) => Edge.pack(u, v) }
    val nChunks = math.max(1, math.min(Par.defaultChunks(spark), packed.size))
    val per = (packed.size + nChunks - 1) / nChunks
    assert(g.n == n)
    assert(g.offsets.toSeq == adj.scanLeft(0)(_ + _.size))
    assert(g.targets.toSeq == adj.flatten)
    assert(g.chunks.map(_.toSeq).toSeq == (0 until nChunks).map(c => packed.slice(c * per, c * per + per)))
  }

  private def sameGraph(a: HostGraph, b: HostGraph): Unit = {
    assert(a.n == b.n)
    assert(a.offsets.sameElements(b.offsets))
    assert(a.targets.sameElements(b.targets))
    assert(a.chunks.map(_.toSeq).toSeq == b.chunks.map(_.toSeq).toSeq)
  }

  private def withGraph(g: HostGraph)(f: HostGraph => Unit): Unit =
    try f(g) finally g.unregister()

  /** Random samples with repeats in both orientations and self-loops. */
  private def noisy(n: Int, m: Int, seed: Long): Seq[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(m) {
      val u = rnd.nextInt(n)
      rnd.nextInt(8) match {
        case 0 => (u, u)
        case _ => (u, rnd.nextInt(n))
      }
    }.flatMap(e => if (rnd.nextInt(4) == 0) Seq(e, e.swap) else Seq(e))
  }

  test("duplicates in both orientations across partitions are deduped") {
    val samples = Seq((1, 2), (4, 3), (0, 5), (2, 1), (3, 4), (1, 2), (5, 0), (2, 1), (3, 4))
    val d = df(samples, 4)
    assert(d.rdd.getNumPartitions == 4)
    withGraph(HostGraph.fromEdges(spark, d)) { g =>
      assertOracle(g, samples)
      assert(g.m == 3)
    }
  }

  test("self-loops are dropped and do not count toward n") {
    val samples = Seq((3, 3), (0, 1), (1, 1), (2, 1), (9, 9), (2, 0))
    withGraph(HostGraph.fromEdges(spark, df(samples, 3))) { g =>
      assertOracle(g, samples)
      assert(g.n == 3)
    }
  }

  test("nOverride adds isolated vertices and never drops edges") {
    val samples = (0 until 10).map(i => (i, (i * 3 + 1) % 10))
    withGraph(HostGraph.fromEdges(spark, df(samples, 2), nOverride = 50)) { g =>
      assertOracle(g, samples, 50)
      assert((10 until 50).forall(g.degree(_) == 0))
    }
    withGraph(HostGraph.fromEdges(spark, df(samples, 2), nOverride = 4)) { g =>
      assertOracle(g, samples, 4)
      assert(g.n == 10)
    }
  }

  test("an empty edge set gives one chunk and max(nOverride, 1) vertices") {
    withGraph(HostGraph.fromEdges(spark, df(Seq.empty, 2))) { g =>
      assertOracle(g, Seq.empty)
      assert(g.n == 1 && g.m == 0 && g.chunks.length == 1)
    }
    withGraph(HostGraph.fromEdges(spark, df(Seq((4, 4)), 1), nOverride = 7)) { g =>
      assertOracle(g, Seq.empty, 7)
    }
    withGraph(HostGraph.fromArray(spark, 5, Array.empty)) { g => assertOracle(g, Seq.empty, 5) }
  }

  test("rows with a null endpoint are dropped") {
    val s = spark
    import s.implicits._
    val d = Seq((Some(1), Some(2)), (Some(3), None), (None, Some(4)), (None, None)).toDF("u", "v")
    withGraph(HostGraph.fromEdges(spark, d)) { g => assertOracle(g, Seq((1, 2))) }
  }

  test("uniform n = 2^14 with 10n samples, split across the gang, 20 builds") {
    val n = 1 << 14
    val d = GraphGen.uniform(spark, n, 10L * n, seed = 3).cache()
    val samples = d.collect().toSeq.map(r => (r.getInt(0), r.getInt(1)))
    assert(samples.size + n >= Par.GrainSize)
    for (_ <- 1 to 20) withGraph(HostGraph.fromEdges(spark, d, nOverride = n)) { g => assertOracle(g, samples, n) }
    d.unpersist()
  }

  test("fromArray at GrainSize samples matches the oracle and fromEdges") {
    val samples = noisy(5000, 80000, seed = 11)
    assert(samples.size >= Par.GrainSize)
    withGraph(HostGraph.fromArray(spark, 5000, samples.toArray)) { a =>
      assertOracle(a, samples, 5000)
      withGraph(HostGraph.fromEdges(spark, df(samples, 4), nOverride = 5000))(sameGraph(a, _))
    }
  }

  test("fromArray and fromEdges agree on a small graph with duplicates and self-loops") {
    val samples = noisy(40, 300, seed = 5)
    withGraph(HostGraph.fromArray(spark, 45, samples.toArray)) { a =>
      assertOracle(a, samples, 45)
      withGraph(HostGraph.fromEdges(spark, df(samples, 3), nOverride = 45))(sameGraph(a, _))
    }
  }

  test("fromEdges is 2 Spark jobs; fromArray is 1 at GrainSize and 0 below it") {
    val d = GraphGen.uniform(spark, 1 << 14, 10L << 14, seed = 3)
    assert(jobsOf(HostGraph.fromEdges(spark, d, nOverride = 1 << 14).unregister()) == 2)
    val big = noisy(5000, 80000, seed = 11).toArray
    assert(jobsOf(HostGraph.fromArray(spark, 5000, big).unregister()) == 1)
    val small = noisy(40, 300, seed = 5).toArray
    assert(jobsOf(HostGraph.fromArray(spark, 40, small).unregister()) == 0)
  }

  test("a negative vertex id fails the build by name and leaves no SharedState entry") {
    val before = SharedState.size
    val e1 = intercept[IllegalArgumentException] {
      HostGraph.fromEdges(spark, df(Seq((0, 1), (2, 3), (5, -7), (1, 2)), 2))
    }
    assert(e1.getMessage.contains("-7"))
    assert(SharedState.size == before)
    val e2 = intercept[IllegalArgumentException](HostGraph.fromArray(spark, 10, Array((1, 2), (-3, -3))))
    assert(e2.getMessage.contains("-3"))
    assert(SharedState.size == before)
  }

  test("more samples than the Int CSR holds fail the size check") {
    val limit = Int.MaxValue / 2
    assert(HostGraph.slotCount(limit.toLong) == 2 * limit)
    val e = intercept[IllegalArgumentException](HostGraph.slotCount(limit + 1L))
    assert(e.getMessage.contains((limit + 1L).toString))
  }
}
