package repro.graph

import java.util.concurrent.atomic.AtomicIntegerArray
import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._

/** The CSR builder against a Scala-collections oracle: the sorted
  * distinct u < v pairs of the samples (self-loops dropped), each vertex's
  * sorted neighbours, and that pair list as packed by `upperEdges`. Also
  * the edge-pass primitive (`forSlotBlocks`, `upperStart`) and the gang
  * pass built on it, `ConnectIt.samplingQuality`.
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
    assert(g.n == n)
    assert(g.offsets.toSeq == adj.scanLeft(0)(_ + _.size))
    assert(g.targets.toSeq == adj.flatten)
    assert(g.upperEdges().toSeq == canon.map { case (u, v) => Edge.pack(u, v) })
    assert(g.edgeIterator.toSeq == canon)
  }

  private def sameGraph(a: HostGraph, b: HostGraph): Unit = {
    assert(a.n == b.n)
    assert(a.offsets.sameElements(b.offsets))
    assert(a.targets.sameElements(b.targets))
    assert(a.upperEdges().sameElements(b.upperEdges()))
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

  test("an empty edge set gives no edges and max(nOverride, 1) vertices") {
    withGraph(HostGraph.fromEdges(spark, df(Seq.empty, 2))) { g =>
      assertOracle(g, Seq.empty)
      assert(g.n == 1 && g.m == 0 && g.upperEdges().isEmpty)
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

  test("the gang pack with a label filter writes each task's edges at its prefix offset") {
    val n = 5000
    val samples = noisy(n, 80000, seed = 17)
    // label 0 on every third vertex: edges between two of them are dropped
    val labels = Array.tabulate(n)(v => if (v % 3 == 0) 0 else v)
    val want = samples.collect { case (u, v) if u != v => (math.min(u, v), math.max(u, v)) }
      .distinct.sorted.filterNot { case (u, v) => labels(u) == 0 && labels(v) == 0 }
      .map { case (u, v) => Edge.pack(u, v) }
    val before = SharedState.size
    withGraph(HostGraph.fromArray(spark, n, samples.toArray)) { g =>
      assert(g.m >= Par.GrainSize)
      val pack = new HostGraph.UpperPack(g)
      val out = new Array[Array[Long]](Par.taskSlots(spark))
      Par.gang(spark, "pack-test") { t => out(t.index) = pack(t, labels, 0) }
      assert(out.forall(_ eq out(0)), "every task returns the one packed array")
      assert(out(0).toSeq == want)
      assert(want.length < g.m)
    }
    assert(SharedState.size == before)
  }

  test("more samples than the Int CSR holds fail the size check") {
    val limit = Int.MaxValue / 2
    assert(HostGraph.slotCount(limit.toLong) == 2 * limit)
    val e = intercept[IllegalArgumentException](HostGraph.slotCount(limit + 1L))
    assert(e.getMessage.contains((limit + 1L).toString))
  }

  test("slot blocks give each vertex with neighbours to one block on a skewed graph") {
    // a star centred at 5999, the largest id with neighbours, over random
    // edges among its leaves, then 500 trailing isolated vertices
    val leaves = 5999
    val samples = Seq.tabulate(leaves)(i => (leaves, i)) ++ noisy(leaves, 40000, seed = 23)
    val before = SharedState.size
    withGraph(HostGraph.fromArray(spark, leaves + 501, samples.toArray)) { g =>
      assert(g.targets.length >= Par.GrainSize && g.degree(leaves) == leaves)
      assert((leaves + 1 until g.n).forall(g.degree(_) == 0))
      val claims = new AtomicIntegerArray(g.n)
      assert(jobsOf(Par.gang(spark, "slot-blocks") { t =>
        g.forSlotBlocks(t) { (lo, hi) => (lo until hi).foreach(claims.incrementAndGet) }
      }) == 1)
      for (v <- 0 until g.n)
        assert(claims.get(v) == (if (g.degree(v) > 0) 1 else 0), s"vertex $v")
      assertUpperStart("skewed", g)
    }
    assert(SharedState.size == before)
  }

  private def assertUpperStart(name: String, g: HostGraph): Unit =
    for (v <- 0 until g.n) {
      val want = (g.offsets(v) until g.offsets(v + 1)).find(g.targets(_) > v).getOrElse(g.offsets(v + 1))
      assert(g.upperStart(v) == want, s"$name vertex $v")
    }

  test("upperStart is the first slot above the vertex on every test graph") {
    for ((name, g) <- TestGraphs.suite(spark).map(x => x._1 -> x._2) :+ ("large" -> TestGraphs.large(spark)))
      assertUpperStart(name, g)
  }

  test("the gang samplingQuality equals a serial count over edgeIterator") {
    val graphs = TestGraphs.suite(spark).map(x => x._1 -> x._2) :+ ("large" -> TestGraphs.large(spark))
    for ((name, g) <- graphs; s <- Seq(KOutSampling(2, KOutHybrid), BfsSampling(), LddSampling(0.2))) {
      val before = SharedState.size
      val ctx = RunCtx.create(g.n)
      try {
        ConnectIt.sampleAndNormalize(spark, g, ctx, s)
        val l = ctx.sampled
        val freq = ConnectIt.identifyFrequent(l)
        val inter = g.edgeIterator.count { case (u, v) => l(u) != l(v) }
        val want = (l.count(_ == freq).toDouble / g.n, inter.toDouble / math.max(1L, g.m))
        assert(ConnectIt.samplingQuality(spark, g, ctx, freq) == want, s"${s.name} on $name")
      } finally ctx.unregister()
      assert(SharedState.size == before, s"${s.name} on $name")
    }
  }
}
