package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.{GraphGen, HostGraph, Reference, SharedState}

/** Full framework composition: every sampling scheme combined with a
  * representative of every finish family (Algorithm 1), plus
  * DuckDB-oracle-checked invariants of the outputs.
  */
class ConnectItSpec extends SparkSpec {

  val samplings: Seq[SamplingOpt] = Seq(
    NoSampling, KOutSampling(), BfsSampling(), LddSampling())

  val finishes: Seq[FinishOpt] = Seq(
    UnionFindOpt(UfAsync, FindCompress),
    UnionFindOpt(UfHooks, FindAtomicHalve),
    UnionFindOpt(UfEarly, FindNaive),
    UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne),
    UnionFindOpt(UfRemCas, FindAtomicSplit, SpliceAtomic),
    UnionFindOpt(UfRemLock, FindNaive, HalveAtomicOne),
    UnionFindOpt(UfJtb, FindAtomicSplit),
    LiuTarjanOpt(ParentConnect, rootUp = false, fullShortcut = false, alter = false), // PUS
    LiuTarjanOpt(ParentConnect, rootUp = true, fullShortcut = true, alter = false),   // PRF
    LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true),          // CRFA
    StergiouOpt,
    ShiloachVishkinOpt,
    LabelPropOpt,
  )

  for {
    s <- samplings
    f <- finishes
    gname <- Seq("torus", "rmat", "multi")
  } test(s"${s.name} + ${f.name} on $gname") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
    val res = ConnectIt.connectivity(spark, g, s, f)
    assert(Reference.samePartition(res.labels, ref),
      s"labeling mismatch: ${s.name} + ${f.name} on $gname")
    assert(res.numComponents == Reference.numComponents(ref))
  }

  test("oracle: no edge crosses components (labels joined in SQL)") {
    import spark.implicits._
    val g = TestGraphs.rmat(spark)
    val res = ConnectIt.connectivity(spark, g, KOutSampling(),
      UnionFindOpt(UfRemCas))
    val edgesDf = spark.createDataset(g.edgeIterator.toSeq).toDF("u", "v")
    val labelsDf = spark.createDataset(
      res.labels.zipWithIndex.toSeq.map { case (l, v) => (v, l) }).toDF("v", "l")
    edgesDf.createOrReplaceTempView("edges_t")
    labelsDf.createOrReplaceTempView("labels_t")
    val sql =
      """SELECT count(*) AS violations
        |FROM edges_t e
        |JOIN labels_t la ON e.u = la.v
        |JOIN labels_t lb ON e.v = lb.v
        |WHERE la.l <> lb.l""".stripMargin
    val sparkDf = spark.sql(
      sql.replace("edges_t", "edges_t").replace("labels_t", "labels_t"))
    Oracle.assertEquivalent(sparkDf,
      sql.replace("edges_t", "edges").replace("labels_t", "labels"),
      "edges" -> edgesDf, "labels" -> labelsDf)
    assert(sparkDf.collect()(0).getLong(0) == 0L)
  }

  test("oracle: component size histogram matches DuckDB") {
    import spark.implicits._
    val g = TestGraphs.multi(spark)
    val res = ConnectIt.connectivity(spark, g, LddSampling(), ShiloachVishkinOpt)
    val labelsDf = spark.createDataset(
      res.labels.zipWithIndex.toSeq.map { case (l, v) => (v, l) }).toDF("v", "l")
    labelsDf.createOrReplaceTempView("labels_t")
    val sql =
      """SELECT sz AS component_size, count(*) AS num_components
        |FROM (SELECT l, count(*) AS sz FROM %s GROUP BY l) t
        |GROUP BY sz""".stripMargin
    Oracle.assertEquivalent(
      spark.sql(sql.format("labels_t")),
      sql.format("labels"),
      "labels" -> labelsDf)
  }

  test("sampling quality stats are sane on a connected graph") {
    val g = TestGraphs.torus(spark)
    val res = ConnectIt.connectivity(spark, g, KOutSampling(),
      UnionFindOpt(UfRemCas), sampleStats = true)
    assert(res.coverage >= 0.0 && res.coverage <= 1.0)
    assert(res.interCompFrac >= 0.0 && res.interCompFrac <= 1.0)
  }

  val gangSamplings: Seq[SamplingOpt] = Seq(
    NoSampling,
    KOutSampling(2, KOutAfforest), KOutSampling(2, KOutPure),
    KOutSampling(2, KOutHybrid), KOutSampling(2, KOutMaxDeg),
    BfsSampling(), LddSampling())

  for (s <- gangSamplings) test(s"${s.name} + UF-Rem-CAS runs as exactly 1 Spark job") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == "rmat").get
    var res: ConnectIt.CCResult = null
    val jobs = jobsOf { res = ConnectIt.connectivity(spark, g, s, UnionFindOpt(UfRemCas)) }
    assert(jobs == 1)
    assert(Reference.samePartition(res.labels, ref))
  }

  val minBasedFinishes: Seq[FinishOpt] = Seq(
    LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true), // CRFA
    StergiouOpt, ShiloachVishkinOpt, LabelPropOpt)

  for (s <- Seq(NoSampling, KOutSampling()); f <- minBasedFinishes)
    test(s"${s.name} + ${f.name} runs as exactly 1 Spark job") {
      val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == "rmat").get
      var res: ConnectIt.CCResult = null
      val jobs = jobsOf { res = ConnectIt.connectivity(spark, g, s, f) }
      assert(jobs == 1)
      assert(Reference.samePartition(res.labels, ref))
      assert(res.numComponents == Reference.numComponents(ref))
    }

  for (s <- samplings)
    test(s"spanning forest with ${s.name} + UF-Rem-CAS runs as exactly 1 Spark job") {
      val g = TestGraphs.torus(spark)
      var res: ConnectIt.CCResult = null
      val jobs = jobsOf { res = ConnectIt.spanningForest(spark, g, s, UnionFindOpt(UfRemCas)) }
      assert(jobs == 1)
      assert(Reference.validSpanningForest(g, res.forest))
    }

  test("phase times of a sampled run lie within its wall time") {
    val g = TestGraphs.rmat(spark)
    val t0 = System.nanoTime()
    val res = ConnectIt.connectivity(spark, g, KOutSampling(), UnionFindOpt(UfRemCas))
    val wall = (System.nanoTime() - t0) / 1e9
    assert(res.sampleSec > 0 && res.finishSec > 0)
    assert(res.sampleSec + res.finishSec <= res.totalSec + 1e-9)
    assert(res.totalSec <= wall)
  }

  test("frequent label is exact when its members lie outside task 0's range") {
    // the candidate is counted in parallel, from a sample of every vertex
    // (n = 40000) or of hashed positions (n = 100000); its members fill
    // the last fifth of [0, n), which task 0's static share never
    // reaches, and the rest are singletons
    for (n <- Seq(40000, 100000); _ <- 0 until 20) {
      val big = n - 1
      val ctx = RunCtx.create(n)
      try {
        ctx.sampled = new Array[Int](n)
        var v = 0
        while (v < n) { ctx.sampled(v) = if (v >= n - n / 5) big else v; v += 1 }
        assert(ConnectIt.identifyFrequentPar(spark, ctx) == big)
      } finally ctx.unregister()
    }
  }

  /** `connectivity`'s frequent label, computed serially from the sampled
    * labeling: the most frequent label at 65536 hashed vertex positions
    * (of tied labels, the first to reach the top count), kept if at least
    * two vertices carry it.
    */
  def serialFrequent(labels: Array[Int]): Int = {
    val n = labels.length
    val counts = new Array[Int](n)
    var best = -1; var bestC = 1
    for (i <- 0 until 65536) {
      val l = labels(((GraphGen.mix(0x5eed + i) >>> 1) % n).toInt)
      counts(l) += 1
      if (counts(l) > bestC) { best = l; bestC = counts(l) }
    }
    if (best >= 0 && labels.count(_ == best) >= 2) best else -1
  }

  test("frequent label above 65536 vertices matches a serial reference, ties included") {
    // every graph has degree at most 2, so 2-out (Afforest) sampling takes
    // every edge and the sampled labeling is the components' minima
    val n = 100000
    val hit = new Array[Int](n)
    for (i <- 0 until 65536) hit(((GraphGen.mix(0x5eed + i) >>> 1) % n).toInt) += 1
    val order = new scala.util.Random(3).shuffle((0 until n).toVector)
    // members in a path, one component each
    def paths(groups: Seq[Seq[Int]]): Array[(Int, Int)] =
      groups.flatMap(g => g.zip(g.drop(1))).toArray
    // two components hit exactly `top` times each by the sample; a
    // third hit `top - 1` times when `third` is set
    def tie(top: Int, third: Boolean): Seq[Seq[Int]] = {
      val want = Array(top, top, if (third) top - 1 else 0)
      val got = new Array[Int](3)
      val groups = Array.fill(3)(Vector.newBuilder[Int])
      for (v <- order if hit(v) > 0) {
        val k = (0 until 3).indexWhere(k => got(k) + hit(v) <= want(k))
        if (k >= 0) { groups(k) += v; got(k) += hit(v) }
      }
      assert(got.toSeq == want.toSeq, "the sample does not fill the tied components")
      groups.toSeq.map(_.result())
    }
    val tied = tie(5000, third = false)
    val nearTie = tie(3000, third = true)
    // (name, edges, the labels the answer must be one of, if any)
    val cases = Seq(
      ("one large path", paths(Seq(order.take(n / 3))), Seq(order.take(n / 3).min)),
      ("two tied", paths(tied), tied.take(2).map(_.min)),
      ("two tied over a near-tie", paths(nearTie), nearTie.take(2).map(_.min)),
      ("pairs only", paths(order.grouped(2).toSeq), Seq.empty),
      ("no edges", Array.empty[(Int, Int)], Seq(-1)))
    for ((name, edges, oneOf) <- cases) {
      val g = HostGraph.fromArray(spark, n, edges)
      try {
        val ref = Reference.cc(g)
        val minOf = new Array[Int](n)
        java.util.Arrays.fill(minOf, Int.MaxValue)
        for (v <- 0 until n) minOf(ref(v)) = math.min(minOf(ref(v)), v)
        val want = serialFrequent(Array.tabulate(n)(v => minOf(ref(v))))
        assert(oneOf.isEmpty || oneOf.contains(want), s"$name: reference picked $want")
        val res = ConnectIt.connectivity(spark, g, KOutSampling(2, KOutAfforest), UnionFindOpt(UfRemCas))
        assert(res.frequentid == want, s"$name: frequent label")
        assert(Reference.samePartition(res.labels, ref), s"$name: labels")
      } finally g.unregister()
    }
  }

  test("forest request on a non-root-based finish is rejected") {
    val g = TestGraphs.rmat(spark)
    assertThrows[IllegalArgumentException] {
      ConnectIt.connectivity(spark, g, NoSampling, LabelPropOpt, wantForest = true)
    }
  }

  test("forest request on LT-CRFA is rejected before any state or job") {
    val g = TestGraphs.rmat(spark)
    val crfa = LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true)
    val base = SharedState.size
    assert(jobsOf {
      assertThrows[IllegalArgumentException] {
        ConnectIt.connectivity(spark, g, KOutSampling(), crfa, wantForest = true)
      }
    } == 0)
    assert(SharedState.size == base)
  }
}
