package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.{Reference, SharedState}

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
    // n is above the size counted on task 0 alone, so the candidate is
    // counted in parallel; its members fill the last fifth of [0, n),
    // which task 0's static share never reaches, and the rest are
    // singletons
    val n = 100000
    val big = n - 1
    for (_ <- 0 until 20) {
      val ctx = RunCtx.create(n)
      try {
        ctx.sampled = new Array[Int](n)
        var v = 0
        while (v < n) { ctx.sampled(v) = if (v >= n - n / 5) big else v; v += 1 }
        assert(ConnectIt.identifyFrequentPar(spark, ctx) == big)
      } finally ctx.unregister()
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
