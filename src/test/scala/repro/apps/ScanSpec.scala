package repro.apps

import repro.{SparkSpec, TestGraphs}

/** Index-based SCAN (Section 5.2): the ConnectIt-parallelized GS*-Query
  * must return the same clustering as the sequential one.
  */
class ScanSpec extends SparkSpec {

  test("similarity index is symmetric-ish and bounded") {
    val g = TestGraphs.rmat(spark)
    val idx = Scan.buildIndex(spark, g)
    idx.sim.foreach(s => assert(s > 0.0 && s <= 1.0 + 1e-9))
  }

  test("similarity of an isolated edge is 2/2 = 1") {
    val g = repro.graph.HostGraph.fromArray(spark, 2, Array((0, 1)))
    val idx = Scan.buildIndex(spark, g)
    assert(math.abs(idx.sim(0) - 1.0) < 1e-9)
  }

  for {
    (eps, mu) <- Seq((0.1, 3), (0.3, 2), (0.5, 2), (0.7, 3))
    gname <- Seq("torus", "rmat", "uniform")
  } test(s"parallel GS*-Query == sequential on $gname (eps=$eps, mu=$mu)") {
    val (_, g, _) = TestGraphs.suite(spark).find(_._1 == gname).get
    val idx = Scan.buildIndex(spark, g)
    val seq = Scan.querySeq(g, idx, eps, mu)
    val par = Scan.queryPar(spark, g, idx, eps, mu)
    assert(seq.sameElements(par),
      s"clusterings differ on $gname (eps=$eps, mu=$mu)")
  }

  test("building the index and one parallel query are 1 Spark job each") {
    val g = TestGraphs.rmat(spark)
    var idx: Scan.Index = null
    assert(jobsOf { idx = Scan.buildIndex(spark, g) } == 1)
    assert(jobsOf(Scan.queryPar(spark, g, idx, 0.3, 2)) == 1)
  }

  test("a clique clusters as one cluster of cores") {
    val n = 8
    val edges = for { u <- 0 until n; v <- u + 1 until n } yield (u, v)
    val g = repro.graph.HostGraph.fromArray(spark, n, edges.toArray)
    val idx = Scan.buildIndex(spark, g)
    val labels = Scan.querySeq(g, idx, eps = 0.9, mu = 2)
    assert(labels.forall(_ == 0))
    assert(labels.sameElements(Scan.queryPar(spark, g, idx, 0.9, 2)))
  }
}
