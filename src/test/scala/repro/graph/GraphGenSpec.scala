package repro.graph

import repro.{Oracle, SparkSpec}

/** Generator and CSR-builder properties, with DuckDB-oracle checks on
  * the Catalyst queries used to analyse them.
  */
class GraphGenSpec extends SparkSpec {

  test("rmat is deterministic in seed") {
    val a = GraphGen.rmat(spark, 8, 500, seed = 5).collect().toSet
    val b = GraphGen.rmat(spark, 8, 500, seed = 5).collect().toSet
    val c = GraphGen.rmat(spark, 8, 500, seed = 6).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("rmat vertex ids stay within 2^scale") {
    GraphGen.rmat(spark, 7, 400).collect().foreach { r =>
      assert(r.getInt(0) >= 0 && r.getInt(0) < 128)
      assert(r.getInt(1) >= 0 && r.getInt(1) < 128)
    }
  }

  test("torus2d has exactly 2*n undirected edges and degree 4 everywhere") {
    val g = HostGraph.fromEdges(spark, GraphGen.torus2d(spark, 10, 12))
    assert(g.n == 120)
    assert(g.m == 240)
    (0 until g.n).foreach(v => assert(g.degree(v) == 4))
  }

  test("torus2d is connected with diameter ~ (rows+cols)/2") {
    val g = HostGraph.fromEdges(spark, GraphGen.torus2d(spark, 8, 8))
    val ref = Reference.cc(g)
    assert(Reference.numComponents(ref) == 1)
  }

  test("barabasiAlbert has (n-d)*d edge samples and is connected") {
    val g = HostGraph.fromEdges(spark, GraphGen.barabasiAlbert(spark, 500, 3))
    assert(Reference.numComponents(Reference.cc(g)) == 1)
    assert(g.m <= (500 - 3) * 3 + 2) // samples + seed path; dedupe can only shrink
    assert(g.m > 400)
  }

  test("path and star shapes") {
    val p = HostGraph.fromEdges(spark, GraphGen.path(spark, 50))
    assert(p.n == 50 && p.m == 49)
    val s = HostGraph.fromEdges(spark, GraphGen.star(spark, 50))
    assert(s.n == 50 && s.m == 49)
    assert(s.degree(0) == 49)
  }

  test("multiComponent produces at least the requested number of components") {
    val g = HostGraph.fromEdges(spark,
      GraphGen.multiComponent(spark, 800, 600, 4), nOverride = 800)
    assert(Reference.numComponents(Reference.cc(g)) >= 4)
  }

  test("webLike keeps ids in range and supports isolated vertices") {
    val n = 1 << 9
    val g = HostGraph.fromEdges(spark, GraphGen.webLike(spark, 9, 2000),
      nOverride = (n * 1.3).toInt)
    assert(g.n == (n * 1.3).toInt)
    val labels = Reference.cc(g)
    assert(Reference.numComponents(labels) > 1) // isolated vertices exist
  }

  test("HostGraph symmetrizes, dedupes and strips self-loops") {
    import spark.implicits._
    val df = Seq((1, 2), (2, 1), (1, 2), (3, 3), (2, 4)).toDF("u", "v")
    val g = HostGraph.fromEdges(spark, df)
    assert(g.m == 2) // (1,2) and (2,4)
    assert(g.degree(3) == 0)
    assert(g.degree(2) == 2)
  }

  test("CSR adjacency is sorted (first-edge selection is deterministic)") {
    val g = HostGraph.fromEdges(spark, GraphGen.rmat(spark, 8, 900))
    (0 until g.n).foreach { v =>
      var j = g.offsets(v)
      while (j + 1 < g.offsets(v + 1)) {
        assert(g.targets(j) < g.targets(j + 1)); j += 1
      }
    }
  }

  test("oracle: degree histogram of an rmat graph matches DuckDB") {
    val df = GraphGen.rmat(spark, 8, 700).cache()
    df.createOrReplaceTempView("edges_t")
    val sql =
      """SELECT deg AS degree, count(*) AS nv
        |FROM (SELECT u, count(*) AS deg FROM %s GROUP BY u) t
        |GROUP BY deg""".stripMargin
    Oracle.assertEquivalent(spark.sql(sql.format("edges_t")),
      sql.format("edges"), "edges" -> df)
  }

  test("oracle: uniform generator edge count per vertex bucket matches DuckDB") {
    val df = GraphGen.uniform(spark, 64, 600).cache()
    df.createOrReplaceTempView("uedges_t")
    // CAST: the oracle loads DuckDB tables as VARCHAR columns
    def sql(t: String) =
      s"SELECT CAST(u AS INT) % 8 AS bucket, count(*) AS cnt FROM $t GROUP BY CAST(u AS INT) % 8"
    Oracle.assertEquivalent(spark.sql(sql("uedges_t")),
      sql("uedges"), "uedges" -> df)
  }

  test("SharedState registry round-trips and cleans up") {
    val before = SharedState.size
    SharedState.put("t:x", "hello")
    assert(SharedState.get[String]("t:x") == "hello")
    SharedState.remove("t:x")
    assert(SharedState.size == before)
    assertThrows[IllegalArgumentException](SharedState.get[String]("t:x"))
  }
}
