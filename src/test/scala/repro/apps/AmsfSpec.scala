package repro.apps

import repro.{SparkSpec, TestGraphs}
import repro.graph.Reference

/** Approximate MSF (Section 5.1): every variant must produce a spanning
  * forest whose weight is within (1+eps) of the exact MSF weight, and
  * Borůvka must be exact.
  */
class AmsfSpec extends SparkSpec {
  val eps = 0.25

  /** Kruskal's weight; `w` is parallel to `g.upperEdges()`, which lists
    * the edges in `edgeIterator`'s order.
    */
  def exactWeight(g: repro.graph.HostGraph, w: Array[Double]): Double =
    Reference.msfWeight(g.n, g.edgeIterator.toArray, w)

  for {
    v <- Seq(Amsf.EA, Amsf.F, Amsf.NF, Amsf.NFS)
    gname <- Seq("torus", "rmat", "multi")
  } test(s"${v.name} is a (1+eps)-approximate MSF on $gname") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
    val w = Amsf.expWeights(g, seed = 7)
    val opt = exactWeight(g, w)
    val res = Amsf.run(spark, g, w, eps, v)
    val wantEdges = g.n - Reference.numComponents(ref)
    assert(res.nEdges == wantEdges,
      s"${v.name}: ${res.nEdges} forest edges, want $wantEdges")
    assert(res.weight >= opt - 1e-9, s"${v.name} beat the exact MSF?!")
    assert(res.weight <= (1 + eps) * opt + 1e-9,
      s"${v.name}: weight ${res.weight} > (1+eps) * $opt")
  }

  for (gname <- Seq("torus", "rmat", "multi")) {
    test(s"Borůvka is exact on $gname") {
      val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
      val w = Amsf.expWeights(g, seed = 11)
      val opt = exactWeight(g, w)
      val res = Amsf.boruvka(spark, g, w)
      assert(math.abs(res.weight - opt) < 1e-6,
        s"Boruvka weight ${res.weight} != exact $opt")
      assert(res.nEdges == g.n - Reference.numComponents(ref))
    }
  }

  test("one AMSF run of each variant and one Borůvka run are 1 Spark job each") {
    val g = repro.TestGraphs.rmat(spark)
    val w = Amsf.expWeights(g, seed = 5)
    for (v <- Seq(Amsf.EA, Amsf.F, Amsf.NF, Amsf.NFS))
      assert(jobsOf(Amsf.run(spark, g, w, eps, v)) == 1, v.name)
    assert(jobsOf(Amsf.boruvka(spark, g, w)) == 1)
  }

  test("weights are deterministic in seed") {
    val g = TestGraphs.rmat(spark)
    val a = Amsf.expWeights(g, 3); val b = Amsf.expWeights(g, 3)
    assert(a.length == g.m && a.sameElements(b))
  }
}
