package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.Reference

/** Every union-find variant x find option x (for Rem's) splice option,
  * validated against the sequential reference on the full test-graph
  * suite as a plain finish method (No Sampling), whose gang tasks apply
  * each edge once, from its lower endpoint. The star centred at the
  * largest id and the descending path are the graphs where that skip
  * decides which endpoint applies every edge.
  */
class UnionFindSpec extends SparkSpec {

  /** All legal union-find option combinations (B.2.3 exclusion applied). */
  def allUfOpts: Seq[UnionFindOpt] = {
    val finds = Seq(FindNaive, FindAtomicSplit, FindAtomicHalve, FindCompress)
    val splices = Seq(SplitAtomicOne, HalveAtomicOne, SpliceAtomic)
    val plain = for {
      alg <- Seq(UfAsync, UfHooks, UfEarly)
      f <- finds
    } yield UnionFindOpt(alg, f)
    val jtb = Seq(UnionFindOpt(UfJtb, FindNaive), UnionFindOpt(UfJtb, FindAtomicSplit))
    val rem = for {
      alg <- Seq(UfRemCas, UfRemLock)
      f <- Seq(FindNaive, FindAtomicSplit, FindAtomicHalve, FindCompress)
      s <- splices
      if !(f == FindCompress && s == SpliceAtomic)
    } yield UnionFindOpt(alg, f, s)
    plain ++ jtb ++ rem
  }

  for {
    opt <- allUfOpts
    gname <- Seq("path", "torus", "rmat", "star", "multi", "uniform", "star-high", "path-desc")
  } test(s"${opt.name} matches reference on $gname") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
    val res = ConnectIt.connectivity(spark, g, NoSampling, opt)
    assert(Reference.samePartition(res.labels, ref),
      s"labeling mismatch for ${opt.name} on $gname")
    assert(res.numComponents == Reference.numComponents(ref))
  }

  test("UnionFindOpt rejects FindCompress + SpliceAtomic") {
    assertThrows[IllegalArgumentException] {
      UnionFindOpt(UfRemCas, FindCompress, SpliceAtomic)
    }
  }

  test("instrumentation records path lengths") {
    val g = TestGraphs.rmat(spark)
    val res = ConnectIt.connectivity(spark, g, NoSampling,
      UnionFindOpt(UfAsync, FindNaive), instrument = true)
    assert(res.totalPathLength >= 0L)
    assert(res.maxPathLength >= 0)
  }
}
