package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.{GraphGen, HostGraph, Reference}

/** Liu-Tarjan variants (all 16), Stergiou, Shiloach-Vishkin and
  * Label-Propagation against the sequential reference.
  */
class MinBasedSpec extends SparkSpec {

  val finishes: Seq[FinishOpt] =
    liuTarjanVariants ++ Seq(StergiouOpt, ShiloachVishkinOpt, LabelPropOpt)

  for {
    f <- finishes
    gname <- Seq("path", "torus", "rmat", "star", "multi")
  } test(s"${f.name} matches reference on $gname (no sampling)") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
    val res = ConnectIt.connectivity(spark, g, NoSampling, f)
    assert(Reference.samePartition(res.labels, ref),
      s"labeling mismatch for ${f.name} on $gname")
  }

  test("Label-Prop splits wide rounds across tasks and runs narrow ones on task 0") {
    // the first rounds' frontier work crosses GrainSize, the later ones
    // do not, so both the split path and the task-0 path run
    val g = HostGraph.fromEdges(spark, GraphGen.torus2d(spark, 300, 300))
    try {
      assert(2 * g.m >= Par.GrainSize)
      val ref = Reference.cc(g)
      for (rep <- 1 to 20) {
        val res = ConnectIt.connectivity(spark, g, NoSampling, LabelPropOpt)
        assert(Reference.samePartition(res.labels, ref), s"repetition $rep")
      }
    } finally g.unregister()
  }

  test("the paper's 16 Liu-Tarjan variants are all generated") {
    assert(liuTarjanVariants.size == 16)
    val names = liuTarjanVariants.map(_.name).toSet
    // spot-check the five originals + CRFA (fastest streaming variant)
    assert(names.contains("LT-CUSA"))
    assert(names.contains("LT-PUS"))
    assert(names.contains("LT-PRS"))
    assert(names.contains("LT-CRFA"))
    assert(names.contains("LT-EUF"))
  }
}
