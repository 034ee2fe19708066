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
    // The 300x300 torus's first rounds cross Frontier.SplitWork. Its
    // later rounds stay wide below 4 tasks, where a few sweeps flood it,
    // so a path rides along whose smallest vertex m sits at one end, the
    // ids falling away from it (m, m + 199, m + 198, ..., m + 1): m's
    // label moves one hop a round, and those one-vertex rounds run on
    // task 0 at any number of tasks.
    val torus = GraphGen.torus2d(spark, 300, 300)
    val m = 300 * 300
    val path = (m +: (m + 199 to m + 1 by -1)).sliding(2).map(p => (p(0), p(1))).toSeq
    val g = HostGraph.fromEdges(spark, torus.union(spark.createDataFrame(path).toDF(torus.columns: _*)))
    try {
      val ref = Reference.cc(g)
      assert(Reference.numComponents(ref) == 2)
      for (rep <- 1 to 20) {
        val ctx = RunCtx.create(g.n)
        try {
          val lp = new minbased.MinBased.LabelProp(g, ctx)
          Par.gang(spark, s"labelprop-$rep")(lp(_))
          assert(Reference.samePartition(Array.tabulate(g.n)(ctx.parents.get), ref), s"repetition $rep")
          assert(lp.f.splitRounds > 0 && lp.f.serialRounds > 0,
            s"repetition $rep: ${lp.f.splitRounds} split rounds, ${lp.f.serialRounds} on task 0")
        } finally ctx.unregister()
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
