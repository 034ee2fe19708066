package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.{Edge, Reference}

/** Composability (Definition 3.1) of every sampling method: the emitted
  * labeling must be height-1 trees (after normalization, rooted at
  * component minima) and a valid *partial* labeling of G.
  */
class SamplingSpec extends SparkSpec {

  def allSamplings: Seq[SamplingOpt] = Seq(
    KOutSampling(2, KOutAfforest), KOutSampling(2, KOutPure),
    KOutSampling(2, KOutHybrid), KOutSampling(2, KOutMaxDeg),
    KOutSampling(1, KOutHybrid), KOutSampling(4, KOutHybrid),
    BfsSampling(), LddSampling(0.2), LddSampling(0.5), LddSampling(0.1),
  )

  for {
    s <- allSamplings
    gname <- Seq("path", "torus", "rmat", "multi")
  } test(s"${s.name} is composable on $gname") {
    val (_, g, ref) = TestGraphs.suite(spark).find(_._1 == gname).get
    val ctx = RunCtx.create(g.n)
    try {
      s match {
        case KOutSampling(k, v, seed) =>
          repro.core.sampling.KOutSampling.sample(spark, g, ctx, k, v, seed)
        case BfsSampling(c, seed) =>
          repro.core.sampling.BfsSampling.sample(spark, g, ctx, c, seed)
        case LddSampling(b, p, seed) =>
          repro.core.sampling.LddSampling.sample(spark, g, ctx, b, p, seed)
        case NoSampling => fail()
      }
      ConnectIt.normalizeSampled(spark, ctx)
      val labels = ctx.labelsRaw
      // Requirement (1): height-1 trees rooted at their own minimum.
      labels.zipWithIndex.foreach { case (l, v) =>
        assert(labels(l) == l, s"root of $v's tree ($l) is not a self-loop")
        assert(l <= v, s"label $l of $v exceeds the vertex id (not min-rooted)")
      }
      // Requirement (2): partial labeling — same label => same component.
      labels.zipWithIndex.foreach { case (l, v) =>
        assert(ref(l) == ref(v),
          s"sampling merged $v and $l which are in different components")
      }
    } finally ctx.unregister()
  }

  test("k-out sampling on a connected torus leaves few inter-component edges") {
    val g = TestGraphs.torus(spark)
    val res = ConnectIt.connectivity(spark, g, KOutSampling(2, KOutHybrid),
      UnionFindOpt(UfRemCas), sampleStats = true)
    assert(res.interCompFrac < 0.6)
    assert(res.coverage > 0.0)
  }

  test("BFS sampling covers a connected graph entirely") {
    val g = TestGraphs.torus(spark)
    val res = ConnectIt.connectivity(spark, g, BfsSampling(),
      UnionFindOpt(UfRemCas), sampleStats = true)
    assert(res.coverage == 1.0)
    assert(res.interCompFrac == 0.0)
  }

  test("BFS splits a wide top-down level across tasks and claims each vertex once") {
    // center 0 -> 40 hubs -> the same 2048 leaves: the hubs' level has
    // more frontier edges than Par.GrainSize, so the tasks claim the
    // leaves concurrently; the leaves' level is bottom-up
    val hubs = 40
    val leaves = 2048
    val n = 1 + hubs + leaves
    val edges = (1 to hubs).map(h => (0, h)) ++
      (for (h <- 1 to hubs; l <- 0 until leaves) yield (h, 1 + hubs + l))
    val g = repro.graph.HostGraph.fromArray(spark, n, edges.toArray)
    try {
      for (_ <- 0 until 5) {
        val ctx = RunCtx.create(n)
        try {
          ctx.ensureForest()
          val bfs = new repro.core.sampling.BfsSampling.Bfs(g, ctx)
          val covered = new java.util.concurrent.atomic.AtomicIntegerArray(1)
          Par.gang(spark, "wide-bfs") { t =>
            val c = bfs(t, 0)
            if (t.index == 0) covered.set(0, c)
          }
          assert(covered.get(0) == n)
          assert((0 until n).forall(ctx.parents.get(_) == 0))
          // each vertex but the source holds one tree edge from the level above
          for (w <- 1 until n) {
            val e = ctx.forest.get(w)
            val (u, x) = (Edge.src(e), Edge.dst(e))
            assert(x == w && (if (w <= hubs) u == 0 else u >= 1 && u <= hubs), s"vertex $w: edge ($u, $x)")
          }
        } finally ctx.unregister()
      }
    } finally g.unregister()
  }

  test("LDD sampling with smaller beta cuts fewer edges on the torus") {
    val g = TestGraphs.torus(spark)
    def ic(beta: Double): Double =
      ConnectIt.connectivity(spark, g, LddSampling(beta),
        UnionFindOpt(UfRemCas), sampleStats = true).interCompFrac
    assert(ic(0.05) <= ic(0.8) + 0.05)
  }

  test("identifyFrequent finds the majority label") {
    assert(ConnectIt.identifyFrequent(Array(3, 3, 3, 1, 2)) == 3)
    assert(ConnectIt.identifyFrequent(Array(0, 1, 2, 3)) == -1) // singletons
  }
}
