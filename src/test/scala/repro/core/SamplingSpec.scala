package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.{SparkSpec, TestGraphs}
import repro.core.Options._
import repro.graph.{Edge, GraphGen, HostGraph, Reference, SharedState}

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
      ConnectIt.sampleAndNormalize(spark, g, ctx, s)
      val labels = ctx.sampled
      assert((0 until g.n).forall(v => ctx.parents.get(v) == labels(v)))
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

  /** The edges k-out sampling picks from `g`, derived here from the
    * variants' definitions (Appendix C.3) and `GraphGen.mix`.
    */
  private def kOutPicks(g: HostGraph, s: KOutSampling): Iterator[(Int, Int)] =
    for {
      v <- Iterator.range(0, g.n)
      off = g.offsets(v)
      deg = g.degree(v) if deg > 0
      j <- Iterator.range(0, s.k)
      w <- (s.variant, j) match {
        case (KOutAfforest, _) => if (j < deg) Some(g.targets(off + j)) else None
        case (KOutHybrid, 0) => Some(g.targets(off)) // the CSR is sorted
        case (KOutMaxDeg, 0) => Some((off until off + deg).map(g.targets).maxBy(g.degree))
        case _ =>
          Some(g.targets(off + ((GraphGen.mix(s.seed ^ GraphGen.mix(v.toLong * 131 + j)) >>> 1) % deg).toInt))
      }
    } yield (v, w)

  // n >= 2^17: each of the 16 sub-rounds of a later link round gives every
  // task blocks to claim. Both graphs leave isolated vertices and many
  // components, so a wrong or missing link shows in the partition.
  private def koutGraphs: Seq[(String, HostGraph)] = Seq(
    "uniform-2^17" -> TestGraphs.get("uniform-2^17")(HostGraph.fromEdges(spark,
      GraphGen.uniform(spark, 1 << 17, 1L << 17, seed = 5), nOverride = 1 << 17)),
    "rmat-2^17" -> TestGraphs.get("rmat-2^17")(HostGraph.fromEdges(spark,
      GraphGen.rmat(spark, 17, 4L << 17, seed = 9), nOverride = 1 << 17)))

  for {
    variant <- Seq(KOutAfforest, KOutPure, KOutHybrid, KOutMaxDeg)
    k <- 1 to 3
  } test(s"k-out(${variant.name}, k=$k) samples the components of its picks on large graphs") {
    val s = KOutSampling(k, variant)
    for ((gname, g) <- koutGraphs) {
      val expected = Reference.cc(g.n, kOutPicks(g, s))
      for (forestMode <- Seq(false, true)) {
        val ctx = RunCtx.create(g.n, forest = forestMode)
        try {
          ConnectIt.sampleAndNormalize(spark, g, ctx, s)
          assert(Reference.samePartition(ctx.sampled, expected), s"$gname (forest $forestMode): sampled partition")
          if (forestMode) { // one recorded edge per hook, spanning the sampled trees
            val edges = ctx.forestEdges
            assert(edges.length == g.n - Reference.numComponents(expected), s"$gname: sampled forest size")
            assert(Reference.samePartition(Reference.cc(g.n, edges.iterator), expected), s"$gname: sampled forest")
          }
        } finally ctx.unregister()
      }
      val forest = ConnectIt.spanningForest(spark, g, s, UnionFindOpt(UfRemCas)).forest
      assert(Reference.validSpanningForest(g, forest), s"$gname: invalid spanning forest")
    }
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
    // center 0 -> 8 hubs -> the same 512 leaves, each leaf also joined to
    // the 100 leaves on either side of it in a ring -> one pendant per
    // leaf. The ring's edges raise m/20 above the hubs' level, which has
    // more frontier edges than Frontier.SplitWork: it is a sparse round
    // split across the tasks, which claim the leaves concurrently. The
    // leaves' level holds more than m/20 and is dense: each pendant pulls
    // from its leaf. A leaf's neighbours are listed by id, the hubs first,
    // so no leaf is claimed from another leaf.
    val (hubs, leaves, ring) = (8, 512, 100)
    val n = 1 + hubs + 2 * leaves
    def leaf(l: Int): Int = 1 + hubs + l
    def pendant(l: Int): Int = 1 + hubs + leaves + l
    val edges = (1 to hubs).map(h => (0, h)) ++
      (for (h <- 1 to hubs; l <- 0 until leaves) yield (h, leaf(l))) ++
      (for (l <- 0 until leaves; d <- 1 to ring) yield (leaf(l), leaf((l + d) % leaves))) ++
      (0 until leaves).map(l => (leaf(l), pendant(l)))
    val g = repro.graph.HostGraph.fromArray(spark, n, edges.toArray)
    try {
      for (_ <- 0 until 5) {
        val ctx = RunCtx.create(n, forest = true)
        try {
          val bfs = new repro.core.sampling.BfsSampling.Bfs(g, ctx)
          val covered = new java.util.concurrent.atomic.AtomicIntegerArray(1)
          Par.gang(spark, "wide-bfs") { t =>
            val c = bfs(t, 0)
            if (t.index == 0) covered.set(0, c)
          }
          assert(covered.get(0) == n)
          assert((0 until n).forall(ctx.parents.get(_) == 0))
          // the source's and the pendants' levels on task 0, the hubs'
          // split, the leaves' dense
          assert((bfs.f.serialRounds, bfs.f.splitRounds, bfs.f.denseRounds) == (2, 1, 1))
          // each vertex but the source holds one tree edge from the level above
          for (w <- 1 until n) {
            val e = ctx.forest.get(w)
            val (u, x) = (Edge.src(e), Edge.dst(e))
            val above =
              if (w <= hubs) u == 0
              else if (w < leaf(leaves)) u >= 1 && u <= hubs
              else u == w - leaves
            assert(x == w && above, s"vertex $w: edge ($u, $x)")
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

  /** Runs LDD sampling `reps` times on `g` and checks that every vertex
    * lands in a cluster whose center reaches it first (MPX). A claim race
    * picks among clusters that arrive in the same round, so the property
    * is exact at any number of tasks. Returns the work of each round's
    * frontier (the vertices that arrive in it), computed serially, and
    * the fewest dense rounds of a run.
    */
  private def checkMpx(g: HostGraph, beta: Double, seed: Long, reps: Int): (Seq[Long], Int) = {
    val n = g.n
    val shifts = Array.tabulate(n)(v => sampling.LddSampling.shift(v, beta, permute = false, seed))
    val dmax = shifts.max
    val start = shifts.map(sampling.LddSampling.startRound(_, dmax))
    // serial multi-source BFS: arrival(w) = min over v of start(v) + dist(v, w)
    val arrival = start.clone()
    val buckets = ArrayBuffer.empty[ArrayBuffer[Int]]
    def enqueue(v: Int, t: Int): Unit = {
      while (buckets.size <= t) buckets += ArrayBuffer.empty[Int]
      buckets(t) += v
    }
    (0 until n).foreach(v => enqueue(v, start(v)))
    for (t <- buckets.indices; v <- buckets(t) if arrival(v) == t; j <- g.offsets(v) until g.offsets(v + 1)) {
      val w = g.targets(j)
      if (arrival(w) > t + 1) { arrival(w) = t + 1; enqueue(w, t + 1) }
    }
    // round r's frontier is the vertices that arrive in round r
    val work = (0 to arrival.max).map { r =>
      val f = new Frontier(g, new java.util.concurrent.atomic.AtomicIntegerArray(n))
      (0 until n).filter(arrival(_) == r).foreach(f.add)
      f.work
    }
    val before = SharedState.size
    val dense = for (rep <- 1 to reps) yield {
      val ctx = RunCtx.create(n)
      try {
        val k = new sampling.LddSampling.Kernel(g, ctx, beta, permute = false, seed)
        Par.gang(spark, ctx.id)(k)
        val center = Array.tabulate(n)(ctx.parents.get)
        // a center starts in its start round; any other vertex has a
        // neighbour in its cluster that arrived one round earlier, so by
        // induction start(c) + dist(c, w) <= arrival(w), and >= holds
        // by the definition of arrival
        for (w <- 0 until n) {
          val c = center(w)
          if (c == w) assert(arrival(w) == start(w), s"rep $rep: center $w")
          else assert(center(c) == c && (g.offsets(w) until g.offsets(w + 1)).exists { j =>
            val u = g.targets(j)
            center(u) == c && arrival(u) == arrival(w) - 1
          }, s"rep $rep: vertex $w in the cluster of $c arrived at ${arrival(w)}")
        }
        k.f.denseRounds
      } finally ctx.unregister()
    }
    assert(SharedState.size == before)
    (work, dense.min)
  }

  test("LDD puts every vertex in a cluster whose center reaches it first (MPX), 20 repetitions") {
    // The 512x512 torus has LDD rounds on both sides of
    // Frontier.SplitWork, so both the split rounds and the task-0 rounds
    // run, and its largest rounds are dense.
    val g = HostGraph.fromEdges(spark, GraphGen.torus2d(spark, 512, 512))
    try {
      val (work, dense) = checkMpx(g, 0.2, 41L, 20)
      assert(work.count(_ >= Frontier.SplitWork) > 0 && work.count(w => w > 0 && w < Frontier.SplitWork) > 0,
        s"rounds' work: ${work.mkString(",")}")
      assert(dense > 0, s"rounds' work: ${work.mkString(",")}")
    } finally g.unregister()
  }

  test("LDD puts every vertex in a cluster whose center reaches it first (MPX) on a uniform graph with dense rounds") {
    // a low-diameter graph: a few rounds hold most of the vertices
    val g = TestGraphs.large(spark)
    val (work, dense) = checkMpx(g, 0.2, 41L, 20)
    assert(dense > 0, s"rounds' work: ${work.mkString(",")}")
  }

  test("identifyFrequentPar finds the majority label") {
    def frequent(labels: Array[Int]): Int = {
      val ctx = RunCtx.create(labels.length)
      try { ctx.sampled = labels; ConnectIt.identifyFrequentPar(spark, ctx) } finally ctx.unregister()
    }
    assert(frequent(Array(3, 3, 3, 1, 2)) == 3)
    assert(frequent(Array(0, 1, 2, 3)) == -1) // singletons
  }
}
