package repro.bench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.SparkSession
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._
import repro.baselines.Baselines
import repro.graph.{Edge, GraphGen, HostGraph, Reference}
import repro.streaming.{Incremental, StingerLike}

/** Benchmark harnesses, one per evaluation table of the paper. Each
  * prints the table's rows (and returns them) so `bench/test` output can
  * be diffed against EXPERIMENTS.md.
  */
object Tables {

  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def fmt(s: Double): String =
    if (s == 0.0) "0" else if (s < 0.01) f"$s%.2e" else f"$s%.3f"

  private def emit(lines: Seq[String], tag: String = "table"): Seq[String] = {
    lines.foreach(l => println(s"[$tag] $l"))
    lines
  }

  // ------------------------------------------------------------ configs
  /** The fastest overall configuration (paper Section 4.2 takeaway). */
  val fastest: (SamplingOpt, FinishOpt) =
    (KOutSampling(2, KOutHybrid), UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne))

  /** Table 3 finish families; each is benched as the min over its listed
    * option variants (the paper reports the fastest option per family).
    */
  val t3Families: Seq[(String, Seq[FinishOpt])] = Seq(
    "UF-Early" -> Seq(UnionFindOpt(UfEarly, FindNaive)),
    "UF-Hooks" -> Seq(UnionFindOpt(UfHooks, FindNaive)),
    "UF-Async" -> Seq(UnionFindOpt(UfAsync, FindAtomicHalve)),
    "UF-Rem-CAS" -> Seq(UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)),
    "UF-Rem-Lock" -> Seq(UnionFindOpt(UfRemLock, FindNaive, SplitAtomicOne)),
    "UF-JTB" -> Seq(UnionFindOpt(UfJtb, FindAtomicSplit)),
    "Liu-Tarjan" -> Seq(
      LiuTarjanOpt(ExtendedConnect, rootUp = false, fullShortcut = true, alter = false), // EUF
      LiuTarjanOpt(ParentConnect, rootUp = true, fullShortcut = true, alter = false),    // PRF
      LiuTarjanOpt(ParentConnect, rootUp = false, fullShortcut = false, alter = false),  // PUS
      LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true),           // CRFA
    ),
    "SV" -> Seq(ShiloachVishkinOpt),
    "Label-Prop." -> Seq(LabelPropOpt),
  )

  val t3Samplings: Seq[(String, SamplingOpt)] = Seq(
    "No Sampling" -> NoSampling,
    "k-out Sampling" -> KOutSampling(2, KOutHybrid),
    "BFS Sampling" -> BfsSampling(),
    "LDD Sampling" -> LddSampling(0.2),
  )

  /** One timed connectivity run; asserts correctness against reference. */
  def timedCC(spark: SparkSession, g: HostGraph, s: SamplingOpt,
              f: FinishOpt): Double = {
    val (res, _) = time(ConnectIt.connectivity(spark, g, s, f))
    res.totalSec
  }

  /** The better of two timings of the same call: a warm-up and a timed run. */
  def best(t: => Double): Double = math.min(t, t)

  // ============================================================= Table 1
  /** Largest-graph showcase: our biggest suite graphs under the fastest
    * configuration, next to the paper's published system rows (which are
    * recorded in EXPERIMENTS.md — absolute times are not comparable).
    */
  def table1(spark: SparkSession): Seq[String] = {
    val rows = Seq("CW", "TW", "FR").map { name =>
      val g = GraphSuite.graph(spark, name)
      val (s, f) = fastest
      timedCC(spark, g, s, f) // warm
      val t = timedCC(spark, g, s, f)
      f"$name%-4s n=${g.n}%-9d m=${g.m}%-9d fastest-ConnectIt(k-out+UF-Rem-CAS)=${fmt(t)}s"
    }
    emit(rows)
  }

  // ============================================================= Table 2
  /** Graph inputs: n, m, effective diameter, #components, largest
    * component, load time.
    */
  def table2(spark: SparkSession): Seq[String] = {
    val rows = GraphSuite.all(spark).map { case (name, g) =>
      val labels = Reference.cc(g)
      val nc = Reference.numComponents(labels)
      val largest = Reference.largestComponent(labels)
      val diam = effectiveDiameter(g)
      f"$name%-4s n=${g.n}%-9d m=${g.m}%-9d diam~$diam%-6d numC=$nc%-7d largestC=$largest%-9d load=${fmt(g.loadTimeSec)}s"
    }
    emit(rows)
  }

  /** Max BFS eccentricity from a few sources (lower bound, like the
    * paper's starred effective diameters).
    */
  def effectiveDiameter(g: HostGraph, tries: Int = 2): Int = {
    var best = 0
    var t = 0
    var src = 0
    while (t < tries) {
      // sequential BFS (stats only)
      val dist = new Array[Int](g.n)
      java.util.Arrays.fill(dist, -1)
      while (src < g.n && g.degree(src) == 0) src += 1
      if (src >= g.n) return best
      val q = new java.util.ArrayDeque[Integer]()
      q.add(src); dist(src) = 0
      var far = src
      while (!q.isEmpty) {
        val v = q.poll().intValue()
        if (dist(v) > dist(far)) far = v
        var j = g.offsets(v)
        while (j < g.offsets(v + 1)) {
          val w = g.targets(j)
          if (dist(w) == -1) { dist(w) = dist(v) + 1; q.add(w) }
          j += 1
        }
      }
      best = math.max(best, dist(far))
      src = far // second try: from the farthest vertex (double sweep)
      t += 1
    }
    best
  }

  // ============================================================= Table 3
  /** Running times of every finish family under every sampling scheme,
    * plus the reimplemented "Other Systems". Every cell is the better of a
    * warm-up run and a timed run, so no cell carries the JIT warm-up of
    * its family's code.
    */
  def table3(spark: SparkSession): Seq[String] = {
    val graphs = GraphSuite.all(spark)
    System.gc() // quiet heap before timing
    val out = scala.collection.mutable.ArrayBuffer.empty[String]
    for ((sname, s) <- t3Samplings; (fname, opts) <- t3Families) {
      val cells = graphs.map { case (_, g) =>
        fmt(opts.map(o => best(timedCC(spark, g, s, o))).min)
      }
      out += f"$sname%-16s $fname%-12s ${cells.map(c => f"$c%-10s").mkString}"
    }
    // other systems
    val others: Seq[(String, (SparkSession, HostGraph) => Double)] = Seq(
      "BFSCC" -> ((sp, g) => time(Baselines.bfsCC(sp, g))._2),
      "WorkeffCC" -> ((sp, g) => time(Baselines.workEffCC(sp, g))._2),
      "MultiStep" -> ((sp, g) => Baselines.multiStep(sp, g).totalSec),
      "GAP-SV" -> ((sp, g) => Baselines.gapSV(sp, g).totalSec),
      "GAP-AF" -> ((sp, g) => Baselines.afforest(sp, g).totalSec),
    )
    for ((name, run) <- others) {
      val cells = graphs.map { case (_, g) => fmt(best(run(spark, g))) }
      out += f"${"Other Systems"}%-16s $name%-12s ${cells.map(c => f"$c%-10s").mkString}"
    }
    emit(f"${"Sampling"}%-16s ${"Algorithm"}%-12s ${graphs.map(g => f"${g._1}%-10s").mkString}" +: out.toSeq)
  }

  /** Sampling-speedup crossover (the paper's central Table 3 claim):
    * on a dense graph where per-edge finish work dominates the fixed
    * parallel-for barriers, two-phase execution must beat the unsampled
    * run. (At 1-3M edges our Spark job barriers hide the effect; the
    * paper's graphs are 50-75,000x larger.)
    */
  def table3b(spark: SparkSession): Seq[String] = {
    val g = GraphSuite.dense(spark)
    val f = fastest._2
    timedCC(spark, g, NoSampling, f) // warm
    val rows = t3Samplings.map { case (sname, s) =>
      val res = (1 to 3).map(_ =>
        ConnectIt.connectivity(spark, g, s, f)).minBy(_.totalSec)
      f"XL(n=${g.n},m=${g.m}) $sname%-16s UF-Rem-CAS total=${fmt(res.totalSec)}s sample=${fmt(res.sampleSec)}s finish=${fmt(res.finishSec)}s"
    }
    GraphSuite.release("XL")
    emit(rows)
  }

  // ============================================================= Table 4
  /** Max streaming throughput (edge updates/second): the whole edge set
    * as one parallel batch, per algorithm family.
    */
  def table4(spark: SparkSession): Seq[String] = {
    val graphs = GraphSuite.all(spark) ++ Seq(
      "RM" -> GraphSuite.rmatStream(spark),
      "BA" -> GraphSuite.baStream(spark))
    val algs: Seq[(String, FinishOpt)] = Seq(
      "UF-Early" -> UnionFindOpt(UfEarly, FindNaive),
      "UF-Hooks" -> UnionFindOpt(UfHooks, FindNaive),
      "UF-Async" -> UnionFindOpt(UfAsync, FindAtomicHalve),
      "UF-Rem-CAS" -> UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne),
      "UF-Rem-Lock" -> UnionFindOpt(UfRemLock, FindNaive, SplitAtomicOne),
      "UF-JTB" -> UnionFindOpt(UfJtb, FindAtomicSplit),
      "Liu-Tarjan" -> LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true),
      "SV" -> ShiloachVishkinOpt,
    )
    val batches: Map[String, Array[Long]] = graphs.map { case (n, g) =>
      n -> g.upperEdges()
    }.toMap
    System.gc() // quiet heap before timing
    val header = f"${"Algorithm"}%-12s ${graphs.map(g => f"${g._1}%-10s").mkString}"
    val rows = algs.map { case (name, alg) =>
      val cells = graphs.map { case (gn, g) =>
        val batch = batches(gn)
        def runOnce(): Double = {
          val inc = new Incremental(spark, g.n, alg)
          try { val (_, t) = time(inc.processBatch(batch)); t }
          finally inc.close()
        }
        runOnce() // warm
        val t = runOnce()
        f"${batch.length / t / 1e6}%.1fM"
      }
      f"$name%-12s ${cells.map(c => f"$c%-10s").mkString}"
    }
    emit(header +: rows)
  }

  // ============================================================= Table 5
  /** STINGER-substitute vs ConnectIt UF-Rem-CAS(SplitAtomicOne) on RMAT
    * update batches of growing size, inserted into an empty graph. Each
    * time per batch is the better of a warm-up pass and a timed pass over
    * the same batches, each into a fresh structure.
    */
  def table5(spark: SparkSession, n: Int = 1 << 20): Seq[String] = {
    val totalEdges = 2_000_000
    val allEdges = {
      val g = GraphSuite.rmatStream(spark)
      // remap into [0, n) and take totalEdges
      g.upperEdges().take(totalEdges).map { e =>
        val u = Edge.src(e) % n; val v = Edge.dst(e) % n
        Edge.pack(u, v)
      }
    }
    val sizes = Seq(10, 100, 1000, 10_000, 100_000, 1_000_000, 2_000_000)
    val rows = sizes.map { bs =>
      val nBatches = math.max(1, math.min(allEdges.length / bs, 50))
      val edges = allEdges.take(bs * nBatches)
      val stPer = best {
        val st = new StingerLike(n)
        time(edges.grouped(bs).foreach(st.insertBatch))._2
      } / nBatches
      val ciPer = best {
        val inc = new Incremental(spark, n, UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne))
        try time(edges.grouped(bs).foreach(b => inc.processBatch(b)))._2 finally inc.close()
      } / nBatches
      f"batch=$bs%-9d stinger-like=${fmt(stPer)}s (${bs / stPer}%.3g upd/s)   connectit=${fmt(ciPer)}s (${bs / ciPer}%.3g upd/s)   speedup=${stPer / ciPer}%.0fx"
    }
    emit(rows)
  }

  // ======================================================= crew cut-off
  /** The crossover that sets [[Par.GrainSize]]. For each op count, the
    * wall time of one streaming batch (UF-Rem-CAS; half INSERTs from an
    * RMAT-20 stream, half uniform ISCONNECTED queries) run inline, as a
    * gang of one on the calling thread, and on the resident crew; and of
    * an empty gang either way. Inline and crew batches alternate on one
    * structure per op count, preloaded with 500k edges, so both see the
    * same state. Each cell is the median of `reps` batches after `warm`
    * untimed ones, once the batch path has been compiled. The last row
    * names the smallest op count at which the crew wins.
    */
  def grain(spark: SparkSession, reps: Int = 31, warm: Int = 10): Seq[String] = {
    val scale = 20
    val n = 1 << scale
    val sizes = Seq.tabulate(7)(i => 1024 << i)
    val preload = 500_000
    val stream = GraphGen.rmat(spark, scale, preload + (warm + reps).toLong * sizes.max, seed = 3)
      .collect().map(r => Edge.pack(r.getInt(0), r.getInt(1)))
    val rnd = new java.util.SplittableRandom(3)
    def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6
    def median(xs: Array[Double]): Double = xs.sorted.apply(xs.length / 2)
    val modes = Seq(0L, Long.MaxValue) // work estimates: inline, crew
    // compile the batch path both ways before the first op count is timed
    val jit = new Incremental(spark, n, UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne))
    try stream.grouped(4096).take(400).zipWithIndex.foreach { case (b, i) =>
      jit.processBatchAt(b, b, modes(i % 2))
    } finally jit.close()
    val cells = sizes.map { ops =>
      val inc = new Incremental(spark, n, UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne))
      try {
        stream.take(preload).grouped(50_000).foreach(b => inc.processBatch(b))
        val batch, empty = modes.map(_ => new Array[Double](reps))
        var off = preload
        for (r <- -warm until reps; (work, m) <- modes.zipWithIndex) {
          val upd = java.util.Arrays.copyOfRange(stream, off, off + ops / 2)
          off += ops / 2
          val qry = Array.fill(ops - ops / 2)(Edge.pack(rnd.nextInt(n), rnd.nextInt(n)))
          val t0 = System.nanoTime()
          inc.processBatchAt(upd, qry, work)
          val tb = ms(t0)
          val t1 = System.nanoTime()
          Par.gang(spark, "grain-empty", work)(_ => ())
          val te = ms(t1)
          if (r >= 0) { batch(m)(r) = tb; empty(m)(r) = te }
        }
        (ops, batch.map(median), empty.map(median))
      } finally inc.close()
    }
    val crossover = cells.collectFirst { case (ops, b, _) if b(1) < b(0) => ops.toString }
    emit(cells.map { case (ops, b, e) =>
      f"ops=$ops%-6d inline=${b(0)}%.3fms crew=${b(1)}%.3fms empty-gang inline=${e(0)}%.4fms crew=${e(1)}%.4fms"
    } :+ s"crew wins from ops=${crossover.getOrElse("none")}", tag = "grain")
  }

  // ========================================================= Tables 6, 7
  /** Sampling quality: time, coverage of the most frequent component,
    * fraction of inter-component edges remaining. The time is the better
    * of a warm-up and a timed sampling phase, each on a fresh run
    * context; coverage and inter-component fraction are the timed run's.
    */
  def samplingQualityRow(spark: SparkSession, name: String, g: HostGraph,
                         s: SamplingOpt): String = {
    def sampled(ctx: RunCtx): Double = time(ConnectIt.sampleAndNormalize(spark, g, ctx, s))._2
    val warm = RunCtx.create(g.n)
    val tWarm = try sampled(warm) finally warm.unregister()
    val ctx = RunCtx.create(g.n)
    try {
      val t = math.min(tWarm, sampled(ctx))
      val freq = ConnectIt.identifyFrequent(ctx.sampled)
      val (cov, ic) = ConnectIt.samplingQuality(spark, g, ctx, freq)
      f"$name%-4s ${s.name}%-26s time=${fmt(t)}s cov=${cov * 100}%.1f%% ic=${ic * 100}%.4f%%"
    } finally ctx.unregister()
  }

  def table6(spark: SparkSession): Seq[String] =
    emit(GraphSuite.all(spark).flatMap { case (name, g) =>
      Seq(samplingQualityRow(spark, name, g, BfsSampling()),
          samplingQualityRow(spark, name, g, LddSampling(0.2)))
    })

  def table7(spark: SparkSession): Seq[String] =
    emit(GraphSuite.all(spark).map { case (name, g) =>
      samplingQualityRow(spark, name, g, KOutSampling(2, KOutHybrid))
    })

  // ============================================================= Table 8
  /** MapEdges / GatherEdges primitives vs the fastest ConnectIt times
    * with and without sampling. Every cell is the wall time of one whole
    * call (each a gang run), the better of a warm-up run and a timed run.
    */
  def table8(spark: SparkSession): Seq[String] = {
    val rows = GraphSuite.all(spark).map { case (name, g) =>
      val mapT = best(time(mapEdges(spark, g))._2)
      val gatT = best(time(gatherEdges(spark, g))._2)
      val noS = best(time(ConnectIt.connectivity(spark, g, NoSampling, fastest._2))._2)
      val withS = best(time(ConnectIt.connectivity(spark, g, fastest._1, fastest._2))._2)
      f"$name%-4s MapEdges=${fmt(mapT)}s GatherEdges=${fmt(gatT)}s ConnectIt(NoSample)=${fmt(noS)}s ConnectIt(Sample)=${fmt(withS)}s"
    }
    emit(rows)
  }

  /** Sum of `block(lo, hi)` over the slot blocks of `g`
    * ([[HostGraph.forSlotBlocks]]), as one gang run.
    */
  private def sumOverSlotBlocks(spark: SparkSession, g: HostGraph, run: String)
                               (block: (Int, Int) => Long): Long = {
    val sum = new AtomicLong(0)
    Par.gang(spark, s"$run:${g.id}") { t => g.forSlotBlocks(t)((lo, hi) => sum.addAndGet(block(lo, hi))) }
    sum.get()
  }

  /** Reduce +1 over every directed edge (reads the CSR sequentially). */
  def mapEdges(spark: SparkSession, g: HostGraph): Long =
    sumOverSlotBlocks(spark, g, "map-edges") { (lo, hi) =>
      var s = 0L
      var v = lo
      while (v < hi) { s += g.degree(v); v += 1 }
      s
    }

  /** Indirect read per directed edge (degree of the neighbour). */
  def gatherEdges(spark: SparkSession, g: HostGraph): Long =
    sumOverSlotBlocks(spark, g, "gather-edges") { (lo, hi) =>
      var s = 0L
      var v = lo
      while (v < hi) {
        var j = g.offsets(v)
        while (j < g.offsets(v + 1)) {
          val w = g.targets(j)
          s += g.offsets(w + 1) - g.offsets(w) // indirect read
          j += 1
        }
        v += 1
      }
      s
    }
}
