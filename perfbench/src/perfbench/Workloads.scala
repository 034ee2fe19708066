package perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ConnectIt, RunCtx}
import repro.core.Options._
import repro.core.{sampling => smp}
import repro.graph.{GraphGen, HostGraph, Reference}
import repro.streaming.Incremental
import scala.collection.mutable

/** The three workloads. Each alternates two operation kinds, `a` and `b`,
  * so one run compares two paths through the same layers:
  *
  *  - static-uniform: NoSampling vs k-out sampling, both finished by
  *    UF-Rem-CAS, on a low-diameter uniform random graph (the paper's
  *    sampling-vs-no-sampling comparison, Table 3).
  *  - static-torus: LDD sampling + UF-Rem-CAS vs NoSampling + Label-Prop
  *    on a high-diameter 2-D torus: many Spark jobs per run vs about a
  *    thousand small frontier rounds, mostly inline on the driver.
  *  - stream-rmat: one 50k-insert batch (one Spark job) vs ten 5k-insert
  *    batches (inline), each with as many connectivity queries, fed into
  *    one evolving union-find (Tables 4/5).
  */
object Workloads {
  val names: Seq[String] = Seq("static-uniform", "static-torus", "stream-rmat")

  private val Uf = UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne)
  /** Input builds per run; setup_s takes their median. */
  private val SetupReps = 3
  /** Ops run untimed this long first: they get up to 40% faster over the
    * first seconds as the JIT compiles the kernels and Spark's scheduler.
    */
  private val WarmupS = 10.0

  def run(env: Env): String = env.workload match {
    case "static-uniform" =>
      val n = 1 << 18
      runStatic(env, StaticSpec(n,
        (s, seed) => GraphGen.uniform(s, n, 10L * n, seed),
        a = Cfg("nosample", NoSampling, Uf),
        b = Cfg("kout", KOutSampling(2, KOutHybrid, env.seed), Uf),
        sampled = "b", instrumented = "a"))
    case "static-torus" =>
      val side = 512
      runStatic(env, StaticSpec(side * side,
        (s, _) => GraphGen.torus2d(s, side, side),
        a = Cfg("ldd", LddSampling(0.2, permute = false, env.seed), Uf),
        b = Cfg("labelprop", NoSampling, LabelPropOpt),
        sampled = "a", instrumented = "a"))
    case "stream-rmat" => runStream(env)
  }

  // ------------------------------------------------------------- shared

  /** A connectivity configuration under test; `label` names its metrics. */
  final case class Cfg(label: String, sampling: SamplingOpt, finish: FinishOpt)

  /** One op kind: `key` ("a"/"b") names the metrics every workload
    * reports, `label` the workload's own (cc_kout, batch_large, ...).
    */
  final case class Kind(key: String, op: String, label: String)

  /** Edges handled by one round of the op mix, and the op time it took. */
  final case class Round(traced: Boolean, edges: Double, busyS: Double)

  /** What a workload measured, for [[report]]. */
  final class Measured(val env: Env, val runner: Runner, val a: Kind, val b: Kind,
                       val rateLabel: String) {
    val rounds = mutable.ArrayBuffer.empty[Round]
    var builds: Seq[Double] = Nil
    var inputBytes = 0.0
    var memMb = 0.0
    var n = 0
  }

  private def listenerFor(env: Env): Option[JobListener] =
    if (!env.trace) None
    else { val l = new JobListener; env.spark.sparkContext.addSparkListener(l); Some(l) }

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Builds the input [[SetupReps]] times, releasing each build before the
    * next so only one is live; returns the last build and every build time.
    */
  private def setup[T](build: => T)(release: T => Unit): (T, Seq[Double]) = {
    var last = Option.empty[T]
    val times = (1 to SetupReps).map { _ =>
      last.foreach(release)
      last = None
      val (x, t) = timed(build)
      last = Some(x)
      t
    }
    (last.get, times)
  }

  /** Used heap after a full collection; taken after the timed window so
    * the forced collection cannot disturb timed ops.
    */
  private def liveHeapMb(): Double = {
    System.gc(); System.gc()
    java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def deadline(seconds: Double): Long = System.nanoTime() + (seconds * 1e9).toLong

  // ------------------------------------------------------------- static

  /** `sampled` / `instrumented` name the kind ("a"/"b") whose sampling
    * step and union-find paths the traced run probes.
    */
  final case class StaticSpec(n: Int, edges: (SparkSession, Long) => DataFrame,
                              a: Cfg, b: Cfg, sampled: String, instrumented: String) {
    def cfg(key: String): Cfg = if (key == "a") a else b
  }

  private def runStatic(env: Env, spec: StaticSpec): String = {
    val spark = env.spark
    val (g, builds) = setup(
      HostGraph.fromEdges(spark, spec.edges(spark, env.seed), nOverride = spec.n))(_.unregister())
    val ref = Reference.cc(g)
    val runner = new Runner(spark, listenerFor(env))
    val m = new Measured(env, runner, Kind("a", spec.a.label, s"cc_${spec.a.label}"),
      Kind("b", spec.b.label, s"cc_${spec.b.label}"), "edges_per_s")
    m.builds = builds
    m.n = g.n
    m.inputBytes = 4.0 * (g.offsets.length + g.targets.length) + 8.0 * g.chunks.map(_.length.toLong).sum
    // (sampleSec, finishSec, wall - totalSec) of every op
    val phases = mutable.HashMap.empty[Long, (Double, Double, Double)]

    def cc(cfg: Cfg, measured: Boolean, traced: Boolean, instrument: Boolean = false,
           sampleStats: Boolean = false): (Option[ConnectIt.CCResult], OpRec) = {
      val (r, rec) = runner.op(cfg.label, measured, traced) {
        ConnectIt.connectivity(spark, g, cfg.sampling, cfg.finish,
          instrument = instrument, sampleStats = sampleStats)
      }(_.exists(r => Reference.samePartition(ref, r.labels)))
      r.foreach(x => phases(rec.id) = (x.sampleSec, x.finishSec, rec.wallS - x.totalSec))
      (r, rec)
    }

    System.gc() // set-up garbage must not be collected inside the window
    val warm = deadline(WarmupS)
    while (System.nanoTime() < warm) { cc(spec.a, false, false); cc(spec.b, false, false) }

    val end = deadline(env.seconds)
    var cycle = 0
    // at least two rounds, so a traced run has traced and untraced ones
    while (System.nanoTime() < end || cycle < 2) {
      val traced = env.trace && cycle % 2 == 0
      val (_, oa) = cc(spec.a, true, traced)
      val (_, ob) = cc(spec.b, true, traced)
      if (oa.ok && ob.ok) m.rounds += Round(traced, 2.0 * g.m, oa.wallS + ob.wallS)
      cycle += 1
    }
    m.memMb = liveHeapMb()

    val extra = mutable.ArrayBuffer.empty[(String, Double, String)]
    if (env.trace) {
      for (cfg <- Seq(spec.a, spec.b)) {
        val ph = runner.ops.filter(o => o.traced && o.measured && o.ok && o.kind == cfg.label)
          .flatMap(o => phases.get(o.id)).toSeq
        extra += ((s"core.connectit.sample_s.${cfg.label}", Stats.median(ph.map(_._1)), "s"))
        extra += ((s"core.connectit.finish_s.${cfg.label}", Stats.median(ph.map(_._2)), "s"))
        extra += ((s"core.connectit.outside_s.${cfg.label}", Stats.median(ph.map(_._3)), "s"))
      }
      // each public sampling step on a fresh RunCtx (as Tables.samplingQualityRow)
      val s = spec.cfg(spec.sampled)
      val probes = (1 to 3).flatMap { _ =>
        runner.op("sampling-probe", measured = false, traced = true) {
          val ctx = RunCtx.create(g.n)
          try {
            val (_, ts) = runner.step(s.label)(s.sampling match {
              case KOutSampling(k, v, seed) => smp.KOutSampling.sample(spark, g, ctx, k, v, seed)
              case LddSampling(beta, p, seed) => smp.LddSampling.sample(spark, g, ctx, beta, p, seed)
              case other => throw new IllegalArgumentException(other.name)
            })
            val (_, tn) = runner.step("normalize")(ConnectIt.normalizeSampled(spark, ctx))
            ctx.snapshotSampled()
            val (_, tf) = runner.step("frequent")(ConnectIt.identifyFrequentPar(spark, ctx))
            (ts, tn, tf)
          } finally ctx.unregister()
        }(_.isDefined)._1
      }
      extra += ((s"core.sampling.${s.label}_s", Stats.median(probes.map(_._1)), "s"))
      extra += (("core.sampling.normalize_s", Stats.median(probes.map(_._2)), "s"))
      extra += (("core.sampling.frequent_s", Stats.median(probes.map(_._3)), "s"))
      cc(s, false, false, sampleStats = true)._1.foreach { r =>
        extra += ((s"core.sampling.coverage.${s.label}", r.coverage, "ratio"))
        extra += ((s"core.sampling.inter_frac.${s.label}", r.interCompFrac, "ratio"))
      }
      val u = spec.cfg(spec.instrumented)
      cc(u, false, false, instrument = true)._1.foreach { r =>
        extra += ((s"core.uf.path_len_total.${u.label}", r.totalPathLength.toDouble, "count"))
        extra += ((s"core.uf.path_len_max.${u.label}", r.maxPathLength.toDouble, "count"))
      }
      extra += (("graph.from_edges_s", Stats.median(m.builds), "s"))
    }
    g.unregister()
    report(m, extra.toSeq)
  }

  // ------------------------------------------------------------- stream

  private def runStream(env: Env): String = {
    val spark = env.spark
    val scale = 20
    val n = 1 << scale
    val large = 50000
    val small = 5000
    val cycleLen = large + 10 * small
    val cycles = 20
    val ((stream, queries), builds) = setup {
      val upd = GraphGen.rmat(spark, scale, cycles.toLong * cycleLen, seed = env.seed).collect()
        .map(r => (r.getInt(0).toLong << 32) | (r.getInt(1).toLong & 0xffffffffL))
      val rnd = new java.util.SplittableRandom(env.seed * 0x9e3779b97f4a7c15L + 1)
      val qry = Array.fill(upd.length)((rnd.nextInt(n).toLong << 32) | rnd.nextInt(n).toLong)
      (upd, qry)
    }(_ => ())
    val runner = new Runner(spark, listenerFor(env))
    val m = new Measured(env, runner, Kind("a", "large", "batch_large"),
      Kind("b", "small", "batch_small"), "stream_upd_per_s")
    m.builds = builds
    m.n = n
    m.inputBytes = 8.0 * (stream.length + queries.length)
    var answers = 0L
    var trues = 0L

    // One pass replays the stream into a fresh Incremental from empty;
    // a benchmark-side sequential union-find is the reference state.
    def pass(measured: Boolean, traced: Boolean, nCycles: Int): Unit = {
      val inc = new Incremental(spark, n, Uf)
      val seq = new Reference.SeqUF(n)
      def conn(q: Long): Boolean = seq.find((q >>> 32).toInt) == seq.find(q.toInt)
      var off = 0
      var busy = 0.0
      var allOk = true
      try {
        for (_ <- 1 to nCycles; (kind, size) <- ("large", large) +: Seq.fill(10)(("small", small))) {
          val upd = java.util.Arrays.copyOfRange(stream, off, off + size)
          val qry = java.util.Arrays.copyOfRange(queries, off, off + size)
          off += size
          val pre = qry.map(conn)
          val (res, rec) = runner.op(kind, measured, traced)(inc.processBatch(upd, qry)) { res =>
            upd.foreach(e => seq.union((e >>> 32).toInt, e.toInt))
            // a true must hold after the batch, a false before it
            res.exists(r => r.length == qry.length &&
              r.indices.forall(i => if (r(i)) conn(qry(i)) else !pre(i)))
          }
          if (measured) res.foreach { r => answers += r.length; trues += r.count(identity) }
          busy += rec.wallS
          allOk &&= rec.ok
        }
        val (_, lrec) = runner.op("labels", measured, traced)(inc.labels) {
          _.exists(l => Reference.samePartition(l, Array.tabulate(n)(seq.find)))
        }
        if (measured && allOk && lrec.ok) m.rounds += Round(traced, off.toDouble, busy)
      } finally inc.close()
    }

    System.gc()
    val warm = deadline(WarmupS)
    while (System.nanoTime() < warm) pass(measured = false, traced = false, nCycles = cycles)
    val end = deadline(env.seconds)
    var p = 0
    while (System.nanoTime() < end || p < 2) {
      pass(measured = true, traced = env.trace && p % 2 == 0, nCycles = cycles)
      p += 1
    }
    m.memMb = liveHeapMb()

    val extra = mutable.ArrayBuffer.empty[(String, Double, String)]
    if (env.trace) {
      val labels = runner.ops.filter(o => o.traced && o.measured && o.ok && o.kind == "labels")
      for (k <- Seq(m.a, m.b)) {
        val traced = runner.ops.filter(o => o.traced && o.measured && o.ok && o.kind == k.op).toSeq
        extra += ((s"streaming.jobs_per_batch.${k.op}", Stats.mean(traced.map(o => runner.layers(o).jobs.toDouble)), "count"))
      }
      extra += (("graph.stream_gen_s", Stats.median(m.builds), "s"))
      extra += (("streaming.labels_s", Stats.median(labels.map(_.wallS).toSeq), "s"))
      extra += (("streaming.query_true_frac", trues.toDouble / math.max(1L, answers), "ratio"))
    }
    report(m, extra.toSeq)
  }

  // ------------------------------------------------------------- report

  private def report(m: Measured, extra: Seq[(String, Double, String)]): String = {
    val env = m.env
    val runner = m.runner
    val rep = new Report
    val setupS = env.sessionS + Stats.median(m.builds)
    def ops(k: Kind, traced: Boolean) = runner.ops.filter(o =>
      o.measured && o.ok && o.kind == k.op && o.traced == traced).toSeq
    def p50(k: Kind, traced: Boolean): Double = Stats.median(ops(k, traced).map(_.wallS))
    def rate(traced: Boolean): Double =
      Stats.median(m.rounds.filter(_.traced == traced).map(r => r.edges / r.busyS).toSeq)

    rep.line(s"workload ${env.workload} seed ${env.seed} trace ${if (env.trace) 1 else 0}: " +
      s"${runner.attempted} ops, ${runner.failed} failed")
    rep.line("end-to-end" + (if (env.trace) " (traced ops; untraced ops of this run beside them)" else ""))
    val put: (String, Double, String, String) => Unit =
      if (env.trace) (k, v, u, note) => rep.show(k, v, u, note) else (k, v, u, note) => rep.put(k, v, u, note)
    put("setup_s", setupS, "s",
      f"Spark session ${env.sessionS}%.3f s + median input build of ${m.builds.map(b => f"$b%.3f").mkString(", ")} s")
    put("mem_live_mb", m.memMb, "MB", "used heap after full GC, after the timed window")
    for (k <- Seq(m.a, m.b)) {
      val xs = ops(k, env.trace).map(_.wallS)
      val p90 =
        if (Stats.valid(xs.length, 0.9)) f"${k.label}_s_p90 ${Stats.percentile(xs, 0.9)}%.6f s"
        else s"${k.label}_s_p90 not valid: ${xs.length} samples, needs 100"
      val untraced = if (env.trace) f"; untraced ${p50(k, traced = false)}%.6f s" else ""
      put(s"op_${k.key}_s_p50", p50(k, env.trace), "s", s"${k.label}_s_p50, n=${xs.length}; $p90$untraced")
    }
    val rounds = m.rounds.count(_.traced == env.trace)
    put("edges_per_s", rate(env.trace), "edges/s",
      s"${m.rateLabel}, median of $rounds rounds" +
        (if (env.trace) f"; untraced ${rate(traced = false)}%.1f" else ""))
    rep.show("fail_frac", runner.failed.toDouble / math.max(1, runner.attempted), "ratio",
      s"${runner.failed} of ${runner.attempted} ops failed")

    if (env.trace) {
      rep.line("per-layer (traced ops)")
      rep.put("graph.input_s", Stats.median(m.builds), "s", "median input build")
      rep.put("graph.bytes", m.inputBytes, "bytes")
      val createS = Stats.median((1 to 5).map(_ => timed(RunCtx.create(m.n).unregister())._2))
      rep.put("core.runctx.create_s", createS, "s", s"RunCtx.create(${m.n}) + unregister")
      val traced = runner.ops.filter(o => o.traced && o.measured && o.ok && (o.kind == m.a.op || o.kind == m.b.op)).toSeq
      val layers = traced.map(o => o -> runner.layers(o)).toMap
      for (k <- Seq(m.a, m.b)) {
        val ls = traced.filter(_.kind == k.op).map(layers)
        rep.put(s"core.par.jobs_per_op.${k.key}", Stats.mean(ls.map(_.jobs.toDouble)), "count", k.label)
        rep.put(s"core.par.tasks_per_op.${k.key}", Stats.mean(ls.map(_.tasks.toDouble)), "count", k.label)
        rep.put(s"core.par.driver_s_per_op.${k.key}", Stats.mean(ls.map(_.driverS)), "s",
          s"${k.label}: op wall not covered by its Spark jobs")
      }
      val all = traced.map(layers)
      rep.put("core.par.job_s_per_op", Stats.mean(all.map(_.jobS)), "s", "both kinds")
      rep.put("core.par.task_run_s_per_op", Stats.mean(all.map(_.taskRunS)), "s", "both kinds")
      rep.put("core.par.sched_delay_s_per_op", Stats.mean(all.map(_.schedS)), "s", "both kinds")
      rep.put("jvm.gc_s_per_op", Stats.mean(traced.map(_.gcMs / 1e3)), "s", "both kinds")
      for (k <- Seq(m.a, m.b))
        rep.put(s"trace.overhead.op_${k.key}_s_p50", p50(k, traced = true) / p50(k, traced = false) - 1, "ratio",
          s"traced / untraced ${k.label}_s_p50 - 1")
      rep.put("trace.overhead.edges_per_s", rate(traced = false) / rate(traced = true) - 1, "ratio",
        "untraced / traced rate - 1")
      extra.foreach { case (k, v, u) => rep.show(k, v, u) }
      val file = Paths.get(env.out, s"trace-${env.workload}-seed${env.seed}.jsonl")
      Files.write(file, runner.spans.map { s =>
        Json.obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString, "op" -> s.op.toString,
          "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString))
      }.mkString("", "\n", "\n").getBytes("UTF-8"))
      rep.line(s"spans written to $file")
    }
    rep.result(runner.attempted, runner.failed)
  }
}
