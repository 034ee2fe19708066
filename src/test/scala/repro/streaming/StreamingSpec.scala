package repro.streaming

import repro.SparkSpec
import repro.core.Par
import repro.core.Options._
import repro.graph.{Edge, GraphGen, Reference, SharedState}

/** Batch-incremental streaming (Section 3.5 / B.4): after every batch,
  * the maintained labeling must equal static connectivity of the prefix;
  * in-batch queries must be answered consistently with the final state.
  */
class StreamingSpec extends SparkSpec {

  /** Deterministic stream of edges over n vertices. */
  def stream(n: Int, m: Int, seed: Long): Array[Long] =
    Array.tabulate(m) { i =>
      val u = ((GraphGen.mix(seed + i) >>> 1) % n).toInt
      val v = ((GraphGen.mix(seed ^ (i * 31 + 7)) >>> 1) % n).toInt
      Edge.pack(u, math.max(0, v))
    }

  val streamingAlgs: Seq[(String, FinishOpt)] = Seq(
    "UF-Async" -> UnionFindOpt(UfAsync, FindAtomicHalve),
    "UF-Hooks" -> UnionFindOpt(UfHooks, FindNaive),
    "UF-Early" -> UnionFindOpt(UfEarly, FindNaive),
    "UF-Rem-CAS" -> UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne),
    "UF-Rem-CAS-splice" -> UnionFindOpt(UfRemCas, FindNaive, SpliceAtomic), // type 3
    "UF-Rem-Lock" -> UnionFindOpt(UfRemLock, FindNaive, SplitAtomicOne),
    "UF-JTB" -> UnionFindOpt(UfJtb, FindAtomicSplit),
    "SV" -> ShiloachVishkinOpt,
    "LT-CRFA" -> LiuTarjanOpt(Connect, rootUp = true, fullShortcut = true, alter = true),
    "LT-PRF" -> LiuTarjanOpt(ParentConnect, rootUp = true, fullShortcut = true, alter = false),
  )

  for ((name, alg) <- streamingAlgs) test(s"$name: batched inserts match static CC") {
    val n = 600
    val edges = stream(n, 2400, seed = name.hashCode)
    val inc = new Incremental(spark, n, alg)
    try {
      val batches = edges.grouped(500).toSeq
      var applied = Array.empty[Long]
      batches.foreach { b =>
        inc.processBatch(b)
        applied = applied ++ b
        val expect = Reference.cc(n, applied.iterator.map(e =>
          (Edge.src(e), Edge.dst(e))))
        assert(Reference.samePartition(inc.labels, expect),
          s"$name diverged after ${applied.length} inserts")
      }
    } finally inc.close()
  }

  for ((name, alg) <- streamingAlgs) test(s"$name: queries answered against batch state") {
    val n = 400
    val edges = stream(n, 1200, seed = name.hashCode * 7L)
    val inc = new Incremental(spark, n, alg)
    try {
      inc.processBatch(edges)
      val ref = Reference.cc(n, edges.iterator.map(e =>
        (Edge.src(e), Edge.dst(e))))
      // queries in a follow-up batch with no updates
      val queries = Array.tabulate(200)(i => Edge.pack(i % n, (i * 37 + 5) % n))
      val res = inc.processBatch(Array.empty, queries)
      queries.zip(res).foreach { case (q, got) =>
        val u = Edge.src(q); val v = Edge.dst(q)
        assert(got == (ref(u) == ref(v)), s"$name wrong ISCONNECTED($u,$v)")
      }
    } finally inc.close()
  }

  def cc(n: Int, edges: Array[Long]): Array[Int] =
    Reference.cc(n, edges.iterator.map(e => (Edge.src(e), Edge.dst(e))))

  /** Runs one batch on `inc` and checks it: its Spark job count, the
    * labeling against `Reference` on `applied ++ upd`, a true answer
    * after the batch and a false one before it, and both answers present.
    * Returns the edges applied so far.
    */
  def checkBatch(name: String, inc: Incremental, n: Int, applied: Array[Long],
                 upd: Array[Long], queries: Array[Long], jobs: Int): Array[Long] = {
    val pre = cc(n, applied)
    var res: Array[Boolean] = null
    assert(jobsOf { res = inc.processBatch(upd, queries) } == jobs,
      s"$name: a batch of ${upd.length + queries.length} ops")
    val post = cc(n, applied ++ upd)
    assert(Reference.samePartition(inc.labels, post), s"$name diverged")
    queries.zip(res).foreach { case (q, got) =>
      val u = Edge.src(q); val v = Edge.dst(q)
      if (got) assert(post(u) == post(v), s"$name: true ISCONNECTED($u,$v)")
      else assert(pre(u) != pre(v), s"$name: false ISCONNECTED($u,$v)")
    }
    assert(res.contains(true) && res.contains(false))
    applied ++ upd
  }

  // one algorithm of each type (1: UF-Rem-CAS, 2: SV and LT-CRFA, 3:
  // UF-Rem-CAS-splice): a batch of GrainSize - 1 ops runs inline, one of
  // GrainSize ops on the crew, and a batch of 80000 ops gives each of the
  // crew's tasks thousands of updates at once
  for ((name, alg) <- streamingAlgs
       if Set("UF-Rem-CAS", "UF-Rem-CAS-splice", "SV", "LT-CRFA")(name))
    test(s"$name: a batch of GrainSize ops is 1 Spark job and its answers hold") {
      // half INSERTs, half ISCONNECTED queries; with about n INSERTs per
      // batch, both batches answer some queries true and some false
      val ops = Par.GrainSize.toInt
      val n = ops / 2
      def batch(ops: Int, seed: Long) =
        (stream(n, ops / 2, seed), stream(n, ops - ops / 2, seed + 1))
      val inc = new Incremental(spark, n, alg)
      try {
        var applied = Array.empty[Long]
        for (((upd, queries), jobs) <- Seq(batch(ops - 1, seed = 5) -> 0, batch(ops, seed = 7) -> 1))
          applied = checkBatch(name, inc, n, applied, upd, queries, jobs)
      } finally inc.close()
      val bigN = 40000
      val large = new Incremental(spark, bigN, alg)
      try {
        val small = stream(bigN, 500, seed = 5)
        assert(jobsOf(large.processBatch(small)) == 0)
        checkBatch(name, large, bigN, small, stream(bigN, 40000, seed = 6),
          stream(bigN, 40000, seed = 7), jobs = 1)
      } finally large.close()
    }

  for ((name, alg) <- streamingAlgs if name == "SV" || name == "LT-CRFA")
    test(s"$name: isConnected agrees with labels after a batch") {
      val n = 400
      val inc = new Incremental(spark, n, alg)
      try {
        inc.processBatch(stream(n, 300, seed = 17))
        val l = inc.labels
        for (u <- 0 until n by 7; v <- 0 until n by 11)
          assert(inc.isConnected(u, v) == (l(u) == l(v)), s"$name: isConnected($u,$v)")
      } finally inc.close()
    }

  test("mixed updates and queries in one batch are consistent (type 1)") {
    val n = 300
    val edges = stream(n, 900, 99)
    val inc = new Incremental(spark, n, UnionFindOpt(UfRemCas, FindNaive, SplitAtomicOne))
    try {
      val queries = Array.tabulate(100)(i => Edge.pack(i % n, (i * 13 + 1) % n))
      val res = inc.processBatch(edges, queries)
      val ref = Reference.cc(n, edges.iterator.map(e =>
        (Edge.src(e), Edge.dst(e))))
      // A true answer must hold in the final state (monotone inserts:
      // connectivity only grows, and all inserts are in this batch).
      queries.zip(res).foreach { case (q, got) =>
        val u = Edge.src(q); val v = Edge.dst(q)
        if (got) assert(ref(u) == ref(v))
      }
    } finally inc.close()
  }

  test("streaming rejects non-streaming finish methods") {
    assertThrows[IllegalArgumentException] {
      new Incremental(spark, 10, LabelPropOpt)
    }
  }

  test("streaming with Stergiou is rejected before any state or job") {
    val base = SharedState.size
    assert(jobsOf {
      assertThrows[IllegalArgumentException] { new Incremental(spark, 10, StergiouOpt) }
    } == 0)
    assert(SharedState.size == base)
  }

  test("StingerLike maintains correct components") {
    val n = 500
    val edges = stream(n, 1500, 123)
    val st = new StingerLike(n)
    st.insertBatch(edges)
    val ref = Reference.cc(n, edges.iterator.map(e =>
      (Edge.src(e), Edge.dst(e))))
    assert(Reference.samePartition(st.labels, ref))
    assert(st.componentCount == Reference.numComponents(ref))
  }

  test("StingerLike agrees with Incremental across batches") {
    val n = 400
    val edges = stream(n, 2000, 321)
    val st = new StingerLike(n)
    val inc = new Incremental(spark, n, UnionFindOpt(UfRemCas))
    try {
      edges.grouped(250).foreach { b =>
        st.insertBatch(b)
        inc.processBatch(b)
        assert(Reference.samePartition(st.labels, inc.labels))
      }
    } finally inc.close()
  }
}
