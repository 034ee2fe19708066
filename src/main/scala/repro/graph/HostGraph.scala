package repro.graph

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.Par

/** A graph materialized for the shared-memory kernels: the symmetric CSR
  * adjacency (`offsets`/`targets`, both edge directions present, each
  * vertex's neighbours sorted and distinct). It is the only copy of the
  * edges. A gang pass over them claims slot-balanced vertex ranges with
  * [[forSlotBlocks]], and reads the u < v edges of a vertex as the suffix
  * of its slots from [[upperStart]]; a pass that wants a flat edge array
  * packs the u < v edges with [[upperEdges]] (driver) or
  * [[HostGraph.UpperPack]] (gang).
  * Gang bodies capture it directly; it is registered in [[SharedState]]
  * under `id` so that a graph that is not unregistered shows up as a leak.
  *
  * `m` counts undirected edges (after symmetrize + dedupe + self-loop
  * removal); `targets.length == 2 * m`.
  */
final class HostGraph private (
    val id: String,
    val n: Int,
    val offsets: Array[Int],  // length n + 1
    val targets: Array[Int],  // length 2m
    val loadTimeSec: Double,
) {

  def m: Long = targets.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** The first slot of v whose target is above v: the neighbours above v
    * are the suffix [upperStart(v), offsets(v + 1)) of its sorted slots.
    * Searching from the end touches only the slots the suffix holds.
    */
  def upperStart(v: Int): Int = {
    val first = offsets(v)
    var j = offsets(v + 1)
    while (j > first && targets(j - 1) > v) j -= 1
    j
  }

  /** `f(lo, hi)` on dynamically claimed vertex ranges that each hold
    * about the same number of CSR slots, so skewed degrees stay balanced;
    * ends in a barrier. The vertices whose slots start in [a, b) form the
    * range of slot block [a, b): every vertex with neighbours falls in
    * one range, and trailing vertices without neighbours in none.
    */
  def forSlotBlocks(t: Par.Task)(f: (Int, Int) => Unit): Unit = {
    def firstAt(x: Int): Int = { // first vertex whose slots start at or after x
      var lo = 0; var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (offsets(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    t.forDynamic(offsets(n)) { (a, b) => f(firstAt(a), firstAt(b)) }
  }

  /** Packs the edges (u, w), u in [lo, hi) and w > u, into `out` from
    * `at` on, in sorted order, and returns where they end; with `out` null
    * it only counts them. With `labels` non-null, edges whose endpoints
    * both carry the label `skip` are left out.
    */
  def packUpper(lo: Int, hi: Int, out: Array[Long], at: Int,
                labels: Array[Int] = null, skip: Int = -1): Int = {
    var k = at
    var u = lo
    while (u < hi) {
      val end = offsets(u + 1)
      val inside = labels != null && labels(u) == skip
      var j = upperStart(u)
      while (j < end) {
        val w = targets(j)
        if (!inside || labels(w) != skip) { if (out != null) out(k) = Edge.pack(u, w); k += 1 }
        j += 1
      }
      u += 1
    }
    k
  }

  /** The sorted u < v edge list, packed on the calling thread. */
  def upperEdges(): Array[Long] = {
    val out = new Array[Long](m.toInt)
    packUpper(0, n, out, 0)
    out
  }

  /** The edge list as one chunk, computed on each call. Only the
    * benchmark reads it (`perfbench`'s `graph.bytes`); it goes with the
    * next change to the benchmark.
    */
  def chunks: Array[Array[Long]] = Array(upperEdges())

  /** Iterate undirected edges (u, v), u < v, in sorted order on the
    * driver (tests / reference only).
    */
  def edgeIterator: Iterator[(Int, Int)] =
    Iterator.range(0, n).flatMap(u => Iterator.range(upperStart(u), offsets(u + 1)).map(j => (u, targets(j))))

  def unregister(): Unit = SharedState.remove(HostGraph.key(id))
}

object HostGraph {
  private val counter = new AtomicLong(0)
  private[graph] def key(id: String) = s"graph:$id"

  /** Build from a directed edge DataFrame with columns (u, v).
    *
    * One Spark job reads each partition's rows as they are (no shuffle)
    * and packs them into a primitive array: oriented u < v, self-loops and
    * rows with a null endpoint dropped. One gang run then builds the CSR
    * from those arrays and dedupes each vertex's neighbours ([[build]]).
    * Both steps together are timed as the paper's "load time" (Table 2).
    *
    * @param nOverride force vertex count (to include isolated vertices
    *                  beyond max id), mirroring web graphs where a large
    *                  fraction of ids never appear in edges.
    */
  def fromEdges(spark: SparkSession, edges: DataFrame,
                nOverride: Int = -1): HostGraph = {
    val t0 = System.nanoTime()
    val rows = edges.select(col("u").cast("int"), col("v").cast("int")).queryExecution.toRdd
    val parts = new Array[Samples](rows.getNumPartitions)
    Par.eachPartition(rows, "graph intake") { (p, it) =>
      val s = new Samples
      while (it.hasNext) {
        val r = it.next()
        if (!r.isNullAt(0) && !r.isNullAt(1)) s.add(r.getInt(0), r.getInt(1))
      }
      parts(p) = s
    }
    build(spark, parts, nOverride, t0)
  }

  /** Build directly from an undirected edge array (tests, quotient graphs). */
  def fromArray(spark: SparkSession, n: Int, edges: Array[(Int, Int)]): HostGraph = {
    val t0 = System.nanoTime()
    val s = new Samples
    edges.foreach { case (u, v) => s.add(u, v) }
    build(spark, Array(s), n, t0)
  }

  /** CSR slots needed by `samples` edge samples (each stored in both
    * directions), checked to fit the `Int`-indexed arrays: 2 · samples < 2^31.
    */
  private[graph] def slotCount(samples: Long): Int = {
    require(samples <= Int.MaxValue / 2,
      s"$samples edge samples after self-loop removal need ${2 * samples} CSR slots; " +
      s"an Int-indexed CSR holds at most ${Int.MaxValue / 2} samples")
    (2 * samples).toInt
  }

  /** Edge samples of one intake partition, packed with u < v. */
  private final class Samples {
    var edges = new Array[Long](256)
    var size = 0
    var maxId = 0

    def add(u: Int, v: Int): Unit = {
      if (u < 0 || v < 0)
        throw new IllegalArgumentException(s"negative vertex id ${math.min(u, v)} in edge ($u, $v)")
      if (u != v) {
        if (size == edges.length) {
          slotCount(size + 1L) // fail before the CSR limit, not at the JVM's array limit
          edges = java.util.Arrays.copyOf(edges, math.min(2L * size, Int.MaxValue / 2L).toInt)
        }
        edges(size) = if (u < v) Edge.pack(u, v) else Edge.pack(v, u)
        size += 1
        maxId = math.max(maxId, math.max(u, v))
      }
    }
  }

  /** Calls `f(array, from, until)` on the runs that samples [lo, hi) of
    * the concatenated `parts` occupy; `starts(p)` is where part p begins.
    */
  private def eachRun(parts: Array[Samples], starts: Array[Long], lo: Int, hi: Int)
                     (f: (Array[Long], Int, Int) => Unit): Unit = {
    var p = 0
    while (p < parts.length) {
      val a = math.max(lo.toLong, starts(p)); val b = math.min(hi.toLong, starts(p + 1))
      if (a < b) f(parts(p).edges, (a - starts(p)).toInt, (b - starts(p)).toInt)
      p += 1
    }
  }

  /** Task `index`'s share of the vertices [0, n) of a CSR whose vertex v
    * owns slots [start(v), start(v + 1)): a range whose slots plus
    * vertices are about 1/size of all, found by binary search on
    * `start(v) + v`, which grows strictly with v.
    */
  def vertexShare(start: Array[Int], n: Int, index: Int, size: Int): (Int, Int) = {
    val total = start(n).toLong + n
    def first(bound: Long): Int = {
      var lo = 0; var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (start(mid).toLong + mid < bound) lo = mid + 1 else hi = mid }
      lo
    }
    (first(total * index / size), first(total * (index + 1) / size))
  }

  /** [[HostGraph.packUpper]] over all vertices as gang rounds; one
    * instance serves one gang run. Each task counts the edges of its
    * [[vertexShare]], task 0 turns the counts into write offsets and
    * allocates, then each task writes its edges at its offset, so the
    * result is in sorted order. Every task returns the same array; ends
    * in a barrier.
    */
  final class UpperPack(g: HostGraph) {
    private var at: Array[Int] = _
    private var out: Array[Long] = _

    def apply(t: Par.Task, labels: Array[Int], skip: Int): Array[Long] = {
      t.single { at = new Array[Int](t.size + 1) }
      val (lo, hi) = vertexShare(g.offsets, g.n, t.index, t.size)
      at(t.index + 1) = g.packUpper(lo, hi, null, 0, labels, skip)
      t.sync()
      t.single {
        var k = 0
        while (k < t.size) { at(k + 1) += at(k); k += 1 }
        out = new Array[Long](at(t.size))
      }
      g.packUpper(lo, hi, out, at(t.index), labels, skip)
      t.sync()
      out
    }
  }

  /** The CSR build behind both intakes, as one gang run over the samples:
    *  1. each task counts both endpoints of its share of the samples in its
    *     own count array;
    *  2. task 0 lays out one slot region per vertex, split by task, and
    *     turns each count array into that task's cursors;
    *  3. the tasks scatter both directions of their samples into the slots;
    *  4. each task sorts and dedupes, in place, the regions of its share of
    *     the vertices ([[vertexShare]]);
    *  5. task 0 takes the prefix sums of the deduped degrees and allocates
    *     `targets`;
    *  6. each task copies its regions into `targets`.
    * Below [[Par.GrainSize]] samples plus vertices the gang is one task on
    * the calling thread. `n` is `max(nOverride, maxId + 1)` (maxId = 0
    * with no edges).
    *
    * The build uses only `sync` and `range` of [[Par.Task]], not
    * `forDynamic` or `single`: it runs before any kernel, and its lambdas
    * would otherwise be the first receivers the JIT's type profile records
    * at those methods' call sites, which slowed the connectivity runs
    * after it by 7–10% (perfbench static-uniform, 4-vCPU VM).
    */
  private def build(spark: SparkSession, parts: Array[Samples], nOverride: Int,
                    t0: Long): HostGraph = {
    val starts = parts.scanLeft(0L)(_ + _.size)
    val total = slotCount(starts.last) / 2
    val n = math.max(nOverride, parts.foldLeft(0)(_ max _.maxId) + 1)
    val id = s"g${counter.incrementAndGet()}"

    val slots = new Array[Int](2 * total)
    val start = new Array[Int](n + 1)    // region of v: [start(v), start(v + 1))
    val offsets = new Array[Int](n + 1)
    val counts = new Array[Array[Int]](Par.taskSlots(spark))
    var targets: Array[Int] = null
    Par.gang(spark, s"csr:$id", work = total.toLong + n) { t =>
      val cnt = new Array[Int](n)
      counts(t.index) = cnt
      val (lo, hi) = t.range(total)
      eachRun(parts, starts, lo, hi) { (a, from, until) =>
        var i = from
        while (i < until) { cnt(Edge.src(a(i))) += 1; cnt(Edge.dst(a(i))) += 1; i += 1 }
      }
      t.sync()
      if (t.index == 0) {
        var pos = 0; var v = 0
        while (v < n) {
          start(v) = pos
          var k = 0
          while (k < t.size) { val c = counts(k); val d = c(v); c(v) = pos; pos += d; k += 1 }
          v += 1
        }
        start(n) = pos
      }
      t.sync()
      eachRun(parts, starts, lo, hi) { (a, from, until) =>
        var i = from
        while (i < until) {
          val u = Edge.src(a(i)); val v = Edge.dst(a(i))
          slots(cnt(u)) = v; cnt(u) += 1
          slots(cnt(v)) = u; cnt(v) += 1
          i += 1
        }
      }
      t.sync()
      val (vlo, vhi) = vertexShare(start, n, t.index, t.size)
      var v = vlo
      while (v < vhi) {
        val s = start(v)
        java.util.Arrays.sort(slots, s, start(v + 1))
        var w = s; var i = s
        while (i < start(v + 1)) {
          val x = slots(i)
          if (w == s || slots(w - 1) != x) { slots(w) = x; w += 1 }
          i += 1
        }
        offsets(v + 1) = w - s
        v += 1
      }
      t.sync()
      if (t.index == 0) {
        var u = 0
        while (u < n) { offsets(u + 1) += offsets(u); u += 1 }
        targets = new Array[Int](offsets(n))
      }
      t.sync()
      v = vlo
      while (v < vhi) {
        System.arraycopy(slots, start(v), targets, offsets(v), offsets(v + 1) - offsets(v))
        v += 1
      }
    }

    val g = new HostGraph(id, n, offsets, targets, (System.nanoTime() - t0) / 1e9)
    SharedState.put(key(id), g)
    g
  }
}
