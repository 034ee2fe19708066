package repro.graph

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.Par

/** A graph materialized for the shared-memory kernels.
  *
  * Holds the symmetric CSR adjacency (`offsets`/`targets`, both edge
  * directions present, each vertex's neighbours sorted) and the
  * undirected edge list packed into fixed-size chunks (`chunks`, each
  * element `Edge.pack(u, v)` with u < v, in ascending order). Registered
  * in [[SharedState]] under `id` so Spark tasks can reach it without
  * closure capture.
  *
  * `m` counts undirected edges (after symmetrize + dedupe + self-loop
  * removal); `targets.length == 2 * m`.
  */
final class HostGraph private (
    val id: String,
    val n: Int,
    val offsets: Array[Int],  // length n + 1
    val targets: Array[Int],  // length 2m
    val chunks: Array[Array[Long]],
    val loadTimeSec: Double,
) extends Serializable {

  def m: Long = targets.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Undirected edge count per chunk (for throughput math). */
  def chunkSizes: Array[Int] = chunks.map(_.length)

  /** Iterate undirected edges on the driver (tests / reference only). */
  def edgeIterator: Iterator[(Int, Int)] =
    chunks.iterator.flatMap(_.iterator.map(e => (Edge.src(e), Edge.dst(e))))

  def unregister(): Unit = SharedState.remove(HostGraph.key(id))
}

object HostGraph {
  private val counter = new AtomicLong(0)
  private[graph] def key(id: String) = s"graph:$id"

  def lookup(id: String): HostGraph = SharedState.get[HostGraph](key(id))

  /** Build from a directed edge DataFrame with columns (u, v).
    *
    * One Spark job reads each partition's rows as they are (no shuffle)
    * and packs them into a primitive array: oriented u < v, self-loops and
    * rows with a null endpoint dropped. One gang job then builds the CSR
    * from those arrays and dedupes each vertex's neighbours ([[build]]).
    * Both steps together are timed as the paper's "load time" (Table 2).
    *
    * @param nOverride force vertex count (to include isolated vertices
    *                  beyond max id), mirroring web graphs where a large
    *                  fraction of ids never appear in edges.
    */
  def fromEdges(spark: SparkSession, edges: DataFrame,
                nOverride: Int = -1, chunkTarget: Int = -1): HostGraph = {
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
    build(spark, parts, nOverride, chunkTarget, t0)
  }

  /** Build directly from an undirected edge array (tests, quotient graphs). */
  def fromArray(spark: SparkSession, n: Int, edges: Array[(Int, Int)]): HostGraph = {
    val t0 = System.nanoTime()
    val s = new Samples
    edges.foreach { case (u, v) => s.add(u, v) }
    build(spark, Array(s), n, -1, t0)
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

  /** Task `index`'s share of the vertices [0, n): a range whose slots plus
    * vertices are about 1/size of all, found by binary search on
    * `start(v) + v`, which grows strictly with v.
    */
  private def vertexShare(start: Array[Int], n: Int, index: Int, size: Int): (Int, Int) = {
    val total = start(n).toLong + n
    def first(bound: Long): Int = {
      var lo = 0; var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (start(mid).toLong + mid < bound) lo = mid + 1 else hi = mid }
      lo
    }
    (first(total * index / size), first(total * (index + 1) / size))
  }

  /** The CSR build behind both intakes, as one gang job over the samples:
    *  1. each task counts both endpoints of its share of the samples in its
    *     own count array;
    *  2. task 0 lays out one slot region per vertex, split by task, and
    *     turns each count array into that task's cursors;
    *  3. the tasks scatter both directions of their samples into the slots;
    *  4. each task sorts and dedupes, in place, the regions of its share of
    *     the vertices ([[vertexShare]]), counting the neighbours above each
    *     vertex;
    *  5. task 0 takes the prefix sums of those counts and allocates the
    *     output;
    *  6. each task copies its regions into `targets` and emits its
    *     vertices' upper neighbours as the sorted u < v list, cut into
    *     `chunks`.
    * Below [[Par.GrainSize]] samples plus vertices the gang is one task on
    * the calling thread. `n` is `max(nOverride, maxId + 1)` (maxId = 0
    * with no edges) and the edge list is cut into `chunkTarget` (default
    * [[Par.defaultChunks]]) equal chunks, capped at one per edge.
    *
    * The build uses only `sync` and `range` of [[Par.Task]], not
    * `forDynamic` or `single`: it runs before any kernel, and its lambdas
    * would otherwise be the first receivers the JIT's type profile records
    * at those methods' call sites, which slowed the connectivity runs
    * after it by 7–10% (perfbench static-uniform, 4-vCPU VM).
    */
  private def build(spark: SparkSession, parts: Array[Samples], nOverride: Int,
                    chunkTarget: Int, t0: Long): HostGraph = {
    val starts = parts.scanLeft(0L)(_ + _.size)
    val total = slotCount(starts.last) / 2
    val n = math.max(nOverride, parts.foldLeft(0)(_ max _.maxId) + 1)
    val nChunks0 = if (chunkTarget > 0) chunkTarget else Par.defaultChunks(spark)
    val id = s"g${counter.incrementAndGet()}"

    val slots = new Array[Int](2 * total)
    val start = new Array[Int](n + 1)    // region of v: [start(v), start(v + 1))
    val offsets = new Array[Int](n + 1)
    val upper = new Array[Int](n + 1)    // neighbours above v, then their prefix sums
    val counts = new Array[Array[Int]](Par.taskSlots(spark))
    var targets: Array[Int] = null
    var chunks: Array[Array[Long]] = null
    var per = 0
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
        var w = s; var up = 0; var i = s
        while (i < start(v + 1)) {
          val x = slots(i)
          if (w == s || slots(w - 1) != x) { slots(w) = x; w += 1; if (x > v) up += 1 }
          i += 1
        }
        offsets(v + 1) = w - s; upper(v + 1) = up
        v += 1
      }
      t.sync()
      if (t.index == 0) {
        var u = 0
        while (u < n) { offsets(u + 1) += offsets(u); upper(u + 1) += upper(u); u += 1 }
        targets = new Array[Int](offsets(n))
        val m = upper(n)
        val nChunks = math.max(1, math.min(nChunks0, math.max(1, m)))
        per = (m + nChunks - 1) / nChunks
        chunks = Array.tabulate(nChunks) { c =>
          val len = math.min(m, c * per + per) - c * per
          if (len <= 0) Array.emptyLongArray else new Array[Long](len)
        }
      }
      t.sync()
      v = vlo
      while (v < vhi) {
        val d = offsets(v + 1) - offsets(v)
        System.arraycopy(slots, start(v), targets, offsets(v), d)
        var p = upper(v); var i = start(v) + d - (upper(v + 1) - p)
        while (i < start(v) + d) {
          val c = p / per
          chunks(c)(p - c * per) = Edge.pack(v, slots(i))
          p += 1; i += 1
        }
        v += 1
      }
    }

    val g = new HostGraph(id, n, offsets, targets, chunks, (System.nanoTime() - t0) / 1e9)
    SharedState.put(key(id), g)
    g
  }
}
