package repro.streaming

import org.apache.spark.sql.SparkSession
import repro.core.{Par, RunCtx}
import repro.core.Options._
import repro.core.minbased.MinBased
import repro.core.uf.UnionFind
import repro.graph.Edge

/** Batch-incremental / phase-concurrent streaming connectivity
  * (Section 3.5, Algorithm 3).
  *
  * Three algorithm types (paper classification):
  *  - Type 1: union-find variants without SpliceAtomic — INSERT and
  *    ISCONNECTED run fully concurrently inside one parallel job
  *    (wait-free asynchronous setting).
  *  - Type 2: Shiloach-Vishkin and root-based Liu-Tarjan — the batch's
  *    edges are run through the round-synchronous algorithm, then
  *    queries are answered.
  *  - Type 3: Rem's algorithms with SpliceAtomic — phase-concurrent: a
  *    barrier separates the update phase from the query phase.
  *
  * A batch is one gang run ([[Par.gang]]); below [[Par.GrainSize]] ops
  * it runs on the calling thread as a gang of one.
  */
final class Incremental(spark: SparkSession, n: Int, finish: FinishOpt) {
  requireStreaming(finish)

  private val ctx = RunCtx.create(n, finish)

  /** The root of `x`'s tree: the algorithm's own find for union-find,
    * else the parent walk (min-based labels have no sentinel here).
    */
  private val root: Int => Int = finish match {
    case u: UnionFindOpt => UnionFind.find(ctx, u, _)
    case _ => ctx.root
  }

  /** Process one batch of packed INSERT(u,v) edges and ISCONNECTED(u,v)
    * queries; returns one boolean per query.
    */
  def processBatch(updates: Array[Long], queries: Array[Long] = Array.empty): Array[Boolean] =
    processBatchAt(updates, queries, work = updates.length.toLong + queries.length)

  /** [[processBatch]] with the gang's work estimate given: 0 runs the
    * batch on the calling thread, `Long.MaxValue` on the crew. Only the
    * crew cut-off probe (`Tables.grain`) passes its own estimate.
    */
  private[repro] def processBatchAt(updates: Array[Long], queries: Array[Long], work: Long): Array[Boolean] = {
    val results = new Array[Boolean](queries.length)
    val apply: Par.Task => Unit = finish match {
      case u: UnionFindOpt =>
        // Type 1 answers this task's queries right after its updates,
        // fully concurrently; Type 3 waits for every update first.
        val phased = u.splices
        t => {
          val (lo, hi) = t.range(updates.length)
          var j = lo
          while (j < hi) {
            val e = updates(j)
            UnionFind.union(ctx, u, Edge.src(e), Edge.dst(e))
            j += 1
          }
          if (phased) t.sync()
        }
      case other =>
        // Type 2: the round-synchronous algorithm over the batch's edges
        // the kernel gets a copy: Alter variants rewrite their store
        val kernel = new MinBased.LiuTarjan(ctx, other)
        val store = updates.clone()
        kernel(_, store)
    }
    Par.gang(spark, ctx.id, work) { t =>
      apply(t)
      val (lo, hi) = t.range(queries.length)
      var j = lo
      while (j < hi) {
        val q = queries(j)
        results(j) = root(Edge.src(q)) == root(Edge.dst(q))
        j += 1
      }
    }
    results
  }

  /** Current connectivity labeling (resolved). */
  def labels: Array[Int] = Array.tabulate(n)(ctx.root)

  def isConnected(u: Int, v: Int): Boolean = root(u) == root(v)

  def close(): Unit = ctx.unregister()
}
