package repro.bench

import repro.{SparkSpec, TestGraphs}
import repro.core.Par
import repro.graph.SharedState

/** Table 8's MapEdges / GatherEdges primitives: each is one gang job over
  * the CSR's slot blocks, summing the blocks into one counter.
  */
class EdgeMapSpec extends SparkSpec {

  private def oneJob(f: => Long): Long = {
    val base = SharedState.size
    var got = 0L
    assert(jobsOf { got = f } == 1)
    assert(SharedState.size == base)
    got
  }

  test("MapEdges counts every directed edge in one gang job") {
    val g = TestGraphs.uniform(spark)
    assert(g.n >= Par.taskSlots(spark)) // every task has vertices to map
    assert(oneJob(Tables.mapEdges(spark, g)) == 2 * g.m)
  }

  test("GatherEdges sums the squared degrees in one gang job") {
    val g = TestGraphs.uniform(spark)
    val want = (0 until g.n).map(v => g.degree(v).toLong * g.degree(v)).sum
    assert(oneJob(Tables.gatherEdges(spark, g)) == want)
  }
}
