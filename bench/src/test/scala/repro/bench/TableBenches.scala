package repro.bench

import repro.SparkSpec

/** One bench suite per evaluation table; `sbt "bench/test"` regenerates
  * every table. Output lines are prefixed with `[table]` so they can be
  * grepped out of the log and diffed against EXPERIMENTS.md.
  *
  * Each suite also sanity-checks the harness output (row counts, value
  * ranges) so a silently-broken bench fails rather than printing junk.
  */
class Table2Bench extends SparkSpec {
  test("Table 2: graph inputs") {
    val rows = Tables.table2(spark)
    assert(rows.size == GraphSuite.names.size)
    assert(rows.exists(_.startsWith("RO")))
  }
}

class Table3Bench extends SparkSpec {
  test("Table 3: static connectivity times, all samplings x families + other systems") {
    val rows = Tables.table3(spark)
    // header + 4 samplings x 9 families + 5 other systems
    assert(rows.size == 1 + 4 * 9 + 5)
  }
}

class Table3bBench extends SparkSpec {
  test("Table 3b: sampling speedup crossover on a dense graph") {
    val rows = Tables.table3b(spark)
    assert(rows.size == 4)
  }
}

class Table1Bench extends SparkSpec {
  test("Table 1: largest-graph showcase under the fastest configuration") {
    val rows = Tables.table1(spark)
    assert(rows.size == 3)
  }
}

class Table4Bench extends SparkSpec {
  test("Table 4: maximum streaming throughput per algorithm family") {
    val rows = Tables.table4(spark)
    assert(rows.size == 1 + 8)
  }
}

class Table5Bench extends SparkSpec {
  test("Table 5: STINGER-substitute vs ConnectIt across batch sizes") {
    val rows = Tables.table5(spark)
    assert(rows.size == 7)
  }
}

class GrainBench extends SparkSpec {
  test("Crew cut-off: streaming batches and empty gangs, inline vs on the crew") {
    val rows = Tables.grain(spark)
    // 7 op counts (1k to 64k) + the crossover line
    assert(rows.size == 7 + 1)
  }
}

class Table6Bench extends SparkSpec {
  test("Table 6: BFS and LDD sampling quality") {
    val rows = Tables.table6(spark)
    assert(rows.size == 2 * GraphSuite.names.size)
  }
}

class Table7Bench extends SparkSpec {
  test("Table 7: k-out(hybrid) sampling quality") {
    val rows = Tables.table7(spark)
    assert(rows.size == GraphSuite.names.size)
  }
}

class Table8Bench extends SparkSpec {
  test("Table 8: MapEdges / GatherEdges vs fastest ConnectIt") {
    val rows = Tables.table8(spark)
    assert(rows.size == GraphSuite.names.size)
  }
}
