package repro.graph

/** Trusted sequential oracles for connectivity, spanning forest and MSF.
  *
  * All tests validate the parallel kernels against these. Labelings are
  * compared as partitions (a bijection must exist between label sets),
  * because different algorithms canonicalize to different roots.
  */
object Reference {

  /** Sequential union-find with path halving + union by index (min wins). */
  final class SeqUF(n: Int) {
    val parent: Array[Int] = Array.tabulate(n)(identity)

    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) {
        parent(x) = parent(parent(x))
        x = parent(x)
      }
      x
    }

    /** Returns true iff the edge merged two components. */
    def union(u: Int, v: Int): Boolean = {
      val ru = find(u); val rv = find(v)
      if (ru == rv) false
      else {
        if (ru < rv) parent(rv) = ru else parent(ru) = rv
        true
      }
    }
  }

  /** Canonical connectivity labeling: label = min vertex id in component. */
  def cc(n: Int, edges: Iterator[(Int, Int)]): Array[Int] = {
    val uf = new SeqUF(n)
    edges.foreach { case (u, v) => uf.union(u, v) }
    Array.tabulate(n)(uf.find)
  }

  def cc(g: HostGraph): Array[Int] = cc(g.n, g.edgeIterator)

  def largestComponent(labels: Array[Int]): Int = {
    val counts = new java.util.HashMap[Int, Int]()
    labels.foreach(l => counts.merge(l, 1, _ + _))
    var max = 0
    counts.forEach((_, c) => if (c > max) max = c)
    max
  }

  /** Renumber labels by first occurrence: partition-equal labelings get
    * identical canonical arrays.
    */
  def canonicalize(a: Array[Int]): Array[Int] = {
    val map = new java.util.HashMap[Integer, Integer]()
    val out = new Array[Int](a.length)
    var next = 0
    var i = 0
    while (i < a.length) {
      val k = map.get(Integer.valueOf(a(i)))
      if (k == null) {
        map.put(a(i), next); out(i) = next; next += 1
      } else out(i) = k.intValue()
      i += 1
    }
    out
  }

  /** True iff two labelings induce the same partition of [0, n). */
  def samePartition(a: Array[Int], b: Array[Int]): Boolean = {
    require(a.length == b.length)
    java.util.Arrays.equals(canonicalize(a), canonicalize(b))
  }

  /** Validate `forest` as a spanning forest of `g`:
    * right edge count, edges ⊆ E(G), and CC(forest) == CC(G).
    */
  def validSpanningForest(g: HostGraph, forest: Array[(Int, Int)]): Boolean = {
    val full = cc(g)
    if (forest.length != g.n - numComponents(full)) return false
    // (u, v) is an edge iff v is among u's sorted neighbours
    if (!forest.forall { case (u, v) =>
          u >= 0 && u < g.n && java.util.Arrays.binarySearch(g.targets, g.offsets(u), g.offsets(u + 1), v) >= 0
        }) return false
    val fcc = cc(g.n, forest.iterator)
    samePartition(full, fcc)
  }

  /** Number of components = number of distinct labels. */
  def numComponents(labels: Array[Int]): Int = {
    val s = new java.util.HashSet[Int]()
    labels.foreach(s.add)
    s.size
  }

  /** Exact MSF weight via Kruskal (weights parallel to edge array). */
  def msfWeight(n: Int, edges: Array[(Int, Int)], w: Array[Double]): Double = {
    val order = edges.indices.sortBy(w)
    val uf = new SeqUF(n)
    var total = 0.0
    order.foreach { i =>
      val (u, v) = edges(i)
      if (u != v && uf.union(u, v)) total += w(i)
    }
    total
  }
}
