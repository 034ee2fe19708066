package repro.streaming

import scala.collection.mutable.ArrayBuffer
import repro.graph.Edge

/** STINGER-substitute streaming connected-components baseline (Table 5).
  *
  * STINGER itself is a C system built around a dynamic graph structure
  * whose streaming CC (McColl et al. [73]) also anticipates deletions.
  * This class reproduces that *class* of implementation (see DESIGN.md):
  *  - heavyweight per-vertex structures allocated at initialization
  *    (STINGER's long initialization period, Section 4.4.2);
  *  - labels maintained by relabeling the smaller component's member
  *    list on every merging insertion (recompute-oriented, sequential);
  *  - a per-batch bookkeeping sweep over the vertex array (the extra
  *    work a deletions-capable structure performs per batch).
  *
  * It is intentionally *not* a tuned union-find — it stands in for the
  * measured behaviour of the published system: orders of magnitude
  * slower than ConnectIt and overhead-bound at small batch sizes.
  */
final class StingerLike(n: Int) {
  // deliberate boxed, pointer-heavy structures (dynamic-graph style)
  private val adjacency = new java.util.HashMap[Integer, ArrayBuffer[Integer]]()
  private val label = new Array[Int](n)
  private val members = new java.util.HashMap[Integer, ArrayBuffer[Integer]]()
  locally {
    var v = 0
    while (v < n) {
      adjacency.put(v, new ArrayBuffer[Integer](4))
      label(v) = v
      val m = new ArrayBuffer[Integer](2); m += v
      members.put(v, m)
      v += 1
    }
  }

  /** Insert a batch of packed (u,v) edges, updating the labeling. */
  def insertBatch(edges: Array[Long]): Unit = {
    var i = 0
    while (i < edges.length) {
      val e = edges(i)
      val u = Edge.src(e)
      val v = Edge.dst(e)
      if (u != v) {
        adjacency.get(u) += v
        adjacency.get(v) += u
        val lu = label(u); val lv = label(v)
        if (lu != lv) {
          val mu = members.get(lu); val mv = members.get(lv)
          // relabel the smaller component's members (weighted union by
          // scan — the recompute step of a relabeling streaming CC)
          val (win, lose, loseList) =
            if (mu.length >= mv.length) (lu, lv, mv) else (lv, lu, mu)
          val winList = members.get(win)
          var j = 0
          while (j < loseList.length) {
            label(loseList(j)) = win
            winList += loseList(j)
            j += 1
          }
          members.remove(lose)
        }
      }
      i += 1
    }
    // per-batch bookkeeping sweep (deletion-anticipating metadata scan)
    var live = 0
    var v = 0
    while (v < n) {
      if (label(v) == v) live += 1
      v += 1
    }
    componentCount = live
  }

  var componentCount: Int = n

  def labels: Array[Int] = label.clone()

  def isConnected(u: Int, v: Int): Boolean = label(u) == label(v)
}
