package repro.graph

/** An edge (u, v) packed into one `Long`: u in the high 32 bits, v in
  * the low 32. Every edge array of the framework (graph chunks, forest
  * slots, update batches) uses this layout.
  */
object Edge {
  @inline def pack(u: Int, v: Int): Long = (u.toLong << 32) | (v & 0xffffffffL)
  @inline def src(e: Long): Int = (e >>> 32).toInt
  @inline def dst(e: Long): Int = e.toInt
}
