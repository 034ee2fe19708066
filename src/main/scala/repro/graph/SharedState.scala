package repro.graph

import java.util.concurrent.ConcurrentHashMap

/** Process-global registry standing in for the paper's shared memory.
  *
  * ConnectIt is a multicore shared-memory framework: its threads CAS on
  * shared parent arrays. We run on Spark in `local[*]` mode, where every
  * task executes in the driver JVM, so Spark task threads can play the
  * role of the paper's threads — provided the shared objects are
  * reachable without being captured (and thus copied) by task closures.
  * This registry is that reach-around for the per-partition intake job
  * (`Par.eachPartition`): it registers its body under one key, and each
  * task, whose closure carries only the key, fetches the body, which
  * holds the run's arrays directly. (A gang run reaches the resident
  * crew's tasks through `Par` itself.) Graphs and run contexts register
  * only so that tests can check that a run leaves nothing behind; no task
  * looks them up.
  *
  * This is a deliberate, documented substitution (see DESIGN.md): it is
  * only valid in local mode, which is exactly the paper's setting (a
  * single large multicore machine).
  */
object SharedState {
  private val m = new ConcurrentHashMap[String, AnyRef]()

  def put(key: String, v: AnyRef): Unit = m.put(key, v)

  def get[T <: AnyRef](key: String): T = {
    val v = m.get(key)
    require(v != null, s"SharedState: no entry for '$key' (not running in local mode?)")
    v.asInstanceOf[T]
  }

  def remove(key: String): Unit = m.remove(key)

  /** Number of live entries (used by tests to check cleanup). */
  def size: Int = m.size
}
