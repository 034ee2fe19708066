package repro.core

/** Algorithm-option algebra of the ConnectIt framework (Section 3, Alg 7).
  *
  * A connectivity run is `Connectivity(G, SamplingOpt, FinishOpt)`.
  * Everything here is a small immutable value; the combinations the
  * framework cannot run are rejected here, before a run allocates state.
  */
object Options {

  // ---------------------------------------------------------------- find
  /** Find options shared by the union-find family (Algorithm 8). */
  sealed trait FindOpt { def name: String }
  case object FindNaive       extends FindOpt { val name = "FindNaive" }
  case object FindAtomicSplit extends FindOpt { val name = "FindAtomicSplit" }
  case object FindAtomicHalve extends FindOpt { val name = "FindAtomicHalve" }
  case object FindCompress    extends FindOpt { val name = "FindCompress" }

  // -------------------------------------------------------------- splice
  /** Splice options used by Rem's algorithms at non-root steps (Alg 9). */
  sealed trait SpliceOpt { def name: String }
  case object SplitAtomicOne extends SpliceOpt { val name = "SplitAtomicOne" }
  case object HalveAtomicOne extends SpliceOpt { val name = "HalveAtomicOne" }
  case object SpliceAtomic   extends SpliceOpt { val name = "SpliceAtomic" }

  // ---------------------------------------------------------- union-find
  sealed trait UfAlg { def name: String }
  case object UfAsync   extends UfAlg { val name = "UF-Async" }
  case object UfHooks   extends UfAlg { val name = "UF-Hooks" }
  case object UfEarly   extends UfAlg { val name = "UF-Early" }
  case object UfRemCas  extends UfAlg { val name = "UF-Rem-CAS" }
  case object UfRemLock extends UfAlg { val name = "UF-Rem-Lock" }
  case object UfJtb     extends UfAlg { val name = "UF-JTB" }

  // ------------------------------------------------------- finish method
  sealed trait FinishOpt { def name: String }

  /** One union-find variant. `splice` is ignored by non-Rem algorithms;
    * `find` is the compression option (for Rem's: compression applied to
    * the endpoints after a successful union, per Alg 13/14).
    */
  final case class UnionFindOpt(alg: UfAlg,
                                find: FindOpt = FindNaive,
                                splice: SpliceOpt = SplitAtomicOne) extends FinishOpt {
    require(!(splice == SpliceAtomic && find == FindCompress),
      "FindCompress + SpliceAtomic is an incorrect combination (Appendix B.2.3)")
    private def rem = alg == UfRemCas || alg == UfRemLock
    /** Rem's algorithm with SpliceAtomic (type 3 in streaming, 3.5). */
    def splices: Boolean = rem && splice == SpliceAtomic
    def name: String = {
      val s = if (rem) s"/${splice.name}" else ""
      s"${alg.name}(${find.name}$s)"
    }
  }

  /** Liu-Tarjan connect-phase rule (Appendix D.4). */
  sealed trait LtConnect
  case object Connect         extends LtConnect // endpoints as candidates
  case object ParentConnect   extends LtConnect // parents as candidates
  case object ExtendedConnect extends LtConnect // parents for endpoints AND parents

  /** One Liu-Tarjan framework variant; Stergiou's algorithm is the
    * two-array instantiation (B.2.5).
    */
  final case class LiuTarjanOpt(connect: LtConnect,
                                rootUp: Boolean,
                                fullShortcut: Boolean,
                                alter: Boolean) extends FinishOpt {
    def name: String = {
      val c = connect match {
        case Connect => "C"; case ParentConnect => "P"; case ExtendedConnect => "E"
      }
      val r = if (rootUp) "R" else "U"
      val s = if (fullShortcut) "F" else "S"
      val a = if (alter) "A" else ""
      s"LT-$c$r$s$a"
    }
  }

  case object StergiouOpt extends FinishOpt { val name = "Stergiou" }
  case object ShiloachVishkinOpt extends FinishOpt { val name = "SV" }
  case object LabelPropOpt extends FinishOpt { val name = "Label-Prop" }

  /** The 16 Liu-Tarjan variants evaluated in the paper (Appendix D.4). */
  val liuTarjanVariants: Seq[LiuTarjanOpt] = for {
    connect <- Seq(Connect, ParentConnect, ExtendedConnect)
    rootUp  <- Seq(false, true)
    full    <- Seq(false, true)
    alter   <- Seq(false, true)
    // Connect requires Alter for correctness; ExtendedConnect+RootUp is
    // not in the paper's list.
    if !(connect == Connect && !alter)
    if !(connect == ExtendedConnect && rootUp)
  } yield LiuTarjanOpt(connect, rootUp, full, alter)

  /** True if the finish method can produce a spanning forest (3.4):
    * all union-find variants, SV, and the RootUp Liu-Tarjan variants.
    */
  def isRootBased(f: FinishOpt): Boolean = f match {
    case _: UnionFindOpt       => true
    case ShiloachVishkinOpt    => true
    case lt: LiuTarjanOpt      => lt.rootUp && !lt.alter
    case _                     => false
  }

  /** Rejects a spanning-forest run of `f` (3.4): `f` must be root-based,
    * and Rem's algorithms must not use SpliceAtomic, which moves subtrees
    * between trees without a root hook, so the edge witnessing a later
    * hook may already be spanned and recording it can put a cycle in the
    * forest (a deviation from Theorem 7's sketch; see DESIGN.md). Use
    * SplitAtomicOne / HalveAtomicOne.
    */
  def requireForest(f: FinishOpt): Unit = {
    require(isRootBased(f), s"${f.name} is not root-based; spanning forest unsupported (3.4)")
    require(f match {
      case u: UnionFindOpt => !u.splices
      case _ => true
    }, s"${f.name}: spanning forest requires a non-splice compression option")
  }

  /** Rejects a streaming run of `f` (3.5): union-find variants, SV and
    * the RootUp Liu-Tarjan variants support batch-incremental updates.
    */
  def requireStreaming(f: FinishOpt): Unit = require(f match {
    case _: UnionFindOpt => true
    case ShiloachVishkinOpt => true
    case lt: LiuTarjanOpt => lt.rootUp
    case _ => false
  }, s"${f.name} does not support streaming (3.5)")

  // ------------------------------------------------------------ sampling
  sealed trait SamplingOpt { def name: String }
  case object NoSampling extends SamplingOpt { val name = "No Sampling" }

  sealed trait KOutVariant { def name: String }
  case object KOutAfforest extends KOutVariant { val name = "kout-afforest" }
  case object KOutPure     extends KOutVariant { val name = "kout-pure" }
  case object KOutHybrid   extends KOutVariant { val name = "kout-hybrid" }
  case object KOutMaxDeg   extends KOutVariant { val name = "kout-maxdeg" }

  /** k-out sampling (default: k = 2, hybrid — the paper's choice). */
  final case class KOutSampling(k: Int = 2,
                                variant: KOutVariant = KOutHybrid,
                                seed: Long = 31) extends SamplingOpt {
    val name = s"k-out(${variant.name},k=$k)"
  }

  /** BFS sampling with up to c tries, stops at >10% coverage (3.2). */
  final case class BfsSampling(c: Int = 3, seed: Long = 37) extends SamplingOpt {
    val name = "BFS Sampling"
  }

  /** Single-round LDD sampling with parameter beta (3.2). */
  final case class LddSampling(beta: Double = 0.2,
                               permute: Boolean = false,
                               seed: Long = 41) extends SamplingOpt {
    val name = s"LDD Sampling(beta=$beta)"
  }
}
