package repro

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.apps.Amsf
import repro.baselines.Baselines
import repro.bench.Tables
import repro.core.{ConnectIt, Par, RunCtx}
import repro.core.Options._
import repro.graph.Reference

/** Golden digests of outputs that no refactoring and no schedule may move:
  * the CSR of every test graph, the exact k-out and BFS sampling
  * statistics (coverage, inter-component fraction), Table 8's MapEdges /
  * GatherEdges sums, the UF-JTB priorities and the Borůvka MSF weights.
  * They must come out the same under local[1], local[2] and local[*].
  * LDD's statistics, the `workEffCC` labels (recursive LDD), the AMSF
  * weights (concurrent unions within a bucket) and SV spanning forests
  * depend on the schedule at P > 1, so their digests are checked only on a
  * gang of one (local[1]); at P > 1 each SV forest is only checked to be
  * valid.
  *
  * A failure names the key and prints the value computed, so a deliberate
  * change of output updates `golden` from the log.
  */
class DigestSpec extends SparkSpec {

  private def md5(arrays: Array[Int]*): String = {
    val md = MessageDigest.getInstance("MD5")
    arrays.foreach { a =>
      val b = ByteBuffer.allocate(4 * a.length)
      b.asIntBuffer().put(a)
      md.update(b.array())
    }
    md.digest().map(x => f"${x & 0xff}%02x").mkString
  }

  private val golden: Map[String, String] = Map(
    "csr/path" -> "d336505f24008ae62d284e8abc3c42fe",
    "csr/torus" -> "3d4a3b96926efe064f5330540b6eefb4",
    "csr/rmat" -> "ccb4455b51715e38e19d0d0923d06c8f",
    "csr/star" -> "8907c1aee4df88c1ebc76e23d69a53d7",
    "csr/multi" -> "feeaaf1ea86c29035222a69d81fdd92f",
    "csr/uniform" -> "6b17bc14a172ac7dfd33b0a26b983fc6",
    "csr/star-high" -> "590ba53771dacee8f927ac4f36a87088",
    "csr/path-desc" -> "d336505f24008ae62d284e8abc3c42fe",
    "csr/large" -> "4ca69237b445ad06eef990bc71eeba66",
    "quality/k-out(kout-hybrid,k=2)/path" -> "1.0 0.0",
    "quality/k-out(kout-hybrid,k=2)/torus" -> "1.0 0.0",
    "quality/k-out(kout-hybrid,k=2)/rmat" -> "0.974609375 2.9708853238265005E-4",
    "quality/k-out(kout-hybrid,k=2)/star" -> "1.0 0.0",
    "quality/k-out(kout-hybrid,k=2)/multi" -> "0.25 0.0",
    "quality/k-out(kout-hybrid,k=2)/uniform" -> "0.99875 0.0",
    "quality/k-out(kout-hybrid,k=2)/star-high" -> "1.0 0.0",
    "quality/k-out(kout-hybrid,k=2)/path-desc" -> "1.0 0.0",
    "quality/k-out(kout-hybrid,k=2)/large" -> "0.996856689453125 6.308249562492369E-4",
    "quality/BFS Sampling/path" -> "1.0 0.0",
    "quality/BFS Sampling/torus" -> "1.0 0.0",
    "quality/BFS Sampling/rmat" -> "0.9765625 0.0",
    "quality/BFS Sampling/star" -> "1.0 0.0",
    "quality/BFS Sampling/multi" -> "0.25 0.7516192621796677",
    "quality/BFS Sampling/uniform" -> "0.99875 0.0",
    "quality/BFS Sampling/star-high" -> "1.0 0.0",
    "quality/BFS Sampling/path-desc" -> "1.0 0.0",
    "quality/BFS Sampling/large" -> "0.997650146484375 0.0",
    "edgemaps/path" -> "598 1194",
    "edgemaps/torus" -> "1024 4096",
    "edgemaps/rmat" -> "6732 68122",
    "edgemaps/star" -> "998 249500",
    "edgemaps/multi" -> "7102 49084",
    "edgemaps/uniform" -> "5960 50258",
    "edgemaps/star-high" -> "998 249500",
    "edgemaps/path-desc" -> "598 1194",
    "edgemaps/large" -> "196568 1375900",
    "forest/SV/No Sampling/path" -> "1107d3b1972365ef1bd84dca8e8baa5d",
    "forest/SV/No Sampling/torus" -> "07dec721b98978ef1cc0d076eeab5383",
    "forest/SV/No Sampling/rmat" -> "473208144d674eedf738ebaf12d0b5cb",
    "forest/SV/No Sampling/star" -> "1baff0345332b9df9a0b5469b3a9977b",
    "forest/SV/No Sampling/multi" -> "ce0436470fcd39dd86623d8612958dca",
    "forest/SV/No Sampling/uniform" -> "7dc4151d8de17fa8b79ac1f662fbfb58",
    "forest/SV/No Sampling/star-high" -> "da50ee439303775e10817ea6aaef4630",
    "forest/SV/No Sampling/path-desc" -> "1107d3b1972365ef1bd84dca8e8baa5d",
    "forest/SV/No Sampling/large" -> "52b5c3f81c1d99b29ea29c6346c97f91",
    "forest/SV/k-out(kout-hybrid,k=2)/path" -> "2f8f25dd8de1ed276f7069e237c6d992",
    "forest/SV/k-out(kout-hybrid,k=2)/torus" -> "7fcf58f0156e37f13b8f984ea906d9b4",
    "forest/SV/k-out(kout-hybrid,k=2)/rmat" -> "904b4ba04c80596f8654bd1d59887a46",
    "forest/SV/k-out(kout-hybrid,k=2)/star" -> "02fe72abc85ea2cf41338e6e44ff03d5",
    "forest/SV/k-out(kout-hybrid,k=2)/multi" -> "23521cb040fc09f93e604e0c38393bec",
    "forest/SV/k-out(kout-hybrid,k=2)/uniform" -> "a071447fc7b2e16d0865aeb664bd0d49",
    "forest/SV/k-out(kout-hybrid,k=2)/star-high" -> "da50ee439303775e10817ea6aaef4630",
    "forest/SV/k-out(kout-hybrid,k=2)/path-desc" -> "2f8f25dd8de1ed276f7069e237c6d992",
    "forest/SV/k-out(kout-hybrid,k=2)/large" -> "5209828255c0db0e843cbcae0253ffe4",
    "quality/LDD Sampling(beta=0.2)/path" -> "0.21 0.07023411371237458",
    "quality/LDD Sampling(beta=0.2)/torus" -> "1.0 0.0",
    "quality/LDD Sampling(beta=0.2)/rmat" -> "0.9765625 0.0",
    "quality/LDD Sampling(beta=0.2)/star" -> "1.0 0.0",
    "quality/LDD Sampling(beta=0.2)/multi" -> "0.25 0.006195437904815545",
    "quality/LDD Sampling(beta=0.2)/uniform" -> "0.99875 0.0",
    "quality/LDD Sampling(beta=0.2)/star-high" -> "1.0 0.0",
    "quality/LDD Sampling(beta=0.2)/path-desc" -> "0.21 0.07023411371237458",
    "quality/LDD Sampling(beta=0.2)/large" -> "0.997650146484375 0.0",
    "workeff/path" -> "fb4aa89fb89bf94d0590a3174d1193ff",
    "workeff/torus" -> "0f343b0931126a20f133d67c2b018a3b",
    "workeff/rmat" -> "5efb6ab15b7baef8803d459ff882973c",
    "workeff/star" -> "cf40a1de3f93b4a025409b5efa5aa210",
    "workeff/multi" -> "0d0cce1259457115c914ef14e76237fd",
    "workeff/uniform" -> "1d89cbd4baecfdbacc6c17491a0669a6",
    "workeff/star-high" -> "cf40a1de3f93b4a025409b5efa5aa210",
    "workeff/path-desc" -> "fb4aa89fb89bf94d0590a3174d1193ff",
    "workeff/large" -> "fcec665f424a4ebb0e9879a570ceb73f",
    "amsf/AMSF-EA/torus" -> "93.40473101492802 255",
    "amsf/AMSF-F/torus" -> "94.08215332759049 255",
    "amsf/AMSF-NF/torus" -> "94.08215332759049 255",
    "amsf/AMSF-NF-S/torus" -> "94.08215332759049 255",
    "amsf/AMSF-EA/rmat" -> "339.46921477472694 999",
    "amsf/AMSF-F/rmat" -> "340.90122432827815 999",
    "amsf/AMSF-NF/rmat" -> "340.90122432827815 999",
    "amsf/AMSF-NF-S/rmat" -> "340.90122432827815 999",
    "amsf/AMSF-EA/multi" -> "315.5841551672377 1194",
    "amsf/AMSF-F/multi" -> "317.4272307009221 1194",
    "amsf/AMSF-NF/multi" -> "317.4272307009221 1194",
    "amsf/AMSF-NF-S/multi" -> "317.4272307009221 1194",
    "boruvka/torus" -> "89.44787606088288 255",
    "boruvka/rmat" -> "292.5277907303344 999",
    "boruvka/multi" -> "295.47011308110797 1194",
    "prio/1000" -> "71ef57a2b5c126f15866150e6c05aa29",
  )

  /** Every (key, value) must equal its golden value; the message lists
    * each one that does not.
    */
  private def check(got: Seq[(String, String)]): Unit = {
    val wrong = got.filterNot { case (k, v) => golden.get(k).contains(v) }
    assert(wrong.isEmpty, wrong.map { case (k, v) => s"\n[digest] \"$k\" -> \"$v\"," }.mkString)
  }

  private def graphs = TestGraphs.suite(spark).map(x => x._1 -> x._2) :+ ("large" -> TestGraphs.large(spark))

  test("CSR offsets and targets of every test graph") {
    check(for ((name, g) <- graphs) yield s"csr/$name" -> md5(g.offsets, g.targets))
  }

  private def gangOfOne: Boolean = Par.taskSlots(spark) == 1

  for (s <- Seq(KOutSampling(2, KOutHybrid), BfsSampling(), LddSampling(0.2)))
    test(s"${s.name} coverage and inter-component fraction of every test graph") {
      val got = for ((name, g) <- graphs) yield {
        val r = ConnectIt.connectivity(spark, g, s, UnionFindOpt(UfRemCas), sampleStats = true)
        s"quality/${s.name}/$name" -> s"${r.coverage} ${r.interCompFrac}"
      }
      if (s != LddSampling(0.2) || gangOfOne) check(got)
    }

  test("WorkeffCC labels of every test graph (digest on a gang of one)") {
    val got = for ((name, g) <- graphs) yield s"workeff/$name" -> md5(Baselines.workEffCC(spark, g))
    if (gangOfOne) check(got)
  }

  private def amsfGraphs = TestGraphs.suite(spark).filter(x => Set("torus", "rmat", "multi")(x._1))

  test("AMSF weights of every variant (digest on a gang of one)") {
    val got = for ((name, g, _) <- amsfGraphs; v <- Seq(Amsf.EA, Amsf.F, Amsf.NF, Amsf.NFS)) yield {
      val r = Amsf.run(spark, g, Amsf.expWeights(g, seed = 7), 0.25, v)
      s"amsf/${v.name}/$name" -> s"${r.weight} ${r.nEdges}"
    }
    if (gangOfOne) check(got)
  }

  test("Borůvka MSF weights") {
    check(for ((name, g, _) <- amsfGraphs) yield {
      val r = Amsf.boruvka(spark, g, Amsf.expWeights(g, seed = 11))
      s"boruvka/$name" -> s"${r.weight} ${r.nEdges}"
    })
  }

  test("MapEdges and GatherEdges sums of every test graph") {
    check(for ((name, g) <- graphs)
      yield s"edgemaps/$name" -> s"${Tables.mapEdges(spark, g)} ${Tables.gatherEdges(spark, g)}")
  }

  for (s <- Seq(NoSampling, KOutSampling(2, KOutHybrid)))
    test(s"SV spanning forest of every test graph under ${s.name} (digest on a gang of one)") {
      val got = for ((name, g) <- graphs) yield {
        val forest = ConnectIt.spanningForest(spark, g, s, ShiloachVishkinOpt).forest
        assert(Reference.validSpanningForest(g, forest), s"invalid SV forest on $name")
        s"forest/SV/${s.name}/$name" -> md5(forest.flatMap { case (u, v) => Array(u, v) })
      }
      if (gangOfOne) check(got)
    }

  test("UF-JTB priorities for n = 1000") {
    val ctx = RunCtx.create(1000, UnionFindOpt(UfJtb, FindAtomicSplit))
    try check(Seq("prio/1000" -> md5(ctx.prio))) finally ctx.unregister()
  }
}
