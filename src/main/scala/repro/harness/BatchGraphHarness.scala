package repro.harness

import repro.dd.Engine
import repro.graph.{Baselines, BatchGraph, GraphGen}

/** Figures 11 and 14–16: batch graph tasks (index build, reach, sssp, wcc)
  * on three synthetic social-graph substitutes, with the paper's own
  * single-threaded baselines (array- and hash-map-backed) and DD at several
  * worker counts.
  */
object BatchGraphHarness {

  private final case class GraphSpec(name: String, n: Int, edges: Array[(Long, Long)], paperDD1: String)

  // The configuration EXPERIMENTS.md reports.
  private val WorkerCounts = Seq(1, 4, 8)
  private def graphs: Seq[GraphSpec] = Seq(
    GraphSpec("livejournal-lite", 30000, GraphGen.uniform(30000, 150000, seed = 61L),
      "index-f 4.4s reach 8.5s sssp 13.1s wcc 24.0s"),
    GraphSpec("orkut-lite", 20000, GraphGen.uniform(20000, 250000, seed = 62L),
      "index-f 14.0s reach 20.3s sssp 24.7s wcc 47.8s"),
    GraphSpec("twitter-lite", 30000, GraphGen.powerLaw(30000, 400000, seed = 63L),
      "index-f 162s reach 257s sssp 311s wcc 800s"),
  )

  def run(): String = {
    val out = new StringBuilder
    for (g <- graphs) {
      val weighted = GraphGen.weighted(g.edges, seed = 64L)
      val sym      = GraphGen.symmetrize(g.edges)
      val nodes    = (0 until g.n).map(_.toLong)
      val src      = g.edges.head._1

      // The paper's purpose-built single-thread baselines.
      val (_, bfsA)  = Fmt.timeMs(Baselines.bfsArray(g.n, g.edges, src))
      val (_, bfsH)  = Fmt.timeMs(Baselines.bfsHash(g.edges, src))
      val (_, dijA)  = Fmt.timeMs(Baselines.ssspArray(g.n, weighted, src))
      val (_, dijH)  = Fmt.timeMs(Baselines.ssspHash(weighted, src))
      val (_, ufA)   = Fmt.timeMs(Baselines.unionFindArray(g.n, sym))
      val (_, ufH)   = Fmt.timeMs(Baselines.unionFindHash(sym))

      val base = Seq(
        Seq("single thread (array)", "-", Fmt.ms(bfsA), Fmt.ms(dijA), "-", Fmt.ms(ufA)),
        Seq("single thread (hash)", "-", Fmt.ms(bfsH), Fmt.ms(dijH), "-", Fmt.ms(ufH)),
      )

      val dd = WorkerCounts.map { w =>
        val eng = new Engine(w)
        val (fwd, tIdxF)  = Fmt.timeMs(BatchGraph.indexForward(eng, g.edges))
        val (wIdx, _)     = Fmt.timeMs(BatchGraph.indexWeighted(eng, weighted))
        val (_, tReach)   = Fmt.timeMs(BatchGraph.reach(eng, fwd, src))
        val (_, tSssp)    = Fmt.timeMs(BatchGraph.sssp(eng, wIdx, src))
        val (symIdx, tIdxS) = Fmt.timeMs(BatchGraph.indexForward(eng, sym))
        val (_, tWcc)     = Fmt.timeMs(BatchGraph.wcc(eng, symIdx, nodes))
        eng.close()
        Seq(s"DD w=$w", Fmt.ms(tIdxF), Fmt.ms(tReach), Fmt.ms(tSssp), Fmt.ms(tIdxS), Fmt.ms(tWcc))
      }

      out ++= Fmt.table(
        s"Fig 11/14-16 (${g.name}: ${g.n} nodes, ${g.edges.length} edges) — paper DD w=1: ${g.paperDD1}",
        Seq("config", "index-f", "reach", "sssp", "index-sym", "wcc"),
        base ++ dd,
      )
    }
    out.result()
  }
}
