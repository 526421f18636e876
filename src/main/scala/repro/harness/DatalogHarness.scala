package repro.harness

import repro.datalog.Datalog
import repro.dd.Engine
import repro.graph.{BatchGraph, GraphGen}
import scala.util.Random

/** Figures 8 and 17: interactive (magic-set seeded) Datalog queries against
  * shared arrangements vs. full bottom-up evaluation, and full-evaluation
  * scaling across workers. Graphs are scaled-down members of the paper's
  * families (tree-k, grid-k, G(n,p)); see EXPERIMENTS.md for the scaling.
  */
object DatalogHarness {

  // The configuration EXPERIMENTS.md reports.
  private val Tree    = GraphGen.tree(2, 9)
  private val Grid    = GraphGen.grid(20, 20)
  private val Gnp     = GraphGen.gnp(500, 0.004, seed = 81L)
  private val Workers = 8
  private val Seeds   = 20
  private val WorkerCounts = Seq(1, 4, 8)

  /** Figure 8: per-seed incremental latencies (median/max over `Seeds`
    * random arguments) vs. full evaluation without shared arrangements.
    */
  def fig8(): String = {
    val rng = new Random(82L)
    val paper = Map( // Fig. 8: (tc(x,?) med ms, tc(?,x) med ms, sg(x,?) med ms, tc full s, sg full s)
      "tree" -> (2.56, 15.63, 68.34, 0.08, 56.45),
      "grid" -> (346.28, 320.83, 1075.11, 6.18, 0.60),
      "gnp"  -> (18.29, 15.58, 20.08, 9.45, 19.85),
    )
    val rows = Seq("tree" -> Tree, "grid" -> Grid, "gnp" -> Gnp).map { case (name, edges) =>
      val eng = new Engine(Workers)
      val fwd = BatchGraph.indexForward(eng, edges)
      val rev = BatchGraph.index(eng, edges)(_.swap)
      val nodes = edges.flatMap(e => Seq(e._1, e._2)).distinct
      val pick  = Seq.fill(Seeds)(nodes(rng.nextInt(nodes.length)))

      val tcF = pick.map(x => Fmt.timeMs(BatchGraph.reach(eng, fwd, x).size)._2)
      val tcT = pick.map(x => Fmt.timeMs(BatchGraph.reach(eng, rev, x).size)._2)
      val sgS = pick.map(x => Fmt.timeMs(Datalog.sgFromSeed(eng, fwd, rev, x))._2)
      val (_, tcFullMs) = Fmt.timeMs(Datalog.tcFull(eng, fwd, edges))
      val (_, sgFullMs) = Fmt.timeMs(Datalog.sgFull(eng, fwd))
      eng.close()
      val (pTc, pTcR, pSg, pTcFull, pSgFull) = paper(name)
      Seq(name,
        s"${Fmt.ms(Fmt.median(tcF))}/${Fmt.ms(tcF.max)}",
        s"${Fmt.ms(Fmt.median(tcT))}/${Fmt.ms(tcT.max)}",
        s"${Fmt.ms(Fmt.median(sgS))}/${Fmt.ms(sgS.max)}",
        Fmt.ms(tcFullMs), Fmt.ms(sgFullMs),
        s"${pTc}ms/${pTcR}ms/${pSg}ms", s"${pTcFull}s/${pSgFull}s")
    }
    Fmt.table(
      s"Fig 8 (interactive Datalog, $Workers workers, $Seeds seeds; med/max)",
      Seq("graph", "tc(x,?)", "tc(?,x)", "sg(x,?)", "tc full", "sg full",
          "paper increm med", "paper full"),
      rows,
    )
  }

  /** Figure 17: full tc/sg evaluation, scaling across workers. */
  def fig17(): String = {
    val rows = WorkerCounts.map { w =>
      val eng  = new Engine(w)
      val fwdT = BatchGraph.indexForward(eng, Tree)
      val fwdG = BatchGraph.indexForward(eng, Grid)
      val fwdR = BatchGraph.indexForward(eng, Gnp)
      val (_, tcT) = Fmt.timeMs(Datalog.tcFull(eng, fwdT, Tree))
      val (_, tcG) = Fmt.timeMs(Datalog.tcFull(eng, fwdG, Grid))
      val (_, tcR) = Fmt.timeMs(Datalog.tcFull(eng, fwdR, Gnp))
      val (_, sgT) = Fmt.timeMs(Datalog.sgFull(eng, fwdT))
      val (_, sgG) = Fmt.timeMs(Datalog.sgFull(eng, fwdG))
      val (_, sgR) = Fmt.timeMs(Datalog.sgFull(eng, fwdR))
      eng.close()
      Seq(s"DD w=$w", Fmt.ms(tcT), Fmt.ms(tcG), Fmt.ms(tcR),
          Fmt.ms(sgT), Fmt.ms(sgG), Fmt.ms(sgR))
    } :+ Seq("paper DD w=32 (s)", "7.18s", "6.18s", "9.45s", "56.45s", "0.60s", "19.85s")
    Fmt.table(
      "Fig 17 (Datalog full evaluation scaling; tree/grid/gnp scaled down)",
      Seq("config", "tc(t)", "tc(g)", "tc(r)", "sg(t)", "sg(g)", "sg(r)"),
      rows,
    )
  }
}
