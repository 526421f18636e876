package repro.harness

import repro.dd.Engine
import repro.graph.BatchGraph
import repro.graspan._

/** Figures 9 and 10: the Graspan program analyses on synthetic program
  * graphs shaped like linux/psql/httpd (scaled; substitution in DESIGN.md).
  */
object GraspanHarness {

  /** (name, statements, defUseEdges, nullSources) for the dataflow query. */
  private final case class DataflowInput(name: String, n: Int, m: Int, k: Int, paperDD1s: Double)

  private val dataflowInputs: Seq[DataflowInput] = Seq(
    DataflowInput("linux-lite", 20000, 40000, 200, 65.8),
    DataflowInput("psql-lite", 8000, 16000, 100, 32.0),
    DataflowInput("httpd-lite", 3000, 6000, 50, 8.9),
  )

  // The configuration EXPERIMENTS.md reports.
  private val Fig9WorkerCounts  = Seq(1, 2, 4, 8)
  private val Fig10WorkerCounts = Seq(1, 4)
  private val RemovalWorkers    = 8
  private val Removals          = 100

  /** Figures 9a/9b: dataflow analysis runtime, scaling across workers. */
  def fig9Runtime(): String = {
    val rows = Fig9WorkerCounts.map { w =>
      val cells = dataflowInputs.map { in =>
        val (edges, nulls) = ProgramGen.dataflowGraph(in.n, in.m, in.k, seed = 91L)
        val eng = new Engine(w)
        val arr = BatchGraph.indexForward(eng, edges)
        val ana = new DataflowAnalysis(eng, arr)
        val (facts, t) = Fmt.timeMs(ana.run(nulls))
        ana.retire(); eng.close()
        f"${Fmt.ms(t)} ($facts%d facts)"
      }
      Seq(s"DD w=$w") ++ cells
    } :+ (Seq("paper DD w=1") ++ dataflowInputs.map(i => s"${i.paperDD1s}s"))
    Fmt.table(
      "Fig 9a/9b (Graspan dataflow analysis; synthetic program graphs)",
      Seq("config") ++ dataflowInputs.map(_.name),
      rows,
    )
  }

  /** Figure 9c: latency to remove each of the first `Removals` null
    * assignments from the completed analysis (median / max).
    */
  def fig9Removal(): String = {
    val paper = Map("linux-lite" -> (1.05, 7.34), "psql-lite" -> (143.0, 1210.0), "httpd-lite" -> (18.1, 201.0))
    val rows = dataflowInputs.map { in =>
      val (edges, nulls) = ProgramGen.dataflowGraph(in.n, in.m, in.k, seed = 91L)
      val eng = new Engine(RemovalWorkers)
      val arr = BatchGraph.indexForward(eng, edges)
      val ana = new DataflowAnalysis(eng, arr)
      ana.run(nulls)
      val times = nulls.take(Removals).toSeq.map(s => Fmt.timeMs(ana.remove(s))._2)
      ana.retire(); eng.close()
      val (pMed, pMax) = paper(in.name)
      Seq(in.name, Fmt.ms(Fmt.median(times)), Fmt.ms(times.max), s"${pMed}ms", s"${pMax}ms")
    }
    Fmt.table(
      s"Fig 9c (removing the first $Removals null assignments; $RemovalWorkers workers)",
      Seq("graph", "med", "max", "paper med (DD w=1)", "paper max"),
      rows,
    )
  }

  /** Figures 10a/10b: points-to analysis, optimized plan vs. the plan that
    * materializes the full value-alias relation, scaling across workers.
    */
  def fig10(): String = {
    val inputs = Seq( // (name, vars, objs, paper DD(Opt) w=1 s, paper DD w=1 s)
      ("linux-lite", 500, 100, 121.1, 241.0),
      ("psql-lite", 300, 60, 52.3, 151.2),
      ("httpd-lite", 150, 30, 51.8, 185.6),
    )
    val rows = (for (w <- Fig10WorkerCounts; opt <- Seq(true, false)) yield {
      val cells = inputs.map { case (name, vars, objs, _, _) =>
        val in  = ProgramGen.pointsToGraph(vars, objs, seed = 92L)
        val eng = new Engine(w)
        val (res, t) = Fmt.timeMs(PointsTo.run(eng, in, materializeVA = !opt))
        eng.close()
        if (opt) f"${Fmt.ms(t)} (${res.ptFacts}%d pt)"
        else f"${Fmt.ms(t)} (${res.vaFacts}%d va)"
      }
      Seq(s"DD${if (opt) " (Opt)" else ""} w=$w") ++ cells
    }) ++ Seq(
      Seq("paper DD w=1") ++ inputs.map(i => s"${i._5}s"),
      Seq("paper DD (Opt) w=1") ++ inputs.map(i => s"${i._4}s"),
    )
    Fmt.table(
      "Fig 10a/10b (Graspan points-to; Opt avoids materializing value aliases)",
      Seq("config") ++ inputs.map(_._1),
      rows,
    )
  }
}
