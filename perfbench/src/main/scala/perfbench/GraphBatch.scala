package perfbench

import repro.datalog.Datalog
import repro.dd.Engine
import repro.graph.{Baselines, BatchGraph, GraphGen}
import scala.collection.mutable

/** graph-batch: Figures 11 and 17 as one job from cold input to complete
  * results. Three shared indexes (forward, weighted, symmetric) feed reach,
  * sssp and wcc; transitive closure and same-generation run on their own
  * indexes, sg importing its edge trace. Every result is checked against the
  * single-threaded baselines and the naive Datalog references.
  */
object GraphBatch {

  val Nodes        = 15000
  val Edges        = 75000
  val GnpNodes     = 500
  val TreeDepth    = 8
  val SetupRepeats = 9 // the first few are slower while the JIT warms up

  final case class Inputs(
      edges: Array[(Long, Long)],
      weighted: Array[(Long, Long, Long)],
      sym: Array[(Long, Long)],
      gnp: Array[(Long, Long)],
      tree: Array[(Long, Long)],
  ) {
    val src: Long = edges.head._1
  }

  def inputs(seed: Long, nodes: Int, edges: Int, gnpNodes: Int, treeDepth: Int): Inputs = {
    val e = GraphGen.uniform(nodes, edges, seed = Seeds.derive(seed, "batch.graph"))
    Inputs(e, GraphGen.weighted(e, seed = Seeds.derive(seed, "batch.weights")), GraphGen.symmetrize(e),
      GraphGen.gnp(gnpNodes, 0.004, seed = Seeds.derive(seed, "batch.gnp")), GraphGen.tree(2, treeDepth))
  }

  final case class Results(reach: Set[Long], sssp: Map[Long, Long], wcc: Map[Long, Long], tc: Long, sg: Long)

  /** The job: index builds plus every computation on one engine. */
  def job(in: Inputs, nodes: Int, tracer: Tracer): (Results, Long) = {
    val eng = new Engine(workers = Runtime.getRuntime.availableProcessors())
    try {
      def stage[A](name: String)(f: => A): A = {
        val before = eng.epoch
        val a      = tracer.span(name)(f)
        tracer.sample(s"dd.steps.$name", (eng.epoch - before).toDouble)
        tracer.sample("dd.state_rows", eng.totalTuples.toDouble)
        a
      }
      val fwd    = stage("graph.index_f")(BatchGraph.indexForward(eng, in.edges))
      val wIdx   = stage("graph.index_w")(BatchGraph.indexWeighted(eng, in.weighted))
      val symIdx = stage("graph.index_sym")(BatchGraph.indexForward(eng, in.sym))
      val reach  = stage("graph.reach")(BatchGraph.reach(eng, fwd, in.src))
      val sssp   = stage("graph.sssp")(BatchGraph.sssp(eng, wIdx, in.src))
      val wcc    = stage("graph.wcc")(BatchGraph.wcc(eng, symIdx, (0 until nodes).map(_.toLong)))
      val gnpIdx = stage("datalog.index_gnp")(BatchGraph.indexForward(eng, in.gnp))
      val tc     = stage("datalog.tc_full")(Datalog.tcFull(eng, gnpIdx, in.gnp))
      val treeIx = stage("datalog.index_tree")(BatchGraph.indexForward(eng, in.tree))
      val sg     = stage("datalog.sg_full")(Datalog.sgFull(eng, treeIx))
      (Results(reach, sssp, wcc, tc, sg), eng.totalTuples)
    } finally eng.close()
  }

  def run(args: Main.Args, tracer: Tracer, report: Report): Unit = {
    val workers = Runtime.getRuntime.availableProcessors()
    // Set-up: input generation plus a warm-up job on a twentieth-size graph
    // (compiles the same code paths). Repeated; the median is reported.
    val (in, setupMs) = (1 to SetupRepeats).map { _ =>
      Stats.timed {
        val small = inputs(args.seed, Nodes / 20, Edges / 20, GnpNodes / 5, TreeDepth - 3)
        job(small, Nodes / 20, new Tracer(false))
        inputs(args.seed, Nodes, Edges, GnpNodes, TreeDepth)
      }
    }.unzip
    val input = in.last
    Log(s"set-up done: ${setupMs.map(ms => f"$ms%.0f").mkString(", ")} ms")

    // References, from the single-threaded baselines and naive Datalog.
    val (bfs, bfsMs)  = Stats.timed(Baselines.bfsArray(Nodes, input.edges, input.src))
    val (dij, dijMs)  = Stats.timed(Baselines.ssspArray(Nodes, input.weighted, input.src))
    val (uf, ufMs)    = Stats.timed(Baselines.unionFindArray(Nodes, input.sym))
    val expReach      = bfs.indices.filter(bfs(_) >= 0).map(_.toLong).toSet
    val expSssp       = dij.indices.filter(dij(_) < Long.MaxValue).map(i => i.toLong -> dij(i)).toMap
    val expWcc        = uf.indices.map(i => i.toLong -> uf(i).toLong).toMap
    val expTc         = Datalog.Reference.tc(input.gnp).size.toLong
    val expSg         = Datalog.Reference.sg(input.tree).size.toLong

    Log("references done")

    // Jobs run back to back while the next one, as long as the last, still
    // fits in the measured window; there is always at least one.
    val jobMs     = mutable.ArrayBuffer.empty[Double]
    var stateRows = 0L
    val until     = System.nanoTime() + (args.seconds * 1e9).toLong
    while (jobMs.isEmpty || System.nanoTime() + jobMs.last * 1e6 < until) {
      report.op("batch job")(Stats.timed(tracer.span("client.job")(job(input, Nodes, tracer)))) match {
        case Some(((r, rows), ms)) =>
          jobMs += ms
          stateRows = rows
          report.check("reach")(r.reach == expReach)
          report.check("sssp")(r.sssp == expSssp)
          report.check("wcc")(r.wcc == expWcc)
          report.check("tc")(r.tc == expTc)
          report.check("sg")(r.sg == expSg)
        case None => throw new IllegalStateException("the batch job failed")
      }
    }
    Log(s"measured ${jobMs.length} jobs")
    val jobs = jobMs.toSeq
    report.metric("setup_s", Stats.median(setupMs) / 1e3, "s")
    report.metric("latency_ms.p50", Stats.median(jobs), "ms")
    report.metric("latency_ms.p90", Stats.percentile(jobs, 90), "ms")
    report.metric("state_rows", stateRows.toDouble, "count")
    report.note(s"graph-batch: $Nodes nodes, $Edges edges, gnp($GnpNodes, 0.004), tree(2, $TreeDepth), $workers workers")
    report.note(f"  batch_s = ${Stats.median(jobs) / 1e3}%.3f s (median of ${jobs.length} jobs)")
    report.note(f"  state_rows = $stateRows (Engine.totalTuples), setup_s = ${Stats.median(setupMs) / 1e3}%.3f s")
    report.note(s"  ops.total = ${report.attempted}, ops.failed = ${report.failed} (jobs and result checks)")

    if (tracer.enabled) {
      report.metric("traced.latency_ms.p50", Stats.median(jobs), "ms")
      Seq("graph.index_f", "graph.index_w", "graph.index_sym", "graph.reach", "graph.sssp", "graph.wcc")
        .foreach(n => report.metric(s"${n}_ms", Stats.median(tracer.selfMs(n)), "ms"))
      report.metric("datalog.tc_full_ms", Stats.median(tracer.selfMs("datalog.tc_full")), "ms")
      report.metric("datalog.sg_full_ms", Stats.median(tracer.selfMs("datalog.sg_full")), "ms")
      Seq("graph.reach", "graph.sssp", "graph.wcc", "datalog.tc_full", "datalog.sg_full").foreach { n =>
        report.metric(s"dd.steps.${n.split('.').last}", Stats.median(tracer.samplesOf(s"dd.steps.$n")), "count")
      }
      report.metric("dd.state_rows", tracer.samplesOf("dd.state_rows").max, "count")
      report.metric("graph.baseline.bfs_ms", bfsMs, "ms")
      report.metric("graph.baseline.sssp_ms", dijMs, "ms")
      report.metric("graph.baseline.wcc_ms", ufMs, "ms")
      KernelReplay.run(report, args.seed)
    }
  }
}
