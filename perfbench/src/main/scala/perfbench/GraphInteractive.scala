package perfbench

import repro.dd.{Engine, Input}
import repro.graph.{GraphGen, InteractiveGraph}
import scala.collection.mutable
import scala.util.Random

/** graph-interactive: the Figure 6 standing query mix on shared
  * arrangements, driven by one closed-loop client. Each epoch retracts one
  * argument per query class and inserts a fresh one, adds and removes a few
  * edges, and steps the engine; the step's answers are then checked against
  * a naive evaluation over the client's own copy of the graph.
  */
object GraphInteractive {

  val Nodes        = 50000
  val Edges        = 320000
  val ArgsPerClass = 10
  val EdgeChurn    = 4 // edges added and edges removed per epoch
  val SetupRepeats = 9 // the first few are slower while the JIT warms up
  val IdleSteps    = 50
  val WarmUpS      = 6.0 // epochs keep getting faster for about this long

  /** The client's copy of the evolving edge multiset. */
  private final class GraphCopy(edges: Array[(Long, Long)]) {
    val adj  = Array.fill(Nodes)(mutable.ArrayBuffer.empty[Long])
    val list = mutable.ArrayBuffer.from(edges)
    edges.foreach { case (s, d) => adj(s.toInt) += d }

    def add(e: (Long, Long)): Unit = { list += e; adj(e._1.toInt) += e._2 }

    def removeAt(i: Int): (Long, Long) = {
      val e = list(i)
      list(i) = list.last
      list.dropRightInPlace(1)
      adj(e._1.toInt) -= e._2
      e
    }

    def out(v: Long): Iterator[Long] = adj(v.toInt).iterator

    def step(from: collection.Set[Long]): Set[Long] = from.iterator.flatMap(out).toSet
  }

  private final class Client(seed: Long) {
    val rng   = new Random(Seeds.derive(seed, "interactive.client"))
    val salt  = Seeds.derive(seed, "interactive.attr")
    val edges = GraphGen.uniform(Nodes, Edges, seed = Seeds.derive(seed, "interactive.graph"))
    def attr(v: Long): Long = v * 31L + (salt & 0xffffL)
    def nodes: IndexedSeq[(Long, Long)] = (0 until Nodes).map(i => (i.toLong, attr(i.toLong)))

    def node(): Long = rng.nextInt(Nodes).toLong
    def distinct[T](n: Int)(gen: () => T): mutable.ArrayBuffer[T] = {
      val out = mutable.LinkedHashSet.empty[T]
      while (out.size < n) out += gen()
      mutable.ArrayBuffer.from(out)
    }
    val lookups = distinct(ArgsPerClass)(() => node())
    val oneHops = distinct(ArgsPerClass)(() => node())
    val twoHops = distinct(ArgsPerClass)(() => node())
    val paths   = distinct(ArgsPerClass)(() => (node(), node()))
  }

  private def install(c: Client): (Engine, InteractiveGraph) = {
    val eng = new Engine(workers = Runtime.getRuntime.availableProcessors())
    val ig  = new InteractiveGraph(eng, shared = true)
    ig.loadGraph(c.nodes, c.edges)
    ig.lookupArgs.insertAll(c.lookups)
    ig.oneHopArgs.insertAll(c.oneHops)
    ig.twoHopArgs.insertAll(c.twoHops)
    ig.pathArgs.insertAll(c.paths)
    ig.step()
    (eng, ig)
  }

  /** Swap one standing argument for a fresh one. */
  private def replaceOne[T](args: mutable.ArrayBuffer[T], in: Input[T], fresh: () => T, rng: Random): Unit = {
    val i   = rng.nextInt(args.length)
    var now = fresh()
    while (args.contains(now)) now = fresh()
    in.removeAll(args(i) :: Nil)
    in.insertAll(now :: Nil)
    args(i) = now
  }

  private def pathLength(g: GraphCopy, s: Long, t: Long): Option[Long] = {
    var level: Set[Long] = Set(s)
    (1 to 4).iterator.map { k => level = g.step(level); k.toLong }.find(_ => level.contains(t))
  }

  def run(args: Main.Args, tracer: Tracer, report: Report): Unit = {
    val workers = Runtime.getRuntime.availableProcessors()
    val c       = new Client(args.seed)

    // Set-up: generate inputs, load the graph, install the standing queries.
    // Repeated; the median is reported and the last installation is kept.
    var installed: (Engine, InteractiveGraph) = null
    val setupMs = (1 to SetupRepeats).map { _ =>
      if (installed != null) installed._1.close()
      val (inst, ms) = Stats.timed(install(new Client(args.seed)))
      installed = inst
      ms
    }
    val (eng, ig) = installed
    Log(s"set-up done: ${setupMs.map(ms => f"$ms%.0f").mkString(", ")} ms")
    val g         = new GraphCopy(c.edges)

    def epoch(): Double = {
      val (_, ms) = Stats.timed {
        tracer.span("dd.send") {
          replaceOne(c.lookups, ig.lookupArgs, () => c.node(), c.rng)
          replaceOne(c.oneHops, ig.oneHopArgs, () => c.node(), c.rng)
          replaceOne(c.twoHops, ig.twoHopArgs, () => c.node(), c.rng)
          replaceOne(c.paths, ig.pathArgs, () => (c.node(), c.node()), c.rng)
          val adds = Seq.fill(EdgeChurn) {
            val s = c.node(); var d = c.node(); if (d == s) d = (d + 1) % Nodes
            (s, d)
          }
          val removes = Seq.fill(EdgeChurn)(g.removeAt(c.rng.nextInt(g.list.length)))
          adds.foreach(g.add)
          ig.updateEdges(adds, removes)
        }
        tracer.span("dd.step")(ig.step())
      }
      ms
    }

    def checkAnswers(): Unit = {
      val (lookup, oneHop, twoHop, path) = tracer.span("graph.read") {
        (ig.lookupResults.contents, ig.oneHopResults.contents, ig.twoHopResults.contents, ig.pathSnapshot())
      }
      tracer.sample("graph.out_records", (lookup.size + oneHop.size + twoHop.size + path.size).toDouble)
      tracer.span("client.check") {
        report.check("look-up")(lookup == c.lookups.map(v => (v, c.attr(v))).toSet)
        report.check("1-hop")(oneHop == c.oneHops.iterator.flatMap(v => g.out(v).map(d => (v, d))).toSet)
        report.check("2-hop")(twoHop == c.twoHops.iterator.flatMap { v =>
          g.step(g.out(v).toSet).iterator.map(d => (v, d))
        }.toSet)
        report.check("4-path")(path == c.paths.iterator.flatMap { case (s, t) =>
          pathLength(g, s, t).map(len => (s, t) -> len)
        }.toMap)
      }
    }

    def loop(seconds: Double)(each: Double => Unit): Unit = {
      val until = System.nanoTime() + (seconds * 1e9).toLong
      while (System.nanoTime() < until)
        tracer.span("client.epoch") {
          report.op("epoch")(epoch()).foreach(each)
          checkAnswers()
        }
    }

    // Warm-up (JIT, spine shapes) is checked but not timed.
    loop(WarmUpS)(_ => ())
    Log("warm-up done")
    val firstStep = tracer.spans("dd.step").length
    val latencies = mutable.ArrayBuffer.empty[Double]
    loop(args.seconds) { ms =>
      latencies += ms
      tracer.sample("dd.state_rows", eng.totalTuples.toDouble)
    }
    val stateRows = eng.totalTuples
    Log(s"measured ${latencies.length} epochs")

    report.metric("setup_s", Stats.median(setupMs) / 1e3, "s")
    report.metric("latency_ms.p50", Stats.median(latencies.toSeq), "ms")
    report.metric("latency_ms.p90", Stats.percentile(latencies.toSeq, 90), "ms")
    report.metric("state_rows", stateRows.toDouble, "count")
    report.note(s"graph-interactive: $Nodes nodes, $Edges edges, $workers workers, $ArgsPerClass arguments per query class")
    report.note(f"  update_ms.p50 = ${Stats.median(latencies.toSeq)}%.3f ms, update_ms.p90 = " +
      f"${Stats.percentile(latencies.toSeq, 90)}%.3f ms (${latencies.length} epochs after warm-up)")
    report.note(f"  state_rows = $stateRows (Engine.totalTuples), setup_s = ${Stats.median(setupMs) / 1e3}%.3f s")
    report.note(s"  ops.total = ${report.attempted}, ops.failed = ${report.failed} (epochs and answer checks)")

    if (tracer.enabled) {
      val steps = tracer.spans("dd.step").drop(firstStep)
      report.metric("traced.latency_ms.p50", Stats.median(latencies.toSeq), "ms")
      report.metric("dd.step_ms", Stats.median(steps.map(_.selfMs)), "ms")
      report.metric("dd.send_ms", Stats.median(tracer.selfMs("dd.send")), "ms")
      report.metric("dd.state_rows", tracer.samplesOf("dd.state_rows").max, "count")
      report.metric("graph.read_ms", Stats.median(tracer.selfMs("graph.read")), "ms")
      report.metric("graph.out_records", Stats.median(tracer.samplesOf("graph.out_records")), "count")
      report.metric("client.check_ms", Stats.median(tracer.selfMs("client.check")), "ms")
      // Fixed per-step cost with every standing dataflow installed.
      val idle = (1 to IdleSteps).map(_ => Stats.timed(ig.step())._2)
      report.metric("dd.idle_step_ms.loaded", Stats.median(idle), "ms")
      KernelReplay.run(report, args.seed)
    }
    eng.close()
  }
}
