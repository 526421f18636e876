package repro.harness

import repro.dd.Engine
import repro.graph.{GraphGen, InteractiveGraph}
import scala.util.Random

/** Figure 6: interactive graph query latency vs. batch size, on shared
  * arrangements, plus an unindexed per-query scan baseline standing in for
  * the database comparators (Neo4j / Postgres / Virtuoso — unavailable;
  * substitution documented in DESIGN.md). Also reports the shared-vs-
  * unshared memory footprint (the Fig. 5c effect) for the same query mix.
  */
object GraphQueryHarness {

  // The configuration EXPERIMENTS.md reports.
  private val Workers = 8
  private val Nodes   = 50000
  private val Edges   = 320000
  private val Trials  = 3

  // Paper Fig. 6, DD latencies (ms) for batch sizes 1, 10, 100, 1000.
  private val paper = Map(
    "look-up" -> Seq(0.64, 0.81, 1.26, 5.71),
    "one-hop" -> Seq(0.92, 1.19, 1.65, 6.88),
    "two-hop" -> Seq(1.28, 1.65, 2.92, 10.14),
    "4-path"  -> Seq(1.89, 2.79, 8.01, 72.20),
  )

  def run(): String = {
    val rng   = new Random(71L)
    val edges = GraphGen.uniform(Nodes, Edges, seed = 72L)
    val nodes = (0 until Nodes).map(i => (i.toLong, i.toLong * 7L))

    val eng = new Engine(Workers)
    val ig  = new InteractiveGraph(eng, shared = true)
    ig.loadGraph(nodes, edges)
    // Memory footprint of the standing dataflows, measured at matching
    // points (right after graph load, before query churn).
    val mem = ig.memoryTuples
    val memU = {
      val engU = new Engine(Workers)
      val igU  = new InteractiveGraph(engU, shared = false)
      igU.loadGraph(nodes, edges)
      val m = igU.memoryTuples
      engU.close()
      m
    }

    def v(): Long = rng.nextInt(Nodes).toLong

    val batchSizes = Seq(1, 10, 100, 1000)
    def bench(insert: Int => Unit, retract: Int => Unit): Seq[Double] =
      batchSizes.map { b =>
        val times = (1 to Trials).map { _ =>
          val (_, t) = Fmt.timeMs { insert(b); ig.step() }
          retract(b); ig.step()
          t
        }
        Fmt.median(times)
      }

    // For retraction we must retract the same arguments we inserted.
    var lastArgs: Seq[Long]                 = Nil
    var lastPairs: Seq[(Long, Long)]        = Nil
    def argBatch(b: Int): Seq[Long]         = { lastArgs = Seq.fill(b)(v()).distinct; lastArgs }
    def pairBatch(b: Int): Seq[(Long, Long)] = { lastPairs = Seq.fill(b)((v(), v())).distinct; lastPairs }

    val lookup = bench(b => ig.lookupArgs.insertAll(argBatch(b)), _ => ig.lookupArgs.removeAll(lastArgs))
    val onehop = bench(b => ig.oneHopArgs.insertAll(argBatch(b)), _ => ig.oneHopArgs.removeAll(lastArgs))
    val twohop = bench(b => ig.twoHopArgs.insertAll(argBatch(b)), _ => ig.twoHopArgs.removeAll(lastArgs))
    val path   = bench(b => ig.pathArgs.insertAll(pairBatch(b)), _ => ig.pathArgs.removeAll(lastPairs))

    // Unindexed scan baseline: evaluate one query by scanning the edge list.
    def scanBaseline(f: Long => Unit): Double =
      Fmt.median((1 to Trials).map { _ => Fmt.timeMs(f(v()))._2 })
    val scanLookup = scanBaseline { x => nodes.find(_._1 == x) }
    val scanOneHop = scanBaseline { x => edges.count(_._1 == x) }
    val scanTwoHop = scanBaseline { x =>
      val mids = edges.collect { case (s, d) if s == x => d }.toSet
      edges.count(e => mids(e._1))
    }
    val scanPath = scanBaseline { s =>
      var frontier = Set(s)
      for (_ <- 1 to 4)
        frontier = edges.collect { case (a, b) if frontier(a) => b }.toSet
    }

    eng.close()

    val header = Seq("query", "scan 1q") ++ batchSizes.map(b => s"DD b=$b") ++
      Seq("paper b=1", "paper b=1000")
    def row(name: String, scan: Double, dd: Seq[Double]) =
      Seq(name, Fmt.ms(scan)) ++ dd.map(Fmt.ms) ++
        Seq(Fmt.ms(paper(name).head), Fmt.ms(paper(name).last))

    val rows = Seq(
      ("look-up", scanLookup, lookup),
      ("one-hop", scanOneHop, onehop),
      ("two-hop", scanTwoHop, twohop),
      ("4-path", scanPath, path),
    )
    val report = Fmt.table(
      s"Fig 6 (interactive graph queries, $Nodes nodes / $Edges edges, $Workers workers)",
      header,
      rows.map { case (name, scan, dd) => row(name, scan, dd) },
    ) + f"memory (tuples): shared=$mem%d  unshared=$memU%d  ratio=${memU.toDouble / mem}%.1fx (paper: ~4x)\n"
    checkShape(mem, memU, rows)
    report
  }

  /** The paper's Fig. 6 shape: unshared state exceeds shared, and indexed
    * two-hop and 4-path queries at b=1 beat one scan. Throws naming the
    * first cell that breaks it; `rows` are (query, scan 1q, DD latencies).
    */
  private[harness] def checkShape(mem: Long, memU: Long, rows: Seq[(String, Double, Seq[Double])]): Unit = {
    if (memU <= mem)
      throw new IllegalStateException(s"Fig 6 memory: unshared=$memU is not above shared=$mem")
    for ((query, scan, dd) <- rows if query == "two-hop" || query == "4-path"; if dd.head >= scan)
      throw new IllegalStateException(f"Fig 6 $query: DD b=1 ${dd.head}%.2f ms is not below scan 1q $scan%.2f ms")
  }
}
