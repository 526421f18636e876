package repro.graph

import repro.dd._
import scala.collection.mutable

/** Accumulated view of a result stream: maintained multiset of results. */
final class ResultSink[D] private[graph] (stream: Stream[D]) {
  private val data = mutable.HashMap.empty[D, Long]
  stream.inspect((_, delta) => delta.foreach { case (d, c) =>
    data.updateWith(d)(p => Some(p.getOrElse(0L) + c).filter(_ != 0L))
  })
  def count: Long        = data.valuesIterator.sum
  def contents: Set[D]   = data.keySet.toSet
}

/** The interactive graph-query workload of §6.1.2 / Figure 6: point
  * look-ups, 1-hop, 2-hop, and shortest-path-of-length-≤4 queries, each a
  * standing dataflow whose *query arguments* are a changing input collection
  * (the NiagaraCQ transformation). All four run against the same evolving
  * graph; in `shared` mode they read the shared edge/node arrangements
  * directly, otherwise every join builds and maintains a private copy (the
  * per-operator duplication of conventional stream processors).
  */
final class InteractiveGraph(val engine: Engine, shared: Boolean) {

  // ----- graph ingestion dataflow: the shared arrangements live here.
  private val dfG    = engine.newDataflow()
  private val nodeIn = dfG.newInput[(Long, Long)]()
  private val edgeIn = dfG.newInput[(Long, Long)]()
  private val nodesArr = nodeIn.stream.arrangeBy(identity)
  private val bySrc    = edgeIn.stream.arrangeBy(identity)

  def loadGraph(nodes: Iterable[(Long, Long)], edges: Iterable[(Long, Long)]): Unit = {
    nodeIn.insertAll(nodes)
    edgeIn.insertAll(edges)
    engine.step()
  }

  /** Buffer graph updates; they apply at the next `step()`. */
  def updateEdges(adds: Iterable[(Long, Long)], removes: Iterable[(Long, Long)]): Unit = {
    edgeIn.insertAll(adds)
    edgeIn.removeAll(removes)
  }

  def step(): Unit = engine.step()

  private def edgeView(df: Dataflow): ArrangedView[Long, Long] =
    if (shared) bySrc else bySrc.copyInto(df)

  // ----- query class 1: point look-up of node attributes.
  private val dfL = engine.newDataflow()
  val lookupArgs: Input[Long] = dfL.newInput[Long]()
  val lookupResults: ResultSink[(Long, Long)] = new ResultSink(
    lookupArgs.stream
      .arrangeBy(v => (v, ()))
      .join(if (shared) nodesArr else nodesArr.copyInto(dfL))((v, _, attr) => (v, attr))
  )

  // ----- query class 2: 1-hop neighbours.
  private val dfH1 = engine.newDataflow()
  val oneHopArgs: Input[Long] = dfH1.newInput[Long]()
  val oneHopResults: ResultSink[(Long, Long)] = new ResultSink(
    oneHopArgs.stream
      .arrangeBy(v => (v, ()))
      .join(edgeView(dfH1))((v, _, dst) => (v, dst))
  )

  // ----- query class 3: 2-hop neighbours (distinct midpoints per argument).
  private val dfH2 = engine.newDataflow()
  val twoHopArgs: Input[Long] = dfH2.newInput[Long]()
  private val h1 = twoHopArgs.stream
    .arrangeBy(v => (v, ()))
    .join(edgeView(dfH2))((v, _, dst) => (dst, v))
    .arrangeBy(identity)
    .distinct
  val twoHopResults: ResultSink[(Long, Long)] = new ResultSink(
    h1.join(edgeView(dfH2))((_, v, dst2) => (v, dst2))
  )

  // ----- query class 4: shortest path of length <= 4 between (s, t). Level
  // k's answers are read off its hop from level k - 1 (with a walk count as
  // diff, which `reduceMin` keeps while positive); only levels 1-3 are
  // arranged, since only they are extended.
  private val dfP = engine.newDataflow()
  val pathArgs: Input[(Long, Long)] = dfP.newInput[(Long, Long)]()
  private val pathEdges = edgeView(dfP)
  private def hop(prev: ArrangedView[Long, (Long, Long)]): Stream[(Long, (Long, Long))] =
    prev.join(pathEdges)((_, q, nxt) => (nxt, q))
  private val hops = Seq.iterate(hop(pathArgs.stream.arrangeBy { case (s, t) => (s, (s, t)) }), 4) {
    h => hop(h.arrangeBy(identity).distinct)
  }
  private val pathOut = hops.zipWithIndex
    .map { case (h, i) => h.filter { case (n, q) => n == q._2 }.map { case (_, q) => (q, i + 1L) } }
    .reduce(_ concat _)
    .arrangeBy(identity)
    .reduceMin

  /** (query, shortestLen) for currently installed path queries. */
  def pathSnapshot(): Map[(Long, Long), Long] =
    pathOut.snapshot().map(t => (t._1, t._2)).toMap

  /** Total retained tuples across all live traces (memory-footprint proxy). */
  def memoryTuples: Long = engine.totalTuples
}
