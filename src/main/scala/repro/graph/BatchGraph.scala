package repro.graph

import repro.dd._

/** Batch iterative graph computations on the differential dataflow kernel
  * (§6.3.3 / Appendix C): single-source reachability, single-source shortest
  * paths, and undirected connectivity via label propagation, all expressed
  * against shared edge arrangements and driven to fixpoint per epoch.
  */
object BatchGraph {

  /** Feed `rows` into a fresh dataflow on `engine` and arrange them by `kv`.
    * Timing this call reproduces the paper's `index-*` columns.
    */
  def index[R, K: Ordering, V: Ordering](engine: Engine, rows: Array[R])(kv: R => (K, V)): Arranged[K, V] = {
    val in  = engine.newDataflow().newInput[R]()
    val arr = in.stream.arrangeBy(kv)
    in.insertAll(rows)
    engine.step()
    arr
  }

  /** Arrange by source (`index-f`); `index(engine, edges)(_.swap)` arranges
    * by target (`index-r`).
    */
  def indexForward(engine: Engine, edges: Array[(Long, Long)]): Arranged[Long, Long] = index(engine, edges)(identity)

  /** Weighted forward index for sssp: src -> (dst, weight). */
  def indexWeighted(engine: Engine, edges: Array[(Long, Long, Long)]): Arranged[Long, (Long, Long)] =
    index(engine, edges) { case (s, d, w) => (s, (d, w)) }

  /** Nodes reached from `src` (including `src`), via semi-naive fixpoint over
    * the shared forward index.
    */
  def reach(engine: Engine, edgesBySrc: Arranged[Long, Long], src: Long): Set[Long] = {
    val df      = engine.newDataflow()
    val candIn  = df.newInput[Long]()
    val reached = candIn.stream.arrangeBy(n => (n, ())).distinct
    val next    = reached.join(edgesBySrc)((_, _, dst) => dst)
    FeedbackLoop.run(engine, candIn, next, Seq((src, 1L)))
    val result = reached.snapshot().map(_._1).toSet
    df.retire()
    result
  }

  /** Shortest path distances from `src` over the shared weighted index. */
  def sssp(engine: Engine, weightedBySrc: Arranged[Long, (Long, Long)], src: Long): Map[Long, Long] = {
    val df     = engine.newDataflow()
    val candIn = df.newInput[(Long, Long)]() // (node, dist)
    val best   = candIn.stream.arrangeBy(identity).reduceMin
    val next   = best.join(weightedBySrc) { case (_, dist, (dst, w)) => (dst, dist + w) }
    FeedbackLoop.run(engine, candIn, next, Seq(((src, 0L), 1L)))
    val result = best.snapshot().map(t => (t._1, t._2)).toMap
    df.retire()
    result
  }

  /** Undirected connectivity by min-label propagation over a symmetrized
    * index; returns the component label per node.
    */
  def wcc(engine: Engine, symBySrc: Arranged[Long, Long], nodes: Iterable[Long]): Map[Long, Long] = {
    val df     = engine.newDataflow()
    val candIn = df.newInput[(Long, Long)]() // (node, label)
    val best   = candIn.stream.arrangeBy(identity).reduceMin
    val next   = best.join(symBySrc)((_, label, dst) => (dst, label))
    FeedbackLoop.run(engine, candIn, next, nodes.map(n => ((n, n), 1L)).toSeq)
    val result = best.snapshot().map(t => (t._1, t._2)).toMap
    df.retire()
    result
  }
}
