package repro.datalog

import repro.dd._
import scala.collection.mutable

/** Datalog workloads (§6.3.1 / Appendix D): transitive closure and
  * same-generation, as bottom-up (full) evaluation and as interactive
  * top-down (magic-set seeded) queries over shared arrangements.
  *
  * Rules (edge(p, c): p is the parent / source):
  * {{{
  *   tc(x,y) <- edge(x,y).
  *   tc(x,y) <- tc(x,z), edge(z,y).
  *
  *   sg(x,y) <- edge(p,x), edge(p,y), x != y.
  *   sg(x,y) <- edge(a,x), sg(a,b), edge(b,y).
  * }}}
  *
  * Non-recursive rule bodies over pre-built arrangements use
  * `importInto` — the §4.3 trace-handle import — so the historical
  * collection arrives as one consolidated batch in the new dataflow.
  */
object Datalog {

  /** Full bottom-up transitive closure; returns the number of derived facts.
    * This is what every `tc(x,?)` query must run when arrangements cannot be
    * shared (the "full eval. (no SA)" rows of Figure 8). An interactive
    * `tc(x,?)` is `BatchGraph.reach` from `x` over the shared index, and
    * `tc(?,x)` the same over the index by target.
    */
  def tcFull(engine: Engine, edgesBySrc: Arranged[Long, Long], edges: Array[(Long, Long)]): Long = {
    val tc = new Closure(engine, edgesBySrc)
    tc.update(edges.toSeq.map(e => (e, 1L)))
    val n = tc.size
    tc.retire()
    n
  }

  /** The tagged closure `c(s,y) <- seed(s,y).  c(s,y) <- c(s,z), edge(z,y).`
    * in a dataflow of its own. `tcFull` seeds it with every edge; Graspan's
    * dataflow analysis seeds one `(s, s)` per null source, and retracting a
    * seed retracts exactly the facts it tagged.
    */
  final class Closure(engine: Engine, edgesBySrc: Arranged[Long, Long]) {
    private val df     = engine.newDataflow()
    private val candIn = df.newInput[(Long, Long)]()
    private val facts  = candIn.stream.arrangeBy(sz => (sz, ())).distinct
    private val next = facts.changes
      .map { case ((s, z), _) => (z, s) }
      .arrangeBy(identity)
      .join(edgesBySrc)((_, s, y) => (s, y))

    /** Apply seed updates and run to fixpoint; returns the iteration count. */
    def update(seeds: Seq[((Long, Long), Long)]): Int = FeedbackLoop.run(engine, candIn, next, seeds)

    def size: Long = facts.snapshot().length.toLong

    def retire(): Unit = df.retire()
  }

  /** Full bottom-up same-generation; returns the number of derived facts. */
  def sgFull(engine: Engine, edgesBySrc: Arranged[Long, Long]): Long = {
    val df = engine.newDataflow()
    // Base rule: import the edge trace so history arrives as a delta here.
    val base = edgesBySrc
      .importInto(df)
      .join(edgesBySrc)((_, x, y) => (x, y))
      .filter { case (x, y) => x != y }
    engine.step()
    val seeds = base.currentDelta // the loop variable's arrangeBy consolidates them

    val candIn = df.newInput[(Long, Long)]()
    val sg     = candIn.stream.arrangeBy(xy => (xy, ())).distinct
    val up = sg.changes
      .map { case ((a, b), _) => (a, b) }
      .arrangeBy(identity)
      .join(edgesBySrc)((_, b, x) => (b, x))
      .arrangeBy(identity)
      .join(edgesBySrc)((_, x, y) => (x, y))
    FeedbackLoop.run(engine, candIn, up, seeds)
    val n = sg.snapshot().length.toLong
    df.retire()
    n
  }

  /** Interactive `sg(x, ?)` via the magic-set transformation (§6.3.1): the
    * magic set is the ancestor closure of `x`; the sg rules are evaluated
    * restricted to magic first components, against shared arrangements of
    * both edge directions. Returns the number of `sg(m, ?)` facts derived
    * for magic `m` (a superset containing the answers `sg(x, ?)`).
    */
  def sgFromSeed(
      engine: Engine,
      edgesBySrc: Arranged[Long, Long],
      edgesByDst: Arranged[Long, Long],
      x: Long,
  ): Long = {
    // Magic set: ancestors of x (a with a ->* x), plus x itself.
    val dfM   = engine.newDataflow()
    val mIn   = dfM.newInput[Long]()
    val magic = mIn.stream.arrangeBy(n => (n, ())).distinct
    val mNext = magic.join(edgesByDst)((_, _, parent) => parent)
    FeedbackLoop.run(engine, mIn, mNext, Seq((x, 1L)))

    val df = engine.newDataflow()
    // Base restricted to magic children: M(c), edge(p, c), edge(p, sib).
    val base = magic
      .importInto(df)
      .join(edgesByDst)((c, _, p) => (p, c))
      .arrangeBy(identity)
      .join(edgesBySrc)((_, c, sib) => (c, sib))
      .filter { case (c, sib) => c != sib }
    engine.step()
    val seeds = base.currentDelta // the loop variable's arrangeBy consolidates them

    val candIn = df.newInput[(Long, Long)]()
    val sg     = candIn.stream.arrangeBy(xy => (xy, ())).distinct
    val up = sg.changes
      .map { case ((a, b), _) => (a, b) }
      .arrangeBy(identity)
      .join(edgesBySrc)((_, b, c) => (b, c))
      .arrangeBy(identity)
      .join(edgesBySrc)((_, c, y) => (c, y))
      .arrangeBy(identity)
      .join(magic)((c, y, _) => (c, y)) // magic restriction (semijoin)
    FeedbackLoop.run(engine, candIn, up, seeds)
    val n = sg.snapshot().count { case ((a, _), _, _) => a == x }.toLong
    dfM.retire(); df.retire()
    n
  }

  /** Naive in-memory references for correctness tests. */
  object Reference {

    /** tc(s, d): d reachable from s by a path of length >= 1. */
    def tc(edges: Array[(Long, Long)]): Set[(Long, Long)] = {
      val adj   = edges.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
      val nodes = edges.iterator.flatMap(e => Iterator(e._1, e._2)).toSet
      nodes.iterator.flatMap { s =>
        val seen  = mutable.HashSet.empty[Long]
        val stack = mutable.Stack.empty[Long]
        adj.getOrElse(s, Array.empty[Long]).foreach(v => if (seen.add(v)) stack.push(v))
        while (stack.nonEmpty) {
          val u = stack.pop()
          adj.getOrElse(u, Array.empty[Long]).foreach(v => if (seen.add(v)) stack.push(v))
        }
        seen.iterator.map(d => (s, d))
      }.toSet
    }

    /** Same-generation per the rules above (base excludes x == y; the
      * recursive rule does not).
      */
    def sg(edges: Array[(Long, Long)]): Set[(Long, Long)] = {
      val bySrc = edges.groupBy(_._1).view.mapValues(_.map(_._2).toSeq).toMap
      var all = (for {
        (_, children) <- bySrc.toSeq
        x <- children; y <- children if x != y
      } yield (x, y)).toSet
      var frontier = all
      while (frontier.nonEmpty) {
        val next = for {
          (a, b) <- frontier
          x <- bySrc.getOrElse(a, Nil)
          y <- bySrc.getOrElse(b, Nil)
        } yield (x, y)
        frontier = next -- all
        all = all ++ frontier
      }
      all
    }
  }
}
