package repro.graspan

import repro.datalog.Datalog
import repro.dd._
import scala.collection.mutable
import scala.util.Random

/** Synthetic program graphs standing in for Graspan's linux/psql/httpd
  * inputs (documented substitution, DESIGN.md). The *dataflow* analysis uses
  * an acyclic def-use assignment graph plus a set of null-assignment sources;
  * acyclicity makes count-based retraction exact for the interactive removal
  * experiment (Fig. 9c). The *points-to* analysis uses variables, heap
  * objects and alloc/assign/load/store edges (Andersen-style).
  */
object ProgramGen {

  /** Random DAG of `n` statements with ~`m` def-use edges (src < dst) and
    * `k` null-assignment sources.
    */
  def dataflowGraph(n: Int, m: Int, k: Int, seed: Long = 5L): (Array[(Long, Long)], Array[Long]) = {
    val rng = new Random(seed)
    val edges = Array.fill(m) {
      val a = rng.nextInt(n - 1)
      val b = a + 1 + rng.nextInt(n - a - 1)
      (a.toLong, b.toLong)
    }
    val nulls = Array.fill(k)(rng.nextInt(n).toLong).distinct
    (edges, nulls)
  }

  final case class PointsToInput(
      alloc: Array[(Long, Long)],  // (var, obj)
      assign: Array[(Long, Long)], // (dst, src): dst = src
      load: Array[(Long, Long)],   // (dst, ptr): dst = *ptr
      store: Array[(Long, Long)],  // (ptr, src): *ptr = src
  )

  /** Random Andersen-style input over `vars` variables and `objs` objects. */
  def pointsToGraph(vars: Int, objs: Int, seed: Long = 6L): PointsToInput = {
    val rng = new Random(seed)
    def v() = rng.nextInt(vars).toLong
    // Objects occupy ids [vars, vars + objs).
    def o() = (vars + rng.nextInt(objs)).toLong
    PointsToInput(
      alloc = Array.fill(objs * 2)((v(), o())),
      assign = Array.fill(vars * 2)((v(), v())),
      load = Array.fill(vars / 2)((v(), v())),
      store = Array.fill(vars / 2)((v(), v())),
    )
  }
}

/** Graspan's *dataflow* analysis: propagate each null-assignment source along
  * def-use edges, producing (source, reachedStatement) facts — multi-source
  * tagged reachability (§6.3.2). Because every derived fact is tagged by its
  * source, interactive removal of a null assignment retracts exactly its
  * facts via diff cancellation through the same dataflow (Fig. 9c).
  */
final class DataflowAnalysis(engine: Engine, edgesBySrc: Arranged[Long, Long]) {

  private val closure = new Datalog.Closure(engine, edgesBySrc)

  /** Run the initial analysis from all null sources; returns #facts. */
  def run(nulls: Array[Long]): Long = {
    closure.update(nulls.toSeq.map(s => ((s, s), 1L)))
    factCount
  }

  /** Remove one null-assignment source; retractions flow through the same
    * dataflow until quiescent. Returns the number of retracted facts.
    */
  def removeNull(s: Long): Long = {
    val before = factCount
    remove(s)
    before - factCount
  }

  /** Removal without the (expensive) fact recount — used when timing the
    * retraction itself (Fig. 9c).
    */
  def remove(s: Long): Unit = closure.update(Seq(((s, s), -1L)))

  def factCount: Long = closure.size

  def retire(): Unit = closure.retire()
}

/** Andersen-style points-to as mutually composed recursive rules (§6.3.2):
  * {{{
  *   pt(x,o) <- alloc(x,o)
  *   pt(x,o) <- assign(x,y), pt(y,o)
  *   pt(x,o) <- load(x,p),  pt(p,q), pt(q,o)
  *   pt(a,o) <- store(p,y), pt(p,a), pt(y,o)
  * }}}
  * The unoptimized plan (paper Fig. 10 "DD" vs "DD (Opt)") additionally
  * materializes the full value-alias relation `va(x,y) <- pt(x,o), pt(y,o)`,
  * a large intermediate used only once — the optimization the paper credits
  * shared arrangements with making reusable.
  */
object PointsTo {

  final case class Result(ptFacts: Long, vaFacts: Long)

  def run(engine: Engine, input: ProgramGen.PointsToInput, materializeVA: Boolean): Result = {
    val df = engine.newDataflow()

    val assignIn = df.newInput[(Long, Long)]()
    val loadIn   = df.newInput[(Long, Long)]()
    val storeIn  = df.newInput[(Long, Long)]()
    // assign(x, y): keyed by y (rhs) so delta-pt(y, o) finds x.
    val assignByRhs = assignIn.stream.arrangeBy { case (x, y) => (y, x) }
    val loadByPtr   = loadIn.stream.arrangeBy { case (x, p) => (p, x) }
    val storeByPtr  = storeIn.stream.arrangeBy { case (p, y) => (p, y) }
    assignIn.insertAll(input.assign)
    loadIn.insertAll(input.load)
    storeIn.insertAll(input.store)
    engine.step()

    val candIn = df.newInput[(Long, Long)]() // pt candidates (x, o)
    val pt     = candIn.stream.arrangeBy(identity).distinct // Arranged[var, obj]
    // pt also keyed by obj, for composing pt with itself.
    val ptByObj = pt.changes.map { case (x, o) => (o, x) }.arrangeBy(identity)

    // r1: assign — delta-pt(y, o) joined with assign(x, y).
    val r1 = pt.join(assignByRhs)((_, o, x) => (x, o))

    // pt∘pt(p, o): pt(p, q), pt(q, o) — q ranges over objects-as-pointers.
    val ptpt = ptByObj.join(pt)((_, p, o) => (p, o)).arrangeBy(identity).distinct

    // r2: load — ptpt(p, o), load(x, p).
    val r2 = ptpt.join(loadByPtr)((_, o, x) => (x, o))

    // r3: store — pt(p, a), store(p, y) gives (y, a); then pt(y, o) -> pt(a, o).
    val ya  = pt.join(storeByPtr)((_, a, y) => (y, a)).arrangeBy(identity).distinct
    val r3  = ya.join(pt)((_, a, o) => (a, o))
    // r3 also needs the flipped delta order: new pt(y, o) against existing ya —
    // covered by the bilinear rule since both sides are arrangements.

    val cands = r1.concat(r2.concat(r3))
    FeedbackLoop.run(engine, candIn, cands, input.alloc.toSeq.map(a => (a, 1L)))
    val ptFacts = pt.snapshot().length.toLong

    // Unoptimized plan: materialize the full value-alias relation once.
    val vaFacts = if (materializeVA) {
      val dfVA = engine.newDataflow()
      val va   = ptByObj.importInto(dfVA).join(ptByObj)((_, x, y) => (x, y))
      var count = 0L
      val seen = mutable.HashSet.empty[(Long, Long)]
      va.inspect((_, delta) => delta.foreach { case (p, d) => if (d > 0L) seen += p })
      engine.step()
      count = seen.size.toLong
      dfVA.retire()
      count
    } else 0L

    df.retire()
    Result(ptFacts, vaFacts)
  }
}
