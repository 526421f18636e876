package repro.dd

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Differential referee for the engine's schedule: random programs of
  * installs, updates and retractions, direct joins, imports into any live
  * dataflow (earlier ones included), private copies, `count`/`distinct`/
  * `reduceMin`, `changes`, retirements followed by new dataflows, steps and a
  * seeded feedback-loop reach. After every step each live output must equal
  * naive recomputation over the model's collections, at 1, 2 and 4 workers.
  */
class EngineRefereeSpec extends AnyFunSuite {

  import EngineRefereeSpec._

  private def add[D](m: MSet[D], d: D, c: Long): Unit =
    m.updateWith(d)(p => Some(p.getOrElse(0L) + c).filter(_ != 0L))

  private def sumByDatum[D](rows: Iterable[(D, Long)]): Map[D, Long] =
    rows.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0L)

  private def naiveJoin(a: Map[Rec, Long], b: Map[Rec, Long]): Map[(Long, Int, Int), Long] = {
    val byKey = b.groupBy(_._1._1)
    sumByDatum(for {
      ((k, v), c1) <- a.toSeq
      ((_, w), c2) <- byKey.getOrElse(k, Map.empty[Rec, Long]).toSeq
    } yield ((k, v, w), c1 * c2))
  }

  /** `count`, `distinct` and `reduceMin` of a collection, as `(key, output)`. */
  private def naiveReduce(kind: Int, m: Map[Rec, Long]): Map[(Long, Long), Long] = {
    val byKey = m.groupBy(_._1._1)
    kind match {
      case 0 => byKey.map { case (k, g) => ((k, g.values.sum), 1L) }
      case 1 => m.collect { case ((k, v), c) if c > 0L => ((k, v.toLong), 1L) }
      case _ => byKey.map { case (k, g) => ((k, g.keys.map(_._2).min.toLong), 1L) }
    }
  }

  private def run(program: List[Cmd], workers: Int): Unit = {
    val eng = new Engine(workers)
    try {
      val live    = mutable.ArrayBuffer.empty[Dataflow]
      val sources = mutable.ArrayBuffer.empty[Src]
      val views   = mutable.ArrayBuffer.empty[View]
      val outs    = mutable.ArrayBuffer.empty[Out]
      val reads   = mutable.HashMap.empty[Dataflow, Set[Dataflow]].withDefaultValue(Set.empty)

      def content(v: View): Map[Rec, Long] = if (eng.epoch >= v.installAt) v.src.now.toMap else Map.empty
      def pick[A](xs: collection.IndexedSeq[A], i: Int): Option[A] = if (xs.isEmpty) None else Some(xs(i % xs.length))
      def reader(owner: Dataflow, of: View*): Unit = reads(owner) = reads(owner) ++ of.flatMap(_.needs)
      def importView(view: View, into: Dataflow, when: String): View = {
        reader(into, view)
        View(s"import at $when", view.v.importInto(into), view.src, eng.epoch + 1L, view.needs + into)
      }
      def accumulate[D](s: Stream[D], base: Map[D, Long]): MSet[D] = {
        val acc = mutable.HashMap.from(base)
        s.inspect((_, delta) => delta.foreach { case (d, c) => add(acc, d, c) })
        acc
      }
      def check(when: String): Unit = {
        for (v <- views)
          assert(sumByDatum(v.v.snapshot().map(t => ((t._1, t._2), t._3))) == content(v), s"$when: ${v.name}")
        for (o <- outs) assert(o.got() == o.want(), s"$when: ${o.name}")
      }
      def applyPending(): Unit =
        sources.foreach { s => s.pending.foreach { case (r, c) => add(s.now, r, c) }; s.pending.clear() }
      def retire(df: Dataflow): Unit = {
        // A reader of a retired dataflow would fail on the next step, so it goes too.
        val gone = mutable.Set(df)
        while (live.exists(d => !gone(d) && reads(d).exists(gone))) gone ++= live.filter(d => reads(d).exists(gone))
        gone.foreach(_.retire())
        live --= gone
        sources.filterInPlace(s => !gone(s.df))
        views.filterInPlace(v => !v.needs.exists(gone))
        outs.filterInPlace(o => !o.needs.exists(gone))
      }

      for ((cmd, n) <- program.zipWithIndex) {
        val when = s"workers=$workers, command $n ($cmd), epoch ${eng.epoch}"
        cmd match {
          case Install() =>
            val df  = eng.newDataflow()
            val in  = df.newInput[Rec]()
            val src = new Src(df, in, in.stream.arrangeBy(identity))
            live += df; sources += src
            views += View(s"source at $when", src.arr, src, eng.epoch, Set(df))

          case Send(i, ups) =>
            pick(sources, i).foreach { s =>
              val cur = mutable.HashMap.from(s.now)
              s.pending.foreach { case (r, c) => add(cur, r, c) }
              for ((k, v, insert) <- ups) {
                val rec = if (insert) Some((k.toLong, v)) else pick(cur.keys.toVector.sorted, k * 8 + v)
                rec.foreach { r =>
                  val c = if (insert) 1L else -1L
                  add(cur, r, c); s.pending += ((r, c)); s.in.send(Seq((r, c)))
                }
              }
            }

          case Join(i, j) =>
            for (a <- pick(views, i); b <- pick(views, j)) {
              val joined = a.v.join(b.v)((k, v, w) => (k, v, w))
              reader(joined.dataflow, a, b)
              val acc = accumulate(joined, naiveJoin(content(a), content(b)))
              outs += Out(s"join at $when", a.needs ++ b.needs, () => acc.toMap, () => naiveJoin(content(a), content(b)))
            }

          case Import(i, j) =>
            for (v <- pick(views, i); df <- pick(live, j)) views += importView(v, df, when)

          case Copy(i, j) =>
            for (v <- pick(views, i); df <- pick(live, j)) {
              reader(df, v)
              val copy = v.v.copyInto(df)
              views += View(s"copy at $when", copy, v.src, eng.epoch + 1L, v.needs + df)
            }

          case Reduce(i, j, kind) =>
            for (v <- pick(views, i); df <- pick(live, j)) {
              val imp = importView(v, df, when)
              views += imp
              val got: () => Map[_, Long] = kind match {
                case 0 => val r = imp.v.count; () => sumByDatum(r.snapshot().map(t => ((t._1, t._2), t._3)))
                case 1 => val r = imp.v.distinct; () => sumByDatum(r.snapshot().map(t => ((t._1, t._2.toLong), t._3)))
                case _ => val r = imp.v.reduceMin; () => sumByDatum(r.snapshot().map(t => ((t._1, t._2.toLong), t._3)))
              }
              outs += Out(s"reduce $kind at $when", imp.needs, got, () => naiveReduce(kind, content(imp)))
            }

          case Changes(i) =>
            for (v <- pick(views, i)) {
              val acc = accumulate(v.v.changes, content(v))
              outs += Out(s"changes at $when", v.needs, () => acc.toMap, () => content(v))
            }

          case Retire(i) =>
            pick(live, i).foreach(retire)

          case Step() =>
            applyPending()
            eng.step()
            check(when)

          case Loop(i, seeds, imported) =>
            pick(views, i).foreach { v =>
              val df      = eng.newDataflow()
              val edges   = if (imported) importView(v, df, when) else v
              val candIn  = df.newInput[Long]()
              val reached = candIn.stream.arrangeBy(n => (n, ())).distinct
              val next    = reached.join(edges.v)((_, _, dst) => dst.toLong)
              applyPending()
              FeedbackLoop.run(eng, candIn, next, seeds.map(s => (s.toLong, 1L)))
              val adj   = content(edges).keys.groupMap(_._1)(_._2.toLong)
              var reach = seeds.map(_.toLong).toSet
              var front = reach
              while (front.nonEmpty) { front = front.flatMap(adj.getOrElse(_, Nil)) -- reach; reach ++= front }
              assert(reached.snapshot().map(t => (t._1, t._3)).toSet == reach.map((_, 1L)), s"$when: reach")
              check(when)
              df.retire()
            }
        }
      }
    } finally eng.close()
  }

  for (workers <- Seq(1, 2, 4))
    test(s"random programs equal naive recomputation after every step (workers=$workers)") {
      val params = Test.Parameters.default.withMinSuccessfulTests(250).withInitialSeed(Seed(1301L + workers))
      val result = Test.check(params, Prop.forAll(genProgram) { p => run(p, workers); true })
      assert(result.passed, Pretty.pretty(result, Pretty.Params(1)))
    }

  test("a join and imports across dataflows created around a retire run after every producer") {
    for (workers <- Seq(1, 2, 4)) {
      val eng = new Engine(workers)
      try {
        def source(): (Dataflow, Input[Rec], Arranged[Long, Int]) = {
          val df = eng.newDataflow()
          val in = df.newInput[Rec]()
          (df, in, in.stream.arrangeBy(identity))
        }
        val (a, _, _)      = source()
        val (b, inB, arrB) = source()
        a.retire()
        val (c, inC, arrC) = source()
        val joined = arrB.join(arrC)((k, v, w) => (k, v, w))
        val countB = arrB.importInto(c).count
        val countC = arrC.importInto(b).count
        val upsB   = Seq(((1L, 1), 1L), ((2L, 2), 1L))
        val upsC   = Seq(((1L, 5), 1L), ((2L, 6), 2L))
        inB.send(upsB); inC.send(upsC)
        eng.step()
        assert(sumByDatum(joined.currentDelta) == naiveJoin(upsB.toMap, upsC.toMap), s"workers=$workers")
        assert(countB.snapshot().toSet == Set((1L, 1L, 1L), (2L, 1L, 1L)), s"workers=$workers")
        assert(countC.snapshot().toSet == Set((1L, 1L, 1L), (2L, 2L, 1L)), s"workers=$workers")
      } finally eng.close()
    }
  }
}

object EngineRefereeSpec {

  type Rec     = (Long, Int)
  type MSet[D] = mutable.HashMap[D, Long]

  // ------------------------------------------------------------- programs

  sealed trait Cmd
  /** A new dataflow holding one input and its arrangement. */
  final case class Install() extends Cmd
  /** Updates to a source: an insert of `(k, v)`, or a retraction of a record it holds. */
  final case class Send(src: Int, ups: List[(Int, Int, Boolean)]) extends Cmd
  final case class Join(a: Int, b: Int) extends Cmd
  final case class Import(view: Int, into: Int) extends Cmd
  final case class Copy(view: Int, into: Int) extends Cmd
  /** Import a view into a dataflow and reduce it there (0 count, 1 distinct, 2 min). */
  final case class Reduce(view: Int, into: Int, kind: Int) extends Cmd
  final case class Changes(view: Int) extends Cmd
  final case class Retire(df: Int) extends Cmd
  final case class Step() extends Cmd
  /** Reach from `seeds` over a view's `(k, v)` edges in a new dataflow, then retire it. */
  final case class Loop(view: Int, seeds: List[Int], imported: Boolean) extends Cmd

  val ix = Gen.choose(0, 1000)

  val genCmd: Gen[Cmd] = Gen.frequency(
    3 -> Gen.const(Install()),
    6 -> (for {
      s  <- ix
      n  <- Gen.choose(1, 6)
      us <- Gen.listOfN(n, Gen.zip(Gen.choose(0, 7), Gen.choose(0, 7), Gen.frequency(3 -> true, 2 -> false)))
    } yield Send(s, us)),
    3 -> Gen.zip(ix, ix).map(Join.tupled),
    2 -> Gen.zip(ix, ix).map(Import.tupled),
    2 -> Gen.zip(ix, ix).map(Copy.tupled),
    2 -> Gen.zip(ix, ix, Gen.choose(0, 2)).map(Reduce.tupled),
    1 -> ix.map(Changes),
    2 -> ix.map(Retire),
    5 -> Gen.const(Step()),
    1 -> Gen.zip(ix, Gen.nonEmptyListOf(Gen.choose(0, 7)), Gen.oneOf(false, true)).map(Loop.tupled),
  )

  val genProgram: Gen[List[Cmd]] =
    Gen.choose(1, 30).flatMap(n => Gen.listOfN(n, genCmd)).map(Install() :: _)

  // ---------------------------------------------------------------- model

  final class Src(val df: Dataflow, val in: Input[Rec], val arr: Arranged[Long, Int]) {
    val now     = new MSet[Rec]
    val pending = mutable.ArrayBuffer.empty[(Rec, Long)]
  }

  /** A readable arrangement over `src`'s collection; empty before `installAt`.
    * `needs` are the dataflows it reads through.
    */
  final case class View(name: String, v: ArrangedView[Long, Int], src: Src, installAt: Long, needs: Set[Dataflow])

  final case class Out(name: String, needs: Set[Dataflow], got: () => Map[_, Long], want: () => Map[_, Long])
}
