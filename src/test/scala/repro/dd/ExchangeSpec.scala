package repro.dd

import org.scalatest.funsuite.AnyFunSuite
import repro.datalog.Datalog
import repro.graph.{BatchGraph, GraphGen}
import scala.util.Random

/** The exchange (`arrangeBy`'s partitioning, which also consolidates the
  * updates `FeedbackLoop` feeds back) must not depend on the worker count:
  * the same input gives the same arrangements, results and iteration counts
  * at 1, 2 and 4 workers. Inputs are large enough for the exchange to split
  * them across workers.
  */
class ExchangeSpec extends AnyFunSuite {

  private val workerCounts = Seq(1, 2, 4)

  private def withEngine[A](workers: Int)(f: Engine => A): A = {
    val eng = new Engine(workers)
    try f(eng) finally eng.close()
  }

  test("arrangeBy snapshots do not depend on the worker count, with duplicate and cancelling updates") {
    val rng = new Random(43)
    val epochs = Seq.fill(6) {
      val ups = Seq.fill(12000)(((rng.nextInt(500).toLong, rng.nextInt(8)), if (rng.nextInt(3) == 0) -1L else 1L))
      // Every epoch also inserts and retracts the same records.
      val cancelled = ups.take(1000).map { case (d, _) => (d, 1L) }
      ups ++ cancelled ++ cancelled.map { case (d, _) => (d, -1L) }
    }
    val naive = scala.collection.mutable.HashMap.empty[(Long, Int), Long]
    val expected = epochs.map { ups =>
      ups.foreach { case (d, c) => naive.updateWith(d)(p => Some(p.getOrElse(0L) + c)) }
      naive.iterator.filter(_._2 != 0L).map { case ((k, v), c) => (k, v, c) }.toVector.sortBy(u => (u._1, u._2))
    }
    for (w <- workerCounts) withEngine(w) { eng =>
      val in  = eng.newDataflow().newInput[(Long, Int)]()
      val arr = in.stream.arrangeBy(identity)
      epochs.zip(expected).zipWithIndex.foreach { case ((ups, exp), e) =>
        in.send(ups)
        eng.step()
        assert(arr.snapshot().sortBy(u => (u._1, u._2)) == exp, s"workers=$w epoch=$e")
      }
    }
  }

  test("reach, wcc and FeedbackLoop iteration counts do not depend on the worker count") {
    val edges = GraphGen.uniform(3000, 9000, seed = 5L)
    val sym   = GraphGen.symmetrize(edges)
    val nodes = (0L until 3000L)
    val runs = workerCounts.map { w =>
      withEngine(w) { eng =>
        val fwd   = BatchGraph.indexForward(eng, edges)
        val symIx = BatchGraph.indexForward(eng, sym)
        val reach = BatchGraph.reach(eng, fwd, 0L)
        val wcc   = BatchGraph.wcc(eng, symIx, nodes)
        // The wcc loop again, to observe its iteration count.
        val df     = eng.newDataflow()
        val candIn = df.newInput[(Long, Long)]()
        val best   = candIn.stream.arrangeBy(identity).reduceMin
        val next   = best.join(symIx)((_, label, dst) => (dst, label))
        val iters  = FeedbackLoop.run(eng, candIn, next, nodes.map(n => ((n, n), 1L)))
        (reach, wcc, iters)
      }
    }
    assert(runs.forall(_ == runs.head), runs.map(r => (r._1.size, r._2.values.toSet.size, r._3)))
    assert(runs.head._3 > 1)
  }

  test("reach, sssp, wcc, tcFull and sgFull take their pinned iteration counts at every worker count") {
    val edges = GraphGen.uniform(2000, 6000, seed = 7L)
    val gnp   = GraphGen.gnp(200, 0.01, seed = 7L)
    for (w <- workerCounts) withEngine(w) { eng =>
      def steps(f: => Any): Long = { val before = eng.epoch; f; eng.epoch - before }
      val fwd  = BatchGraph.indexForward(eng, edges)
      val wIdx = BatchGraph.indexWeighted(eng, GraphGen.weighted(edges, seed = 7L))
      val sym  = BatchGraph.indexForward(eng, GraphGen.symmetrize(edges))
      val gIdx = BatchGraph.indexForward(eng, gnp)
      val tIdx = BatchGraph.indexForward(eng, GraphGen.tree(2, 6))
      val got = Map(
        "reach"   -> steps(BatchGraph.reach(eng, fwd, 0L)),
        "sssp"    -> steps(BatchGraph.sssp(eng, wIdx, 0L)),
        "wcc"     -> steps(BatchGraph.wcc(eng, sym, 0L until 2000L)),
        "tc_full" -> steps(Datalog.tcFull(eng, gIdx, gnp)),
        "sg_full" -> steps(Datalog.sgFull(eng, tIdx)),
      )
      // Loop feedback is consolidated only by the loop variable's arrangeBy;
      // that must not add or drop iterations.
      assert(got == Map("reach" -> 14L, "sssp" -> 18L, "wcc" -> 9L, "tc_full" -> 20L, "sg_full" -> 7L), s"workers=$w")
    }
  }
}
