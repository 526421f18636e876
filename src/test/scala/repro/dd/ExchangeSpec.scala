package repro.dd

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{BatchGraph, GraphGen}
import scala.util.Random

/** The exchange (`arrangeBy`'s partitioning and `FeedbackLoop`'s
  * consolidation) must not depend on the worker count: the same input gives
  * the same arrangements, results and iteration counts at 1, 2 and 4 workers.
  * Inputs are large enough for the exchange to split them across workers.
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
}
