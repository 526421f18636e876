package repro.datalog

import org.scalatest.funsuite.AnyFunSuite
import repro.dd.Engine
import repro.graph.{BatchGraph, GraphGen}

/** Datalog evaluation (full and magic-set seeded) vs. naive references, on
  * the paper's three graph families (tree, grid, random).
  */
class DatalogSpec extends AnyFunSuite {

  private val graphs: Seq[(String, Array[(Long, Long)])] = Seq(
    "tree" -> GraphGen.tree(2, 4),
    "grid" -> GraphGen.grid(4, 4),
    "gnp"  -> GraphGen.gnp(25, 0.06, seed = 11L),
    "uniform" -> GraphGen.uniform(30, 45, seed = 12L),
  )

  for ((name, edges) <- graphs) {
    test(s"tcFull matches the naive closure on $name") {
      val eng = new Engine(2)
      val arr = BatchGraph.indexForward(eng, edges)
      val got = Datalog.tcFull(eng, arr, edges)
      assert(got == Datalog.Reference.tc(edges).size.toLong)
      eng.close()
    }

    test(s"tcFromSeed / tcToSeed match per-seed slices of the closure on $name") {
      val eng = new Engine(2)
      val fwd = BatchGraph.indexForward(eng, edges)
      val rev = BatchGraph.index(eng, edges)(_.swap)
      val ref = Datalog.Reference.tc(edges)
      val seeds = edges.map(_._1).distinct.take(5)
      for (x <- seeds) {
        // The seeded dataflow computes {x} ∪ {y : x ->+ y}.
        val expFwd = (ref.filter(_._1 == x).map(_._2).toSet + x).size.toLong
        val expRev = (ref.filter(_._2 == x).map(_._1).toSet + x).size.toLong
        assert(BatchGraph.reach(eng, fwd, x).size.toLong == expFwd, s"tc($x,?)")
        assert(BatchGraph.reach(eng, rev, x).size.toLong == expRev, s"tc(?,$x)")
      }
      eng.close()
    }

    test(s"sgFull matches the naive same-generation fixpoint on $name") {
      val eng = new Engine(2)
      val fwd = BatchGraph.indexForward(eng, edges)
      val got = Datalog.sgFull(eng, fwd)
      assert(got == Datalog.Reference.sg(edges).size.toLong)
      eng.close()
    }

    test(s"sgFromSeed matches the per-seed slice on $name") {
      val eng = new Engine(2)
      val fwd = BatchGraph.indexForward(eng, edges)
      val rev = BatchGraph.index(eng, edges)(_.swap)
      val ref = Datalog.Reference.sg(edges)
      val seeds = edges.map(_._2).distinct.take(4)
      for (x <- seeds)
        assert(Datalog.sgFromSeed(eng, fwd, rev, x) == ref.count(_._1 == x).toLong, s"sg($x,?)")
      eng.close()
    }
  }

  test("repeated seeded queries reuse the shared arrangement without corrupting it") {
    val edges = GraphGen.uniform(40, 80, seed = 13L)
    val eng   = new Engine(2)
    val fwd   = BatchGraph.indexForward(eng, edges)
    val ref   = Datalog.Reference.tc(edges)
    val first  = BatchGraph.reach(eng, fwd, 0L).size.toLong
    val second = BatchGraph.reach(eng, fwd, 0L).size.toLong
    assert(first == second && first == ref.count(_._1 == 0L).toLong)
    eng.close()
  }
}
