package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.dd.Engine
import scala.collection.mutable

/** Interactive graph queries vs. naive evaluation, in shared and unshared
  * modes, across argument changes and graph updates.
  */
class InteractiveGraphSpec extends AnyFunSuite {

  private val n = 80
  private def nodes: Seq[(Long, Long)] = (0 until n).map(i => (i.toLong, i.toLong * 7L))

  private def naiveTwoHop(edges: Set[(Long, Long)], v: Long): Set[(Long, Long)] =
    for {
      (s, m) <- edges if s == v
      (m2, d) <- edges if m2 == m
    } yield (v, d)

  private def naiveShortest(edges: Set[(Long, Long)], s: Long, t: Long): Option[Long] = {
    val adj = edges.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    var frontier = Set(s)
    (1L to 4L).find { _ =>
      frontier = frontier.flatMap(u => adj.getOrElse(u, Set.empty[Long]))
      frontier.contains(t)
    }
  }

  private def naivePaths(edges: Set[(Long, Long)], args: Iterable[(Long, Long)]): Map[(Long, Long), Long] =
    args.flatMap { case (s, t) => naiveShortest(edges, s, t).map(l => ((s, t), l)) }.toMap

  for (shared <- Seq(true, false)) {
    test(s"all four query classes match naive evaluation (shared=$shared)") {
      val edges = GraphGen.uniform(n, 240, seed = 31L).distinct
      val eng   = new Engine(2)
      val ig    = new InteractiveGraph(eng, shared)
      ig.loadGraph(nodes, edges)

      ig.lookupArgs.insertAll(Seq(3L, 9L))
      ig.oneHopArgs.insertAll(Seq(5L))
      ig.twoHopArgs.insertAll(Seq(7L))
      ig.pathArgs.insertAll(Seq((0L, 11L), (4L, 4L)))
      ig.step()

      val eset = edges.toSet
      assert(ig.lookupResults.contents == Set((3L, 21L), (9L, 63L)))
      assert(ig.oneHopResults.contents == eset.filter(_._1 == 5L).map { case (s, d) => (s, d) })
      assert(ig.twoHopResults.contents == naiveTwoHop(eset, 7L))
      assert(ig.pathSnapshot() == naivePaths(eset, Seq((0L, 11L), (4L, 4L))))
      eng.close()
    }
  }

  test("argument retraction removes exactly that query's results") {
    val edges = GraphGen.uniform(n, 240, seed = 32L).distinct
    val eng   = new Engine(2)
    val ig    = new InteractiveGraph(eng, shared = true)
    ig.loadGraph(nodes, edges)
    ig.twoHopArgs.insertAll(Seq(7L, 8L))
    ig.step()
    val eset = edges.toSet
    assert(ig.twoHopResults.contents == naiveTwoHop(eset, 7L) ++ naiveTwoHop(eset, 8L))
    ig.twoHopArgs.removeAll(Seq(7L))
    ig.step()
    assert(ig.twoHopResults.contents == naiveTwoHop(eset, 8L))
    eng.close()
  }

  test("graph updates revise standing query results incrementally") {
    val edges = GraphGen.uniform(n, 200, seed = 33L).distinct
    val eng   = new Engine(2)
    val ig    = new InteractiveGraph(eng, shared = true)
    ig.loadGraph(nodes, edges)
    ig.oneHopArgs.insertAll(Seq(2L))
    ig.twoHopArgs.insertAll(Seq(2L))
    ig.step()
    val adds    = Seq((2L, 70L), (70L, 71L))
    val removes = edges.toSet.filter(_._1 == 2L).take(1).toSeq
    ig.updateEdges(adds, removes)
    ig.step()
    val eset = edges.toSet ++ adds -- removes
    assert(ig.oneHopResults.contents == eset.filter(_._1 == 2L))
    assert(ig.twoHopResults.contents == naiveTwoHop(eset, 2L))
    eng.close()
  }

  test("unshared mode duplicates edge state; shared mode does not") {
    val edges = GraphGen.uniform(n, 240, seed = 34L).distinct
    val engS = new Engine(1); val engU = new Engine(1)
    val igS = new InteractiveGraph(engS, shared = true)
    val igU = new InteractiveGraph(engU, shared = false)
    igS.loadGraph(nodes, edges); igU.loadGraph(nodes, edges)
    engS.step(); engU.step()
    assert(igU.memoryTuples > 2 * igS.memoryTuples,
      s"unshared=${igU.memoryTuples} shared=${igS.memoryTuples}")
    engS.close(); engU.close()
  }

  for (workers <- Seq(1, 4); shared <- Seq(true, false)) {
    test(s"4-path follows edge churn and argument swaps (workers=$workers, shared=$shared)") {
      val rng   = new scala.util.Random(35L)
      val edges = mutable.ArrayBuffer.from(GraphGen.uniform(n, 160, seed = 36L)) // a multiset
      val eng   = new Engine(workers)
      val ig    = new InteractiveGraph(eng, shared)
      ig.loadGraph(nodes, edges)

      // Arguments aim in turn at a random node and at a node that walks from
      // `s` reach in exactly 1, 2, 3 and 4 hops.
      def node(): Long = rng.nextInt(n).toLong
      var made = 0
      def freshArg(): (Long, Long) = {
        val s     = node()
        var reach = Set(s)
        for (_ <- 1 to made % 5) reach = reach.flatMap(u => edges.collect { case (`u`, d) => d })
        made += 1
        (s, if (made % 5 != 1 && reach.nonEmpty) reach.toSeq(rng.nextInt(reach.size)) else node())
      }
      val args = mutable.LinkedHashSet.empty[(Long, Long)]
      while (args.size < 12) args += freshArg()
      ig.pathArgs.insertAll(args)
      ig.step()
      val seen = mutable.Set.empty[Option[Long]]
      def check(): Unit = {
        val expected = naivePaths(edges.toSet, args)
        assert(ig.pathSnapshot() == expected)
        seen ++= args.iterator.map(expected.get)
      }
      check()

      for (_ <- 1 to 8) {
        // Adds include a second copy of a present edge; removes take one copy.
        val adds    = Seq.fill(5)((node(), node())).filter(e => e._1 != e._2) :+ edges(rng.nextInt(edges.length))
        val removes = Seq.fill(5)(edges.remove(rng.nextInt(edges.length)))
        edges ++= adds
        ig.updateEdges(adds, removes)
        val gone = args.toSeq.take(3)
        args --= gone
        while (args.size < 12) args += freshArg()
        ig.pathArgs.removeAll(gone)
        ig.pathArgs.insertAll(args.toSeq.takeRight(3))
        ig.step()
        check()
      }
      assert(seen == Set(Some(1L), Some(2L), Some(3L), Some(4L), None), "every outcome exercised")
      eng.close()
    }

    test(s"4-path answers lengthen or vanish when their only witness edge goes (workers=$workers, shared=$shared)") {
      // 0 -> 4 only by a walk of length 4; 5 -> 9 by lengths 3 and 4.
      val edges = Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (1L, 0L), (5L, 6L), (6L, 7L), (7L, 9L), (7L, 8L), (8L, 9L))
      val eng   = new Engine(workers)
      val ig    = new InteractiveGraph(eng, shared)
      ig.loadGraph(nodes, edges)
      ig.pathArgs.insertAll(Seq((0L, 4L), (5L, 9L)))
      ig.step()
      assert(ig.pathSnapshot() == Map((0L, 4L) -> 4L, (5L, 9L) -> 3L))

      def epoch(adds: Seq[(Long, Long)], removes: Seq[(Long, Long)], expected: Map[(Long, Long), Long]): Unit = {
        ig.updateEdges(adds, removes)
        ig.step()
        assert(ig.pathSnapshot() == expected)
      }
      epoch(Seq((2L, 3L)), Nil, Map((0L, 4L) -> 4L, (5L, 9L) -> 3L))       // a second copy of a witness edge
      epoch(Nil, Seq((2L, 3L), (7L, 9L)), Map((0L, 4L) -> 4L, (5L, 9L) -> 4L))
      epoch(Nil, Seq((2L, 3L)), Map((5L, 9L) -> 4L))                       // the last copy goes
      epoch(Nil, Seq((8L, 9L)), Map.empty)
      epoch(Seq((2L, 3L), (5L, 9L)), Nil, Map((0L, 4L) -> 4L, (5L, 9L) -> 1L))
      eng.close()
    }
  }
}
