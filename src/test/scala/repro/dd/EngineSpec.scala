package repro.dd

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{BatchGraph, GraphGen}
import scala.collection.mutable
import scala.util.Random

/** End-to-end correctness of the epoch-synchronous engine and its
  * arrangement-aware operators against naive multiset references, including
  * the sharing paths (direct read, post-hoc import, private copy).
  */
class EngineSpec extends AnyFunSuite {

  private type MSet[D] = mutable.HashMap[D, Long]

  private def add[D](m: MSet[D], d: D, c: Long): Unit =
    m.updateWith(d)(p => Some(p.getOrElse(0L) + c).filter(_ != 0L))

  private def addAll[D](m: MSet[D], ups: Iterable[(D, Long)]): Unit =
    ups.foreach { case (d, c) => add(m, d, c) }

  private def naiveJoin(a: MSet[(Long, Int)], b: MSet[(Long, Int)]): Map[(Long, Int, Int), Long] = {
    val out = new MSet[(Long, Int, Int)]
    for (((k1, v), c1) <- a; ((k2, w), c2) <- b if k1 == k2) add(out, (k1, v, w), c1 * c2)
    out.toMap
  }

  /** The multiset a delta denotes: diffs summed per datum, zeros dropped. */
  private def sumByDatum[D](delta: IndexedSeq[(D, Long)]): Map[D, Long] =
    delta.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0L)

  private def randomUpdates(rng: Random, n: Int): Seq[((Long, Int), Long)] =
    Seq.fill(n)(((rng.nextInt(12).toLong, rng.nextInt(4)), if (rng.nextInt(4) == 0) -1L else 1L))

  test("stateless operators: map, filter, concat, negate") {
    val eng = new Engine(1)
    val df  = eng.newDataflow()
    val in  = df.newInput[Long]()
    val out = in.stream.map(_ * 2).filter(_ % 4 == 0).concat(in.stream.negate.map(_ => 0L))
    in.send(Seq((1L, 1L), (2L, 1L), (3L, 2L)))
    eng.step()
    assert(sumByDatum(out.currentDelta) == Map(0L -> -4L, 4L -> 1L))
    eng.close()
  }

  test("flatMap applies per-record multiplicity") {
    val eng = new Engine(1)
    val df  = eng.newDataflow()
    val in  = df.newInput[Long]()
    val out = in.stream.flatMap(x => Seq(x, x + 100L))
    in.send(Seq((1L, 2L)))
    eng.step()
    assert(sumByDatum(out.currentDelta) == Map(1L -> 2L, 101L -> 2L))
    eng.close()
  }

  test("arrange mints consolidated batches and publishes them on changes") {
    val eng = new Engine(2)
    val df  = eng.newDataflow()
    val in  = df.newInput[(Long, Int)]()
    val arr = in.stream.arrangeBy(identity)
    in.send(Seq(((1L, 7), 1L), ((1L, 7), 1L), ((2L, 9), 1L), ((3L, 1), 1L), ((3L, 1), -1L)))
    eng.step()
    assert(arr.changes.currentDelta.toSet == Set(((1L, 7), 2L), ((2L, 9), 1L)))
    assert(arr.snapshot().toSet == Set((1L, 7, 2L), (2L, 9, 1L)))
    eng.close()
  }

  test("changes first read epochs after the arrangement was built carries that epoch's delta, then each later one") {
    for (w <- Seq(1, 2)) {
      val eng = new Engine(w)
      try {
        val df1 = eng.newDataflow()
        val in  = df1.newInput[(Long, Int)]()
        val arr = in.stream.arrangeBy(identity)
        val rng = new Random(53)
        def epochOf(ups: Seq[((Long, Int), Long)]): Set[((Long, Int), Long)] =
          ups.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0L).toSet
        var last = Seq.empty[((Long, Int), Long)]
        for (_ <- 1 to 3) { last = randomUpdates(rng, 10); in.send(last); eng.step() }
        // The stream is read for the first time, after a later dataflow was made.
        eng.newDataflow()
        val ch = arr.changes
        assert(ch.dataflow eq df1)
        assert(ch.currentDelta.toSet == epochOf(last), s"workers=$w epoch 3")
        for (e <- 4 to 6) {
          last = randomUpdates(rng, 10)
          in.send(last)
          eng.step()
          assert(ch.currentDelta.toSet == epochOf(last), s"workers=$w epoch $e")
        }
      } finally eng.close()
    }
  }

  for (workers <- Seq(1, 4))
    test(s"incremental join equals naive recomputation every epoch (workers=$workers)") {
      val eng = new Engine(workers)
      val df  = eng.newDataflow()
      val inA = df.newInput[(Long, Int)]()
      val inB = df.newInput[(Long, Int)]()
      val arrA = inA.stream.arrangeBy(identity)
      val arrB = inB.stream.arrangeBy(identity)
      val out  = arrA.join(arrB)((k, v, w) => (k, v, w))
      val naiveA = new MSet[(Long, Int)]; val naiveB = new MSet[(Long, Int)]
      val gotOut = new MSet[(Long, Int, Int)]
      val rng = new Random(41)
      for (_ <- 1 to 30) {
        val ua = randomUpdates(rng, 10); val ub = randomUpdates(rng, 10)
        inA.send(ua); inB.send(ub)
        addAll(naiveA, ua); addAll(naiveB, ub)
        eng.step()
        addAll(gotOut, out.currentDelta)
        assert(gotOut.toMap == naiveJoin(naiveA, naiveB), s"epoch ${eng.epoch}")
      }
      eng.close()
    }

  for (workers <- Seq(1, 4))
    test(s"count, distinct, reduceMin equal naive references (workers=$workers)") {
      val eng = new Engine(workers)
      val df  = eng.newDataflow()
      val in  = df.newInput[(Long, Int)]()
      val arr  = in.stream.arrangeBy(identity)
      val cnt  = arr.count
      val dst  = arr.distinct
      val mins = arr.reduceMin
      val naive = new MSet[(Long, Int)]
      val rng = new Random(43)
      for (_ <- 1 to 25) {
        val ups = randomUpdates(rng, 12).map { case ((k, v), c) => ((k, v), math.abs(c)) } // keep non-negative
        in.send(ups); addAll(naive, ups)
        // occasionally retract something present
        naive.headOption.foreach { case (d, _) => in.send(Seq((d, -1L))); add(naive, d, -1L) }
        eng.step()
        val byKey = naive.groupBy(_._1._1)
        val expCnt = byKey.view.mapValues(_.values.sum).filter(_._2 != 0L).toMap
        assert(cnt.snapshot().map(t => (t._1, t._2)).toMap == expCnt)
        val expDst = naive.iterator.collect { case ((k, v), c) if c > 0L => (k, v) }.toSet
        assert(dst.snapshot().map(t => (t._1, t._2)).toSet == expDst)
        val expMin = byKey.view.mapValues(_.collect { case ((_, v), c) if c > 0L => v })
          .filter(_._2.nonEmpty).mapValues(_.min).toMap
        assert(mins.snapshot().map(t => (t._1, t._2)).toMap == expMin)
      }
      eng.close()
    }

  test("post-hoc import: a late query immediately reflects all prior history") {
    val eng = new Engine(2)
    val df1 = eng.newDataflow()
    val inA = df1.newInput[(Long, Int)]()
    val inB = df1.newInput[(Long, Int)]()
    val arrA = inA.stream.arrangeBy(identity)
    val arrB = inB.stream.arrangeBy(identity)
    val naiveA = new MSet[(Long, Int)]; val naiveB = new MSet[(Long, Int)]
    val rng = new Random(47)
    for (_ <- 1 to 5) {
      val ua = randomUpdates(rng, 8); val ub = randomUpdates(rng, 8)
      inA.send(ua); inB.send(ub); addAll(naiveA, ua); addAll(naiveB, ub)
      eng.step()
    }
    // Install a new query over the shared arrangements: import A, read B directly.
    val df2  = eng.newDataflow()
    val impA = arrA.importInto(df2)
    val out2 = impA.join(arrB)((k, v, w) => (k, v, w))
    val got  = new MSet[(Long, Int, Int)]
    for (i <- 1 to 6) {
      if (i > 1) { // first step after install carries no new input
        val ua = randomUpdates(rng, 8); val ub = randomUpdates(rng, 8)
        inA.send(ua); inB.send(ub); addAll(naiveA, ua); addAll(naiveB, ub)
      }
      eng.step()
      addAll(got, out2.currentDelta)
      assert(got.toMap == naiveJoin(naiveA, naiveB), s"epoch ${eng.epoch}")
    }
    eng.close()
  }

  test("reduce over an imported arrangement performs full initial evaluation") {
    val eng = new Engine(2)
    val df1 = eng.newDataflow()
    val in  = df1.newInput[(Long, Int)]()
    val arr = in.stream.arrangeBy(identity)
    in.send(Seq(((1L, 5), 1L), ((1L, 6), 1L), ((2L, 9), 1L)))
    eng.step()
    val df2 = eng.newDataflow()
    val cnt = arr.importInto(df2).count
    eng.step()
    assert(cnt.snapshot().map(t => (t._1, t._2)).toMap == Map(1L -> 2L, 2L -> 1L))
    eng.close()
  }

  test("private copy (unshared baseline) is equivalent but duplicates state; retire frees it") {
    val eng = new Engine(2)
    val df1 = eng.newDataflow()
    val inA = df1.newInput[(Long, Int)]()
    val arrA = inA.stream.arrangeBy(identity)
    inA.send(Seq.tabulate(50)(i => ((i.toLong % 10, i), 1L)))
    eng.step()
    val base = eng.totalTuples
    assert(base == 50L)

    val df2  = eng.newDataflow()
    val copy = arrA.copyInto(df2)
    eng.step()
    assert(copy.snapshot() == arrA.snapshot())
    assert(eng.totalTuples == 2 * base, "copy duplicates the index")
    // The copy re-indexes into batches of its own; it holds none of the source's.
    def batches(a: Arranged[Long, Int]) = a.spines.iterator.flatMap(_.batches).toVector
    assert(batches(copy).forall(c => !batches(arrA).exists(_ eq c)))

    // Updates maintain both; the copy tracks the source.
    inA.send(Seq(((3L, 999), 1L)))
    eng.step()
    assert(copy.snapshot() == arrA.snapshot())
    assert(batches(copy).forall(c => !batches(arrA).exists(_ eq c)))

    df2.retire()
    assert(eng.totalTuples == base + 1L, "retiring the query frees its private state")
    eng.close()
  }

  test("import shares state: no duplication in the memory footprint") {
    val eng = new Engine(2)
    val df1 = eng.newDataflow()
    val inA = df1.newInput[(Long, Int)]()
    val arrA = inA.stream.arrangeBy(identity)
    inA.send(Seq.tabulate(50)(i => ((i.toLong % 10, i), 1L)))
    eng.step()
    val base = eng.totalTuples
    val df2 = eng.newDataflow()
    arrA.importInto(df2).join(arrA)((k, v, w) => (k, v, w))
    eng.step()
    assert(eng.totalTuples == base, "imports add no indexed state")
    eng.close()
  }

  test("each step compacts every owned trace to the new epoch: reads at it work, earlier reads fail") {
    val eng = new Engine(2)
    try {
      val df  = eng.newDataflow()
      val in  = df.newInput[(Long, Int)]()
      val arr = in.stream.arrangeBy(identity)
      val cnt = arr.count
      val rng = new Random(47)
      for (_ <- 1 to 5) {
        in.send(randomUpdates(rng, 20))
        eng.step()
        val e = eng.epoch
        assert(df.ownedSpines.length == 4 && df.ownedSpines.forall(_.compactionFrontier == e), s"epoch $e")
        for (s <- 0 until eng.workers; k <- 0L until 12L) {
          arr.accumulate(s, k, e)
          intercept[IllegalArgumentException](arr.accumulate(s, k, e - 1L))
        }
        cnt.shardSnapshot(1, e)
        intercept[IllegalArgumentException](cnt.shardSnapshot(1, e - 1L))
      }
    } finally eng.close()
  }

  test("reads through an arrangement whose dataflow was retired fail loudly; retiring a reader does not") {
    for (direct <- Seq(false, true)) {
      val eng = new Engine(2)
      try {
        val df1 = eng.newDataflow()
        val in  = df1.newInput[(Long, Int)]()
        val arr = in.stream.arrangeBy(identity)
        in.send(Seq(((1L, 10), 1L)))
        eng.step()
        // Retiring a reader leaves its source working, as before.
        val df2 = eng.newDataflow()
        arr.importInto(df2).count
        eng.step()
        df2.retire()
        in.send(Seq(((2L, 20), 1L)))
        eng.step()
        assert(arr.snapshot().toSet == Set((1L, 10, 1L), (2L, 20, 1L)))
        // A live reader of a retired source fails on the next step.
        val df3    = eng.newDataflow()
        val probes = df3.newInput[(Long, Int)]().stream.arrangeBy(identity)
        val reader = if (direct) probes.join(arr)((k, _, w) => (k, w)) else arr.importInto(df3).count.changes
        eng.step()
        df1.retire()
        val e = intercept[IllegalStateException](eng.step())
        assert(e.getMessage.contains("retired"), s"direct=$direct")
        intercept[IllegalStateException](arr.snapshot())
        assert(reader.dataflow eq df3)
      } finally eng.close()
    }
  }

  test("a reader joining an import fails on the step after the import's dataflow retires") {
    val eng = new Engine(2)
    try {
      val df1  = eng.newDataflow()
      val in1  = df1.newInput[(Long, Int)]()
      val arr1 = in1.stream.arrangeBy(identity)
      val df2  = eng.newDataflow()
      val imp  = arr1.importInto(df2)
      val df3  = eng.newDataflow()
      val in3  = df3.newInput[(Long, Int)]()
      val out  = imp.join(in3.stream.arrangeBy(identity))((k, v, w) => (k, v, w))
      assert(out.dataflow eq df3)
      in1.send(Seq(((1L, 1), 1L))); in3.send(Seq(((1L, 9), 1L)))
      eng.step()
      assert(out.currentDelta == Seq(((1L, 1, 9), 1L)))
      df2.retire()
      val e = intercept[IllegalStateException](eng.step())
      assert(e.getMessage.contains("retired"))
    } finally eng.close()
  }

  test("concat of streams of two dataflows is rejected when it is built") {
    val eng = new Engine(1)
    try {
      val a = eng.newDataflow().newInput[Long]()
      val b = eng.newDataflow().newInput[Long]()
      intercept[IllegalArgumentException](a.stream.concat(b.stream))
      intercept[IllegalArgumentException](b.stream.concat(a.stream))
    } finally eng.close()
  }

  test("a retired dataflow takes no new operators, so none of it runs again") {
    val eng = new Engine(2)
    try {
      val df1 = eng.newDataflow()
      val arr = df1.newInput[(Long, Int)]().stream.arrangeBy(identity)
      val df2 = eng.newDataflow()
      val in2 = df2.newInput[(Long, Int)]()
      df2.retire()
      intercept[IllegalStateException](df2.newInput[Long]())
      intercept[IllegalStateException](in2.stream.map(identity))
      intercept[IllegalStateException](arr.importInto(df2))
      df1.retire()
      intercept[IllegalStateException](arr.changes)
      eng.step()
    } finally eng.close()
  }

  test("FeedbackLoop reaches a fixpoint: transitive closure on a small cyclic graph") {
    val edges = Seq((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L))
    val eng = new Engine(2)
    val df  = eng.newDataflow()
    val edgeIn = df.newInput[(Long, Long)]()
    val candIn = df.newInput[(Long, Long)]() // (src, reached)
    val edgeArr = edgeIn.stream.arrangeBy { case (s, d) => (s, d) }
    // reach(s, y) <- cand; next(s, z) <- reach(s, y), edge(y, z)
    val reach = candIn.stream.arrangeBy { case (s, y) => ((s, y), ()) }.distinct
    val next  = reach.changes
      .map { case (sd, _) => (sd._2, sd._1) } // key by frontier node y
      .arrangeBy(identity)
      .join(edgeArr)((y, s, z) => (s, z))
    edgeIn.insertAll(edges)
    val iters = FeedbackLoop.run(eng, candIn, next, edges.map { case (s, d) => ((s, d), 1L) })
    val tc = reach.snapshot().map(_._1).toSet
    val expected = Set( // naive closure of the graph
      (1L, 2L), (1L, 3L), (1L, 1L), (1L, 4L),
      (2L, 3L), (2L, 1L), (2L, 2L), (2L, 4L),
      (3L, 1L), (3L, 2L), (3L, 3L), (3L, 4L))
    assert(tc == expected)
    assert(iters < 20)
    eng.close()
  }

  test("FeedbackLoop terminates when a loop's raw output cancels, and the arrangement drops the cancelled updates") {
    val edges = GraphGen.uniform(300, 900, seed = 11L)
    val adj   = edges.groupMap(_._1)(_._2)
    // Naive BFS from node 0: the reached set and the number of levels.
    val seen     = mutable.Set(0L)
    var frontier = Set(0L)
    var levels   = 0
    while (frontier.nonEmpty) { levels += 1; frontier = frontier.flatMap(adj.getOrElse(_, Array.empty[Long])).filter(seen.add) }
    val naive = seen.toSet
    for (w <- Seq(1, 2)) {
      val eng = new Engine(w)
      try {
        val idx     = BatchGraph.indexForward(eng, edges)
        val df      = eng.newDataflow()
        val candIn  = df.newInput[Long]()
        val reached = candIn.stream.arrangeBy(n => (n, ())).distinct
        val next    = reached.join(idx)((_, _, dst) => dst)
        // Each iteration also emits every newly reached node and its negation.
        val fresh  = reached.changes.map(_._1)
        val output = next.concat(fresh).concat(fresh.negate).concat(next).concat(next.negate)
        val iters  = FeedbackLoop.run(eng, candIn, output, Seq((0L, 1L)))
        assert(reached.snapshot().map(_._1).toSet == naive, s"workers=$w")
        // One iteration per level, plus the one whose output is empty.
        assert(iters == levels + 1, s"workers=$w")
        // A seed that cancels itself reaches nothing and stops after one iteration.
        assert(FeedbackLoop.run(eng, candIn, output, Seq((0L, 1L), (0L, -1L))) == 1)
        assert(reached.snapshot().map(_._1).toSet == naive)
      } finally eng.close()
    }
  }

  test("FeedbackLoop fails loudly when maxIters ends it with updates still pending") {
    val eng = new Engine(2)
    try {
      val df     = eng.newDataflow()
      val candIn = df.newInput[Long]()
      // A loop that never converges: every n derives n + 1.
      val next = candIn.stream.map(_ + 1L)
      val e = intercept[IllegalStateException](FeedbackLoop.run(eng, candIn, next, Seq((0L, 1L)), maxIters = 5))
      assert(e.getMessage.contains("5 iterations"))
    } finally eng.close()
  }
}
