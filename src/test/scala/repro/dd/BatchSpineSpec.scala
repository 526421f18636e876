package repro.dd

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

/** Invariants of immutable batches and the amortized-merging, compacting
  * collection trace (spine), checked against naive accumulation.
  */
class BatchSpineSpec extends AnyFunSuite {

  private def randomUpdates(rng: Random, n: Int, epoch: Long): Seq[(Long, String, Long, Long)] =
    Seq.fill(n)((rng.nextInt(20).toLong, "v" + rng.nextInt(3), epoch, if (rng.nextBoolean()) 1L else -1L))

  test("batch construction sorts by (key, value, time) and consolidates duplicates") {
    val raw = Seq((2L, "b", 1L, 1L), (1L, "a", 1L, 1L), (2L, "b", 1L, 2L), (2L, "a", 1L, 1L), (1L, "a", 1L, -1L))
    val b   = Batch.fromUpdates(Frontier(1L), Frontier(2L), raw)
    assert(b.updates == Vector((2L, "a", 1L, 1L), (2L, "b", 1L, 3L)))
  }

  test("batch drops zero-diff rows entirely") {
    val b = Batch.fromUpdates(Frontier(0L), Frontier(1L), Seq((1L, "x", 0L, 5L), (1L, "x", 0L, -5L)))
    assert(b.isEmpty)
  }

  test("find and updates answer point lookups") {
    val b = Batch.fromUpdates(Frontier(0L), Frontier(1L),
      Seq((1L, "a", 0L, 1L), (2L, "a", 0L, 1L), (2L, "b", 0L, 2L), (5L, "z", 0L, 1L)))
    assert(b.updates.collect { case (2L, v, t, d) => (v, t, d) } == Vector(("a", 0L, 1L), ("b", 0L, 2L)))
    assert(b.find(3L) == -1)
    val i = b.find(2L)
    assert((b.valOffs(b.keyOffs(i)), b.valOffs(b.keyOffs(i + 1))) == ((1, 3)))
  }

  test("the key column holds each distinct key once, in order") {
    val b = Batch.fromUpdates(Frontier(0L), Frontier(1L),
      Seq((3L, "a", 0L, 1L), (1L, "a", 0L, 1L), (3L, "b", 0L, 1L)))
    assert(b.updates.map(_._1).distinct == Seq(1L, 3L))
    assert((0 until b.keyCount).map(b.key) == Seq(1L, 3L))
    assert(b.find(1L) == 0 && b.find(3L) == 1)
  }

  test("spine accumulate equals naive accumulation over random insert sequences") {
    for (fuel <- Seq(1L, 8L, 1000000L)) {
      val rng   = new Random(23)
      val spine = new Spine[Long, String, Long](fuel)
      val naive = mutable.HashMap.empty[(Long, String), Long]
      for (epoch <- 1L to 40L) {
        val ups = randomUpdates(rng, 30, epoch)
        ups.foreach { case (k, v, _, d) =>
          naive.updateWith((k, v))(p => Some(p.getOrElse(0L) + d))
        }
        spine.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
        for (k <- 0L until 20L) {
          val got = spine.accumulate(k, epoch).toMap
          val exp = naive.collect { case ((`k`, v), d) if d != 0L => (v, d) }.toMap
          assert(got == exp, s"fuel=$fuel epoch=$epoch key=$k")
        }
      }
    }
  }

  test("spine keeps few layers: eager merging is logarithmic, lazy lags but stays bounded") {
    val rng   = new Random(29)
    val eager = new Spine[Long, String, Long](1000000L)
    val lazee = new Spine[Long, String, Long](8L)
    for (epoch <- 1L to 500L) {
      val ups = randomUpdates(rng, 20, epoch)
      eager.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
      lazee.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
    }
    assert(eager.layerCount <= 16, s"eager layers=${eager.layerCount} after 500 inserts")
    assert(lazee.layerCount <= 40, s"lazy layers=${lazee.layerCount} after 500 inserts")
  }

  test("compaction preserves accumulations at times beyond the frontier and shrinks the trace") {
    val rng    = new Random(31)
    val spine  = new Spine[Long, String, Long](8L)
    val compat = new Spine[Long, String, Long](8L)
    val all    = mutable.ArrayBuffer.empty[(Long, String, Long, Long)]
    for (epoch <- 1L to 60L) {
      val ups = randomUpdates(rng, 40, epoch)
      all ++= ups
      spine.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
      compat.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
      compat.advanceCompaction(Frontier(epoch))
    }
    spine.compactAll(); compat.compactAll()
    // Both agree on the final accumulation (time 60 is beyond every frontier used).
    for (k <- 0L until 20L)
      assert(spine.accumulate(k, 60L).toMap == compat.accumulate(k, 60L).toMap)
    // The compacted spine coalesced historical times: it cannot be larger.
    assert(compat.tupleCount <= spine.tupleCount)
    // With all diffs folded to the frontier, at most one row per (key, value).
    assert(compat.tupleCount <= 20L * 3L)
  }

  test("compaction refuses to regress") {
    val spine = new Spine[Long, String, Long]()
    spine.advanceCompaction(Frontier(10L))
    spine.advanceCompaction(Frontier(5L)) // ignored
    assert(spine.compactionFrontier == 10L)
  }

  test("snapshot returns the consolidated collection sorted by (key, value)") {
    val spine = new Spine[Long, String, Long]()
    spine.insert(Batch.fromUpdates(Frontier(1L), Frontier(2L),
      Seq((2L, "b", 1L, 1L), (1L, "a", 1L, 2L))))
    spine.insert(Batch.fromUpdates(Frontier(2L), Frontier(3L),
      Seq((1L, "a", 2L, -2L), (3L, "c", 2L, 1L))))
    assert(spine.snapshot(2L).deltaRows == Vector((2L, "b", 1L), (3L, "c", 1L)))
    assert(spine.snapshot(1L).deltaRows == Vector((1L, "a", 2L), (2L, "b", 1L)))
  }

  test("eager vs lazy fuel reach the same final state (different merge schedules)") {
    val rng1 = new Random(37); val rng2 = new Random(37)
    val eager = new Spine[Long, String, Long](1000000L)
    val lazee = new Spine[Long, String, Long](1L)
    for (epoch <- 1L to 120L) {
      eager.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), randomUpdates(rng1, 25, epoch)))
      lazee.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), randomUpdates(rng2, 25, epoch)))
    }
    assert(eager.layerCount <= lazee.layerCount)
    for (k <- 0L until 20L)
      assert(eager.accumulate(k, 120L) == lazee.accumulate(k, 120L))
  }

  test("reads before the compaction frontier fail loudly") {
    val spine = new Spine[Long, String, Long]()
    spine.insert(Batch.fromUpdates(Frontier(1L), Frontier(2L), Seq((1L, "a", 1L, 1L))))
    spine.insert(Batch.fromUpdates(Frontier(2L), Frontier(3L), Seq((1L, "b", 2L, 1L))))
    spine.advanceCompaction(Frontier(2L))
    assert(spine.accumulate(1L, 2L) == Vector(("a", 1L), ("b", 1L)))
    assert(spine.snapshot(3L).deltaRows == Vector((1L, "a", 1L), (1L, "b", 1L)))
    intercept[IllegalArgumentException](spine.accumulate(1L, 1L))
    intercept[IllegalArgumentException](spine.snapshot(1L))
  }

  test("a compacted spine holds the updates grouped by their Appendix-A representatives") {
    // rep_F(t) = max(t, f) for a one-epoch frontier; the spine's merges must
    // agree with the lattice model's `Frontier.rep`, which LatticeSpec checks.
    for (fuel <- Seq(0L, 1L, 8L); f <- Seq(1L, 7L, 20L, 31L)) {
      val rng   = new Random(43 + fuel)
      val spine = new Spine[Long, String, Long](fuel)
      val all   = mutable.ArrayBuffer.empty[(Long, String, Long, Long)]
      for (epoch <- 1L to 30L) {
        val ups = randomUpdates(rng, 30, epoch)
        all ++= ups
        spine.insert(Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1), ups))
      }
      // Every layer is merged again after the frontier moves, so every time
      // passes through a merge at the final frontier.
      assert(spine.layerCount >= 3, s"fuel=$fuel: ${spine.layerCount} layers")
      val frontier = Frontier(f)
      spine.advanceCompaction(frontier)
      spine.compactAll()
      val expected = all
        .groupMapReduce { case (k, v, t, _) => (k, v, frontier.rep(t)) }(_._4)(_ + _)
        .collect { case ((k, v, t), d) if d != 0L => (k, v, t, d) }
        .toVector.sortBy(u => (u._1, u._2, u._3))
      assert(spine.batches.length == 1, s"fuel=$fuel f=$f")
      assert(spine.batches.head.updates == expected, s"fuel=$fuel f=$f")
    }
  }

  /** The columnar invariants of one batch: keys strictly increasing, values
    * strictly increasing within a key, times strictly increasing within a
    * (key, value), no empty key or value, and no zero diff.
    */
  private def assertLayout[K, V](b: Batch[K, V], clue: String): Unit = {
    assert(b.keyOffs.length == b.keyCount + 1 && b.keyOffs(0) == 0 && b.keyOffs(b.keyCount) == b.valueCount, clue)
    assert(b.valOffs.length == b.valueCount + 1 && b.valOffs(0) == 0 && b.valOffs(b.valueCount) == b.size, clue)
    for (i <- 1 until b.keyCount) assert(b.ordK.lt(b.key(i - 1), b.key(i)), s"$clue: keys at $i")
    for (i <- 0 until b.keyCount) {
      assert(b.keyOffs(i) < b.keyOffs(i + 1), s"$clue: key $i has no value")
      for (j <- b.keyOffs(i) + 1 until b.keyOffs(i + 1))
        assert(b.ordV.lt(b.value(j - 1), b.value(j)), s"$clue: values at $j")
    }
    for (j <- 0 until b.valueCount) {
      assert(b.valOffs(j) < b.valOffs(j + 1), s"$clue: value $j has no time")
      for (r <- b.valOffs(j) + 1 until b.valOffs(j + 1))
        assert(b.times(r - 1) < b.times(r), s"$clue: times at $r")
    }
    assert(b.diffs.forall(_ != 0L), s"$clue: zero diff")
  }

  /** The snapshot batch at `asOf`: a valid layout, every time `asOf`, bounds
    * `[asOf, asOf + 1)`, and rows equal to the naive accumulation. Returns
    * which way the spine read it: from several layers (or none), or from
    * one layer whose values all have nonzero sums or not.
    */
  private def checkSnapshot(spine: Spine[Long, String, Long], asOf: Long, expected: Seq[(Long, String, Long)], clue: String): String = {
    val snap = spine.snapshot(asOf)
    assertLayout(snap, s"$clue snapshot")
    assert(snap.times.forall(_ == asOf), clue)
    assert(snap.lower == Frontier(asOf) && snap.upper == Frontier(asOf + 1L), clue)
    assert(snap.deltaRows == expected, clue)
    if (spine.layerCount != 1) "several layers"
    else if (snap.valueCount == spine.batches.head.valueCount) "one layer"
    else "one layer with zero sums"
  }

  /** Random epochs of updates into a spine compacting to three epochs back,
    * checking the layout of every minted and merged batch, and reads against
    * naive accumulation at every time from that frontier to the epoch, then
    * after a full compaction; snapshots are read every way the spine has.
    */
  private def checkColumnar(fuel: Long): Unit = {
    val rng   = new Random(41 + fuel)
    val spine = new Spine[Long, String, Long](fuel)
    val all   = mutable.ArrayBuffer.empty[(Long, String, Long, Long)]
    val ways  = mutable.Set.empty[String]
    def check(asOf: Long, clue: String): Unit = {
      val naive = mutable.HashMap.empty[(Long, String), Long]
      all.foreach { case (k, v, t, d) => if (t <= asOf) naive.updateWith((k, v))(p => Some(p.getOrElse(0L) + d)) }
      val expected = naive.iterator.filter(_._2 != 0L).map { case ((k, v), d) => (k, v, d) }.toVector.sortBy(u => (u._1, u._2))
      ways += checkSnapshot(spine, asOf, expected, s"$clue asOf=$asOf")
      for (k <- 0L until 15L)
        assert(spine.accumulate(k, asOf) == expected.collect { case (`k`, v, d) => (v, d) }, s"$clue asOf=$asOf key=$k")
    }
    for (epoch <- 1L to 60L) {
      val ups = Seq.fill(rng.nextInt(40))(
        (rng.nextInt(15).toLong, "v" + rng.nextInt(4), epoch, rng.nextInt(5).toLong - 2L))
      all ++= ups
      val batch = Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1L), ups)
      assertLayout(batch, s"fuel=$fuel minted at $epoch")
      spine.insert(batch)
      spine.advanceCompaction(Frontier(math.max(0L, epoch - 3L)))
      spine.batches.foreach(assertLayout(_, s"fuel=$fuel spine after $epoch"))
      for (asOf <- Seq(epoch - 3L, epoch - 1L, epoch).filter(_ >= 0L)) check(asOf, s"fuel=$fuel epoch=$epoch")
    }
    spine.compactAll()
    spine.batches.foreach(assertLayout(_, s"fuel=$fuel compacted"))
    for (asOf <- 57L to 60L) check(asOf, s"fuel=$fuel compacted")
    assert(ways == Set("several layers", "one layer", "one layer with zero sums"), s"fuel=$fuel")
  }

  test("columnar layout and reads hold through fuelled merges and compaction (Long times)") {
    for (fuel <- Seq(1L, 8L, 1000000L)) checkColumnar(fuel)
  }
}
