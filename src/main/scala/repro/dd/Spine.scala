package repro.dd

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag

/** A collection trace (§4.1): an append-only list of immutable indexed batches
  * maintained with *amortized* (fuelled) merging so that the trace always
  * consists of logarithmically many batches, and with *compaction*: once all
  * readers advance past a frontier, update times are replaced by their
  * `rep_F` representatives and coalesced, bounding the memory footprint.
  *
  * Times are totally ordered `Long` epochs, so the compaction frontier is one
  * epoch `since` and `rep_F(t)` is `max(t, since)` (Appendix A).
  *
  * One spine holds one worker's shard of an arrangement; all interactions are
  * intra-worker (single-threaded), per the paper's hard-partitioning design.
  *
  * @tparam T unused: always `Long`. It stays only so that existing callers
  *           that write `new Spine[K, V, Long](...)` keep compiling; a type
  *           alias cannot stand in for it, because an alias does not carry
  *           the constructor's default arguments.
  * @param fuelPerRecord merge work performed per inserted record. Large values
  *                      give eager merging (fewer layers, throughput-friendly);
  *                      small values give lazy merging (smaller latency spikes).
  */
final class Spine[K, V, T <: Long](val fuelPerRecord: Long = 8L)(implicit
    ordK: Ordering[K],
    ordV: Ordering[V],
) {

  /** Layers oldest-to-newest. Batches under merge remain readable in place
    * until the merged batch atomically replaces them.
    */
  private var layers: Vector[Batch[K, V]] = Vector.empty

  /** In-progress merge of `layers(idx)` and `layers(idx + 1)`: one cursor
    * per input at a (key index, value index), and the merged output so far.
    */
  private final class MergeInProgress(val idx: Int) {
    val a: Batch[K, V] = layers(idx)
    val b: Batch[K, V] = layers(idx + 1)
    var keyA = 0; var valA = 0
    var keyB = 0; var valB = 0
    val out  = new BatchBuilder[K, V](a.size + b.size, a.keyCount + b.keyCount, a.valueCount + b.valueCount)
    def done: Boolean = valA >= a.valueCount && valB >= b.valueCount
  }

  private var merging: MergeInProgress = null
  private var pendingFuel: Long        = 0L

  /** The compaction frontier: all readers operate at times `>= since`, and
    * merges advance earlier times to `since`. Advanced by the engine as
    * trace-handle frontiers move (§4.3).
    */
  private var since: Long = Long.MinValue

  def compactionFrontier: Long = since

  /** Advance the compaction frontier to `f`'s single epoch; it only ever
    * advances, since a regression would violate reader guarantees.
    */
  def advanceCompaction(f: Frontier[Long]): Unit = {
    require(f.elements.length == 1, s"a compaction frontier is one epoch, not ${f.elements.mkString("{", ", ", "}")}")
    since = math.max(since, f.elements(0))
  }

  def layerCount: Int  = layers.length
  private[dd] def batches: IndexedSeq[Batch[K, V]] = layers
  def tupleCount: Long = layers.iterator.map(_.size.toLong).sum

  /** Append a freshly minted batch and run amortized maintenance. */
  def insert(batch: Batch[K, V]): Unit = {
    if (!batch.isEmpty) layers :+= batch
    pendingFuel += fuelPerRecord * (batch.size.toLong + 1L)
    work()
  }

  /** Run all outstanding merges to completion (used by tests and by explicit
    * consolidation points; production inserts rely on fuel instead).
    */
  def compactAll(): Unit = {
    pendingFuel = Long.MaxValue / 2
    work()
    while (layers.length > 1) {
      startMerge(layers.length - 2)
      pendingFuel = Long.MaxValue / 2
      work()
    }
    pendingFuel = 0L
  }

  private def startMerge(idx: Int): Unit = {
    if (merging == null && idx >= 0 && idx + 1 < layers.length)
      merging = new MergeInProgress(idx)
  }

  /** Rightmost adjacent pair violating the geometric size invariant. */
  private def mergeCandidate: Int = {
    var i = layers.length - 2
    while (i >= 0) {
      if (layers(i).size <= 2L * layers(i + 1).size) return i
      i -= 1
    }
    -1
  }

  private def work(): Unit = {
    var continue = true
    while (continue && pendingFuel > 0) {
      if (merging == null) {
        val c = mergeCandidate
        if (c < 0) { continue = false }
        else startMerge(c)
      }
      if (merging != null) {
        step(merging)
        if (merging.done) finishMerge()
      }
    }
  }

  /** Advance the in-progress merge by one (key, value) group from whichever
    * cursor is behind (both, when they hold the same group), consuming fuel
    * proportional to rows consumed. Times are advanced to `max(t, since)`,
    * which keeps each input's times in order, and the two inputs' times are
    * merged with equal times coalesced on the fly.
    */
  private def step(m: MergeInProgress): Unit = {
    val a = m.a; val b = m.b
    val liveA = m.valA < a.valueCount; val liveB = m.valB < b.valueCount
    if (!liveA && !liveB) return
    val c =
      if (!liveB) -1
      else if (!liveA) 1
      else {
        val ck = ordK.compare(a.key(m.keyA), b.key(m.keyB))
        if (ck != 0) ck else ordV.compare(a.value(m.valA), b.value(m.valB))
      }

    // The group's rows in each input: [ra, ea) of a and [rb, eb) of b.
    var ra = 0; var ea = 0; var rb = 0; var eb = 0
    if (c <= 0) {
      m.out.group(a.key(m.keyA), a.value(m.valA))
      ra = a.valOffs(m.valA); ea = a.valOffs(m.valA + 1)
      m.valA += 1
      if (m.valA == a.keyOffs(m.keyA + 1)) m.keyA += 1
    }
    if (c >= 0) {
      m.out.group(b.key(m.keyB), b.value(m.valB))
      rb = b.valOffs(m.valB); eb = b.valOffs(m.valB + 1)
      m.valB += 1
      if (m.valB == b.keyOffs(m.keyB + 1)) m.keyB += 1
    }
    pendingFuel -= math.max(1, (ea - ra) + (eb - rb))

    val at = a.times; val bt = b.times; val f = since
    while (ra < ea || rb < eb) {
      val t =
        if (rb == eb) math.max(at(ra), f)
        else if (ra == ea) math.max(bt(rb), f)
        else math.min(math.max(at(ra), f), math.max(bt(rb), f))
      var d = 0L
      while (ra < ea && math.max(at(ra), f) == t) { d += a.diffs(ra); ra += 1 }
      while (rb < eb && math.max(bt(rb), f) == t) { d += b.diffs(rb); rb += 1 }
      m.out.push(t, d)
    }
  }

  private def finishMerge(): Unit = {
    val m      = merging
    val merged = m.out.result(m.a.lower, m.b.upper)
    layers = layers.patch(m.idx, if (merged.isEmpty) Nil else Seq(merged), 2)
    merging = null
  }

  // ---------------------------------------------------------------- reads

  /** Reads are correct only at times beyond the compaction frontier (§4.3):
    * earlier times may already have been advanced to it.
    */
  private def requireReadable(asOf: Long): Unit =
    require(asOf >= since, s"read at $asOf is not beyond the compaction frontier $since")

  /** Net diff of `layer`'s value `j` over its updates with `time ≤ asOf`. */
  private def sumAt(layer: Batch[K, V], j: Int, asOf: Long): Long = {
    val times = layer.times
    var d     = 0L
    var r     = layer.valOffs(j)
    while (r < layer.valOffs(j + 1)) { if (times(r) <= asOf) d += layer.diffs(r); r += 1 }
    d
  }

  /** The accumulated multiset of values for key `k` at time `asOf`: net diffs
    * over updates with `time ≤ asOf`, zero-entries dropped, sorted by value.
    * `asOf` must be beyond the compaction frontier (§4.3).
    */
  def accumulate(k: K, asOf: Long): IndexedSeq[(V, Long)] = {
    requireReadable(asOf)
    val out     = mutable.ArrayBuilder.make[(V, Long)]
    var holders = 0
    layers.foreach { layer =>
      val i = layer.find(k)
      if (i >= 0) {
        holders += 1
        var j = layer.keyOffs(i)
        while (j < layer.keyOffs(i + 1)) {
          val d = sumAt(layer, j, asOf)
          if (d != 0L) out += ((layer.value(j), d))
          j += 1
        }
      }
    }
    // Each layer yields its values in order; several layers need a merge.
    if (holders <= 1) ArraySeq.unsafeWrapArray(out.result())
    else consolidate(out.result(), Ordering.by[(V, Long), V](_._1)(ordV))(_._2, (x, d) => (x._1, d))
  }

  /** Full accumulated snapshot at `asOf`, sorted by (key, value). */
  def snapshot(asOf: Long): IndexedSeq[(K, V, Long)] = {
    requireReadable(asOf)
    val out = mutable.ArrayBuilder.make[(K, V, Long)]
    layers.foreach { layer =>
      var i = 0
      while (i < layer.keyCount) {
        val k = layer.key(i)
        var j = layer.keyOffs(i)
        while (j < layer.keyOffs(i + 1)) {
          val d = sumAt(layer, j, asOf)
          if (d != 0L) out += ((k, layer.value(j), d))
          j += 1
        }
        i += 1
      }
    }
    if (layers.length <= 1) ArraySeq.unsafeWrapArray(out.result())
    else {
      val byKeyValue: Ordering[(K, V, Long)] = (x, y) => {
        val ck = ordK.compare(x._1, y._1)
        if (ck != 0) ck else ordV.compare(x._2, y._2)
      }
      consolidate(out.result(), byKeyValue)(_._3, (x, d) => (x._1, x._2, d))
    }
  }

  /** Sort `xs` by `ord` and sum the diffs of equal entries, dropping zeros.
    * Reads gather one sorted run per layer, which the (merging) sort exploits.
    */
  private def consolidate[A <: AnyRef: ClassTag](xs: Array[A], ord: Ordering[A])(diff: A => Long, withDiff: (A, Long) => A): IndexedSeq[A] = {
    java.util.Arrays.sort(xs, ord)
    val out = mutable.ArrayBuilder.make[A]
    var i = 0
    while (i < xs.length) {
      val x = xs(i)
      var d = 0L
      var j = i
      while (j < xs.length && ord.equiv(xs(j), x)) { d += diff(xs(j)); j += 1 }
      if (d != 0L) out += (if (j == i + 1) x else withDiff(x, d))
      i = j
    }
    ArraySeq.unsafeWrapArray(out.result())
  }
}
