package repro.dd

import java.util.Arrays
import scala.collection.immutable.ArraySeq

/** An immutable, indexed batch of update triples (§4.1–4.2).
  *
  * Updates are `(key, value, time, diff)` rows sorted by `(key, value, time)`,
  * consolidated so that no two rows share `(key, value, time)` and no row has
  * a zero diff. Times are totally ordered `Long` epochs. The batch spans the
  * half-open time range `[lower, upper)`: every update time is beyond `lower`
  * and not beyond `upper`.
  *
  * The rows are stored column-wise, in the layout of differential dataflow's
  * `OrdValBatch`: the distinct keys in order; for key `i`, its distinct values
  * at `vals(keyOffs(i) until keyOffs(i + 1))`; for value `j`, its times and
  * diffs at `valOffs(j) until valOffs(j + 1)`, both primitive `Long` columns.
  * Random access is by binary search on the key column — the index that
  * arrangement-aware operators navigate.
  */
final class Batch[K, V] private[dd] (
    val lower: Frontier[Long],
    val upper: Frontier[Long],
    keys: Array[AnyRef],
    private[dd] val keyOffs: Array[Int],
    vals: Array[AnyRef],
    private[dd] val valOffs: Array[Int],
    private[dd] val times: Array[Long],
    private[dd] val diffs: Array[Long],
)(implicit val ordK: Ordering[K], val ordV: Ordering[V]) {

  /** Number of `(key, value, time)` rows. */
  def size: Int        = diffs.length
  def isEmpty: Boolean = diffs.length == 0

  private[dd] def keyCount: Int   = keys.length
  private[dd] def valueCount: Int = vals.length

  private[dd] def key(i: Int): K   = keys(i).asInstanceOf[K]
  private[dd] def value(j: Int): V = vals(j).asInstanceOf[V]

  /** First key index with key >= `k`. */
  private def lowerBound(k: K): Int = {
    var lo = 0; var hi = keys.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (ordK.lt(key(mid), k)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Index of key `k` in the key column, or -1 if absent. */
  private[dd] def find(k: K): Int = {
    val i = lowerBound(k)
    if (i < keys.length && ordK.equiv(key(i), k)) i else -1
  }

  /** The `(key, value, diff)` rows, each value's diffs summed over its times:
    * for a batch minted at one time, the epoch's delta it carries.
    */
  private[dd] def deltaRows: IndexedSeq[(K, V, Long)] = {
    val out = new Array[(K, V, Long)](vals.length)
    var i = 0
    while (i < keys.length) {
      val k = key(i)
      var j = keyOffs(i)
      while (j < keyOffs(i + 1)) {
        var d = 0L
        var r = valOffs(j)
        while (r < valOffs(j + 1)) { d += diffs(r); r += 1 }
        out(j) = (k, value(j), d)
        j += 1
      }
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  /** The rows as `(key, value, time, diff)` tuples, built on demand: a view
    * for tests and inspection; operators read the columns.
    */
  def updates: IndexedSeq[(K, V, Long, Long)] =
    for (i <- 0 until keys.length; j <- keyOffs(i) until keyOffs(i + 1); r <- valOffs(j) until valOffs(j + 1))
      yield (key(i), value(j), times(r), diffs(r))
}

object Batch {

  /** Sort, consolidate and index raw update triples into a batch. */
  def fromUpdates[K, V](
      lower: Frontier[Long],
      upper: Frontier[Long],
      raw: Iterable[(K, V, Long, Long)],
  )(implicit ordK: Ordering[K], ordV: Ordering[V]): Batch[K, V] = {
    type Row = (K, V, Long, Long)
    val rows = new Array[AnyRef](raw.size)
    raw.copyToArray(rows)
    Arrays.sort(rows, (x: AnyRef, y: AnyRef) => {
      val a = x.asInstanceOf[Row]; val b = y.asInstanceOf[Row]
      val ck = ordK.compare(a._1, b._1)
      if (ck != 0) ck
      else {
        val cv = ordV.compare(a._2, b._2)
        if (cv != 0) cv else java.lang.Long.compare(a._3, b._3)
      }
    })
    // One pass over the sorted rows, summing diffs per (key, value, time).
    val out       = new BatchBuilder[K, V](rows.length)
    var prev: Row = null
    var acc       = 0L
    var i         = 0
    while (i < rows.length) {
      val r = rows(i).asInstanceOf[Row]
      if (prev == null) { out.group(r._1, r._2); acc = r._4 }
      else if (!ordK.equiv(r._1, prev._1) || !ordV.equiv(r._2, prev._2)) {
        out.push(prev._3, acc); out.group(r._1, r._2); acc = r._4
      } else if (r._3 != prev._3) { out.push(prev._3, acc); acc = r._4 }
      else acc += r._4
      prev = r
      i += 1
    }
    if (prev != null) out.push(prev._3, acc)
    out.result(lower, upper)
  }
}

/** Appends rows already in `(key, value, time)` order into the columns of a
  * [[Batch]]: the spine's merges, `reduce` and `copyInto` produce rows in
  * order and build through this directly, without a sort.
  *
  * Call [[group]] for each `(key, value)` in strictly increasing order, then
  * [[push]] its times in strictly increasing order. Zero diffs are dropped,
  * and a group that receives no nonzero diff leaves no trace.
  *
  * @param rows   expected row count;
  * @param keys   expected distinct keys;
  * @param values expected distinct `(key, value)` groups. Each column grows
  *               past its expectation if needed.
  */
private[dd] final class BatchBuilder[K, V](rows: Int, keys: Int = 8, values: Int = 8)(implicit
    ordK: Ordering[K],
    ordV: Ordering[V],
) {
  private var keyCol   = new Array[AnyRef](keys)
  private var keyOffs  = new Array[Int](keys + 1)
  private var nk       = 0
  private var valCol   = new Array[AnyRef](values)
  private var valOffs  = new Array[Int](values + 1)
  private var nv       = 0
  private var times    = new Array[Long](rows)
  private var diffs    = new Array[Long](rows)
  private var n        = 0
  private var groupKey: K = _
  private var groupVal: V = _
  private var open     = false

  /** Start the group of `(k, v)`; it is stored with its first nonzero diff. */
  def group(k: K, v: V): Unit = { groupKey = k; groupVal = v; open = true }

  def push(t: Long, d: Long): Unit = if (d != 0L) {
    if (open) {
      if (nk == 0 || !ordK.equiv(keyCol(nk - 1).asInstanceOf[K], groupKey)) {
        if (nk == keyCol.length) { keyCol = Arrays.copyOf(keyCol, grown(nk)); keyOffs = Arrays.copyOf(keyOffs, grown(nk) + 1) }
        keyCol(nk) = groupKey.asInstanceOf[AnyRef]; keyOffs(nk) = nv; nk += 1
      }
      if (nv == valCol.length) { valCol = Arrays.copyOf(valCol, grown(nv)); valOffs = Arrays.copyOf(valOffs, grown(nv) + 1) }
      valCol(nv) = groupVal.asInstanceOf[AnyRef]; valOffs(nv) = n; nv += 1
      open = false
    }
    if (n == times.length) { times = Arrays.copyOf(times, grown(n)); diffs = Arrays.copyOf(diffs, grown(n)) }
    times(n) = t; diffs(n) = d; n += 1
  }

  /** The batch of everything pushed, with exactly sized columns. */
  def result(lower: Frontier[Long], upper: Frontier[Long]): Batch[K, V] = {
    keyOffs(nk) = nv; valOffs(nv) = n
    new Batch(
      lower, upper,
      trim(keyCol, nk), trim(keyOffs, nk + 1),
      trim(valCol, nv), trim(valOffs, nv + 1),
      trim(times, n), trim(diffs, n),
    )
  }

  private def grown(len: Int): Int = math.max(8, 2 * len)

  private def trim(a: Array[AnyRef], len: Int): Array[AnyRef] = if (a.length == len) a else Arrays.copyOf(a, len)
  private def trim(a: Array[Int], len: Int): Array[Int]       = if (a.length == len) a else Arrays.copyOf(a, len)
  private def trim(a: Array[Long], len: Int): Array[Long]     = if (a.length == len) a else Arrays.copyOf(a, len)
}
