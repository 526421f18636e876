package repro.dd

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import scala.collection.mutable

/** Epoch-synchronous differential dataflow engine with shared arrangements.
  *
  * The engine hosts multiple [[Dataflow]]s (queries) over a common logical
  * time domain of totally ordered epochs (the Spark-Streaming-style time
  * model of §3.2). Each `step()` advances every installed dataflow by one
  * epoch, in installation order — coarse-grained coordination. Stateful
  * operators shard their state by key hash across `workers` [[Spine]]s and
  * process shards in parallel; all state interactions are intra-shard, per
  * the paper's hard-partitioning design (§4).
  *
  * Sharing: an [[Arranged]] built in one dataflow can be read directly by a
  * later dataflow's join (zero install cost — the windowed-facts idiom), or
  * [[Arranged.importInto]]-ed (the trace-handle `import` of §4.3: the new
  * dataflow immediately receives the consolidated history as one large
  * batch, then mirrors newly minted batches). [[Arranged.copyInto]] is the
  * *unshared* baseline: it physically re-indexes the full collection into a
  * private arrangement and duplicates maintenance work each epoch.
  */
final class Engine(val workers: Int = 1) extends AutoCloseable {

  private[dd] val pool: ExecutorService =
    if (workers > 1) Executors.newFixedThreadPool(workers - 1) else null

  private[dd] val dataflows = mutable.ArrayBuffer.empty[Dataflow]

  private var epochVar: Long = 0L

  /** Last completed epoch. */
  def epoch: Long = epochVar

  def newDataflow(): Dataflow = {
    val df = new Dataflow(this, epochVar, dataflows.length)
    dataflows += df
    df
  }

  /** Advance every installed dataflow by one epoch, then compact every
    * owned trace to the new epoch: operators read only the current epoch and
    * the one before it, so afterwards a read at an earlier epoch fails.
    */
  def step(): Unit = {
    epochVar += 1
    val active = dataflows.toVector
    active.foreach(_.advance(epochVar))
    val frontier = Frontier(epochVar)
    active.foreach(_.ownedSpines.foreach(_.advanceCompaction(frontier)))
  }

  /** Memory-footprint proxy: total tuples retained across all live traces. */
  def totalTuples: Long =
    dataflows.iterator.flatMap(_.ownedSpines).map(_.tupleCount).sum

  private[dd] def retireDataflow(df: Dataflow): Unit = { dataflows -= df }

  /** Run `f(0 until n)` across the worker pool (inline when single-worker):
    * the caller runs `f(0)` while the pool runs the rest, then waits for them
    * and rethrows a pool task's failure as it was thrown. Shards are
    * disjoint, so no synchronization is needed — co-scheduling without
    * locks, as in §3.5.
    */
  private[dd] def parallel(n: Int)(f: Int => Unit): Unit =
    if (pool == null || n <= 1) {
      var i = 0; while (i < n) { f(i); i += 1 }
    } else {
      val rest = (1 until n).map(i => pool.submit(new Callable[Unit] { def call(): Unit = f(i) }))
      try f(0)
      finally rest.foreach(r => try r.get() catch { case e: ExecutionException => throw e.getCause })
    }

  private[dd] def shardOf(hash: Int): Int =
    (scala.util.hashing.byteswap32(hash) & 0x7fffffff) % workers

  /** `arrangeBy`'s exchange: route each record of `data` to the worker shard
    * of its `hash`, then run `f(s, records of shard s)` for every shard.
    * Workers first scan disjoint slices of `data` into per-shard buffers, in
    * parallel; then each shard reads its buffers in slice order, so it
    * receives its records in input order whatever the worker count, and the
    * shards run in parallel.
    */
  private[dd] def exchange[A, B](data: IndexedSeq[A])(route: A => B)(hash: B => Int)(f: (Int, Iterable[B]) => Unit): Unit = {
    val n     = data.length
    val parts = new Array[Array[mutable.ArrayBuffer[B]]](workers)
    parallel(workers) { w =>
      val bufs  = Array.fill(workers)(mutable.ArrayBuffer.empty[B])
      var i     = (n.toLong * w / workers).toInt
      val until = (n.toLong * (w + 1) / workers).toInt
      while (i < until) { val b = route(data(i)); bufs(shardOf(hash(b))) += b; i += 1 }
      parts(w) = bufs
    }
    parallel(workers) { s =>
      val all = new mutable.ArrayBuffer[B](parts.iterator.map(_(s).length).sum)
      parts.foreach(all ++= _(s))
      f(s, all)
    }
  }

  override def close(): Unit = if (pool != null) pool.shutdownNow()
}

/** One dataflow (query): an ordered list of operators advanced per epoch. */
final class Dataflow private[dd] (val engine: Engine, val installEpoch: Long, val index: Int) {

  private[dd] val ops         = mutable.ArrayBuffer.empty[Op]
  private[dd] val ownedSpines = mutable.ArrayBuffer.empty[Spine[_, _, Long]]
  private var retired         = false

  private[dd] def isRetired: Boolean = retired

  private[dd] def register(op: Op): Unit = ops += op

  private[dd] def advance(epoch: Long): Unit = if (!retired) ops.foreach(_.advance(epoch))

  /** Remove this query: stops its operators and releases its private state
    * (the memory-footprint effect of query retirement in §6.1.1).
    */
  def retire(): Unit = {
    retired = true
    ops.clear()
    ownedSpines.clear()
    engine.retireDataflow(this)
  }

  def newInput[D](): Input[D] = {
    val in = new Input[D](this)
    register(in)
    in
  }
}

private[dd] trait Op { def advance(epoch: Long): Unit }

private[dd] object Dataflows {
  /** The later-installed of two dataflows — where a binary op must live so
    * both inputs have advanced before it runs.
    */
  def later(a: Dataflow, b: Dataflow): Dataflow = if (a.index >= b.index) a else b
}

/** A stream of per-epoch update deltas `(data, diff)` (§3.3: collections as
  * streams of update triples; the epoch is implicit in the engine clock).
  */
final class Stream[D] private[dd] (val dataflow: Dataflow) {

  private[dd] var delta: IndexedSeq[(D, Long)] = Vector.empty

  /** The delta most recently produced for this stream (read after `step()`). */
  def currentDelta: IndexedSeq[(D, Long)] = delta

  private def derived[E](df: Dataflow)(compute: () => IndexedSeq[(E, Long)]): Stream[E] = {
    val out = new Stream[E](df)
    df.register(new Op { def advance(epoch: Long): Unit = out.delta = compute() })
    out
  }

  def map[E](f: D => E): Stream[E] =
    derived(dataflow)(() => delta.map { case (d, diff) => (f(d), diff) })

  def flatMap[E](f: D => IterableOnce[E]): Stream[E] =
    derived(dataflow)(() => delta.flatMap { case (d, diff) => f(d).iterator.map(e => (e, diff)) })

  def filter(p: D => Boolean): Stream[D] =
    derived(dataflow)(() => delta.filter { case (d, _) => p(d) })

  def concat(other: Stream[D]): Stream[D] =
    derived(Dataflows.later(dataflow, other.dataflow))(() => delta ++ other.delta)

  def negate: Stream[D] =
    derived(dataflow)(() => delta.map { case (d, diff) => (d, -diff) })

  /** Sum diffs per datum within the epoch, dropping zeros (sorted for
    * determinism).
    */
  def consolidate(implicit ord: Ordering[D]): Stream[D] =
    derived(dataflow) { () =>
      val acc = mutable.HashMap.empty[D, Long]
      delta.foreach { case (d, diff) => acc.updateWith(d)(p => Some(p.getOrElse(0L) + diff)) }
      acc.iterator.filter(_._2 != 0L).toIndexedSeq.sortBy(_._1)
    }

  /** Observe each epoch's delta (pass-through). */
  def inspect(f: (Long, IndexedSeq[(D, Long)]) => Unit): Stream[D] =
    derived(dataflow) { () => { f(dataflow.engine.epoch, delta); delta } }

  /** Shard by key and maintain an indexed, multiversioned trace: the
    * `arrange` operator (§4.2).
    */
  def arrangeBy[K, V](kv: D => (K, V))(implicit ordK: Ordering[K], ordV: Ordering[V]): Arranged[K, V] = {
    val arr = new Arranged[K, V](dataflow)
    val eng = dataflow.engine
    dataflow.register(new Op {
      def advance(epoch: Long): Unit = {
        eng.exchange(delta) { case (d, diff) => val (k, v) = kv(d); (k, v, epoch, diff) }(_._1.hashCode) { (s, rows) =>
          arr.mint(s, Batch.fromUpdates(Frontier(epoch), Frontier(epoch + 1L), rows))
        }
      }
    })
    arr
  }
}

/** A root of a dataflow: updates fed from outside between steps. */
final class Input[D] private[dd] (df: Dataflow) extends Op {
  val stream = new Stream[D](df)
  private val buffer = mutable.ArrayBuffer.empty[(D, Long)]

  def send(updates: IterableOnce[(D, Long)]): Unit = buffer ++= updates.iterator

  /** Insert records (diff +1). */
  def insertAll(records: IterableOnce[D]): Unit = send(records.iterator.map(d => (d, 1L)))

  /** Remove records (diff -1). */
  def removeAll(records: IterableOnce[D]): Unit = send(records.iterator.map(d => (d, -1L)))

  def advance(epoch: Long): Unit = {
    stream.delta = buffer.toVector
    buffer.clear()
  }
}
