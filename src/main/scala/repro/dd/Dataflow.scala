package repro.dd

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import scala.collection.mutable

/** Epoch-synchronous differential dataflow engine with shared arrangements.
  *
  * The engine hosts multiple [[Dataflow]]s (queries) over a common logical
  * time domain of totally ordered epochs (the Spark-Streaming-style time
  * model of §3.2). Each `step()` runs every operator of every dataflow in
  * creation order: an operator reads only streams and arrangements that
  * existed when it was created, so every producer runs before its readers.
  * A dataflow is only the unit of retirement. Stateful
  * operators shard their state by key hash across `workers` [[Spine]]s and
  * process shards in parallel; all state interactions are intra-shard, per
  * the paper's hard-partitioning design (§4).
  *
  * Sharing: arrangements are the only thing that crosses dataflows. An
  * [[Arranged]] built in one dataflow can be read directly by another
  * dataflow's join (zero install cost — the windowed-facts idiom), or
  * [[ArrangedView.importInto]]-ed into any dataflow of the engine (the
  * trace-handle `import` of §4.3: the importer receives the consolidated
  * history as one large batch at its install epoch, then mirrors newly
  * minted batches). [[ArrangedView.copyInto]] is the *unshared* baseline: an
  * import whose changes the reader arranges with its own `arrangeBy`, so it
  * pays its own exchange, sort and index of the full collection, and
  * duplicates maintenance work each epoch.
  */
final class Engine(val workers: Int = 1) extends AutoCloseable {

  private[dd] val pool: ExecutorService =
    if (workers > 1) Executors.newFixedThreadPool(workers - 1) else null

  /** Every live operator and trace with its dataflow, in creation order. */
  private val ops        = mutable.ArrayBuffer.empty[(Dataflow, Op)]
  private[dd] val spines = mutable.ArrayBuffer.empty[(Dataflow, Spine[_, _, Long])]
  private var dataflows  = 0
  private var epochVar   = 0L

  /** Last completed epoch. */
  def epoch: Long = epochVar

  def newDataflow(): Dataflow = {
    dataflows += 1
    new Dataflow(this, dataflows - 1)
  }

  /** Run every operator for one more epoch, in creation order, then compact
    * every trace to the new epoch: operators read only the current epoch and
    * the one before it, so afterwards a read at an earlier epoch fails.
    */
  def step(): Unit = {
    epochVar += 1
    var i = 0
    while (i < ops.length) { ops(i)._2.advance(epochVar); i += 1 }
    val frontier = Frontier(epochVar)
    spines.foreach(_._2.advanceCompaction(frontier))
  }

  /** Memory-footprint proxy: total tuples retained across all live traces. */
  def totalTuples: Long = spines.iterator.map(_._2.tupleCount).sum

  private[dd] def register(df: Dataflow, op: Op): Unit = { requireLive(df); ops += ((df, op)) }

  private[dd] def own(df: Dataflow, traces: Iterable[Spine[_, _, Long]]): Unit = { requireLive(df); spines ++= traces.map((df, _)) }

  private def requireLive(df: Dataflow): Unit =
    if (df.isRetired) throw new IllegalStateException(s"dataflow ${df.id} is extended after it was retired")

  private[dd] def drop(df: Dataflow): Unit = { ops.filterInPlace(_._1 ne df); spines.filterInPlace(_._1 ne df) }

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

/** One dataflow (query): the unit of retirement. Its operators run in the
  * engine's one creation-ordered schedule.
  */
final class Dataflow private[dd] (val engine: Engine, val id: Int) {

  private var retired = false

  private[dd] def isRetired: Boolean = retired

  private[dd] def ownedSpines: Seq[Spine[_, _, Long]] = engine.spines.collect { case (df, s) if df eq this => s }.toSeq

  /** Remove this query: stops its operators and releases its private state
    * (the memory-footprint effect of query retirement in §6.1.1).
    */
  def retire(): Unit = { retired = true; engine.drop(this) }

  def newInput[D](): Input[D] = {
    val in = new Input[D](this)
    engine.register(this, in)
    in
  }
}

private[dd] trait Op { def advance(epoch: Long): Unit }

/** A stream of per-epoch update deltas `(data, diff)` (§3.3: collections as
  * streams of update triples; the epoch is implicit in the engine clock).
  */
final class Stream[D] private[dd] (val dataflow: Dataflow) {

  private[dd] var delta: IndexedSeq[(D, Long)] = Vector.empty

  /** The delta most recently produced for this stream (read after `step()`). */
  def currentDelta: IndexedSeq[(D, Long)] = delta

  private def derived[E](compute: () => IndexedSeq[(E, Long)]): Stream[E] = {
    val out = new Stream[E](dataflow)
    dataflow.engine.register(dataflow, new Op { def advance(epoch: Long): Unit = out.delta = compute() })
    out
  }

  def map[E](f: D => E): Stream[E] =
    derived(() => delta.map { case (d, diff) => (f(d), diff) })

  def flatMap[E](f: D => IterableOnce[E]): Stream[E] =
    derived(() => delta.flatMap { case (d, diff) => f(d).iterator.map(e => (e, diff)) })

  def filter(p: D => Boolean): Stream[D] =
    derived(() => delta.filter { case (d, _) => p(d) })

  /** Union with a stream of the same dataflow. Only arrangements cross
    * dataflows (`importInto`, or a join's read), so a stream of another
    * dataflow is rejected here instead of read after its writer is gone.
    */
  def concat(other: Stream[D]): Stream[D] = {
    require(other.dataflow eq dataflow, s"concat of streams of dataflows ${dataflow.id} and ${other.dataflow.id}")
    derived(() => delta ++ other.delta)
  }

  def negate: Stream[D] =
    derived(() => delta.map { case (d, diff) => (d, -diff) })

  /** Observe each epoch's delta (pass-through). */
  def inspect(f: (Long, IndexedSeq[(D, Long)]) => Unit): Stream[D] =
    derived { () => { f(dataflow.engine.epoch, delta); delta } }

  /** Shard by key and maintain an indexed, multiversioned trace: the
    * `arrange` operator (§4.2).
    */
  def arrangeBy[K, V](kv: D => (K, V))(implicit ordK: Ordering[K], ordV: Ordering[V]): Arranged[K, V] = {
    val arr = new Arranged[K, V](dataflow)
    val eng = dataflow.engine
    eng.register(dataflow, new Op {
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
