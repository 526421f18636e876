package repro.dd

import scala.collection.mutable

/** Read access to an arrangement: a sharded, multiversioned index of a
  * `(key, value)` collection (§4.3 trace handles). Implemented both by the
  * owning [[Arranged]] and by [[ImportedArranged]] handles in other
  * dataflows. Arrangement-aware operators (§5) are defined here.
  */
trait ArrangedView[K, V] {

  def dataflow: Dataflow
  implicit def ordK: Ordering[K]
  implicit def ordV: Ordering[V]

  private[dd] def engine: Engine = dataflow.engine

  /** Shard `s`'s delta this epoch: the batch its arrange (or reduce) operator
    * minted, with one time per `(key, value)`.
    */
  private[dd] def currentShard(s: Int): Batch[K, V]

  /** Reads through a view whose dataflow is retired would see state frozen at
    * retirement, so every read path of every view calls this first and fails
    * instead (§4.3).
    */
  private[dd] def requireLive(): Unit =
    if (dataflow.isRetired)
      throw new IllegalStateException(s"arrangement of dataflow ${dataflow.id} is read after that dataflow was retired")

  /** Accumulated multiset for `k` in shard `s` at time `asOf`, from this
    * reader's point of view (imports rebase history to their install epoch).
    */
  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)]

  /** Full accumulated collection at the engine's current epoch. */
  def snapshot(): IndexedSeq[(K, V, Long)] = {
    val now   = engine.epoch
    val parts = new Array[Batch[K, V]](engine.workers)
    engine.parallel(engine.workers)(s => parts(s) = shardSnapshot(s, now))
    parts.iterator.flatMap(_.deltaRows).toVector
  }

  /** Shard `s`'s accumulated collection at `asOf`, as one batch at `asOf`. */
  private[dd] def shardSnapshot(s: Int, asOf: Long): Batch[K, V]

  // ------------------------------------------------------------- operators

  /** Bilinear incremental equi-join (§5.3.1):
    * `δout = δA ⋈ B(before) + A(after) ⋈ δB`. Work is proportional to the
    * delta batches — seeks into the other trace, never scans of it — which is
    * what makes attaching new dataflows to large shared arrangements cheap.
    */
  def join[V2, O](other: ArrangedView[K, V2])(f: (K, V, V2) => O): Stream[O] = {
    require(other.engine eq engine, "joined arrangements must share an engine")
    // The later-created dataflow owns the join: retiring the reader stops it,
    // and retiring its source makes it fail.
    val df  = if (dataflow.id >= other.dataflow.id) dataflow else other.dataflow
    val out = new Stream[O](df)
    val a   = this
    val b   = other
    engine.register(df, new Op {
      def advance(epoch: Long): Unit = {
        val results = new Array[IndexedSeq[(O, Long)]](engine.workers)
        engine.parallel(engine.workers) { s =>
          val buf = Vector.newBuilder[(O, Long)]
          probe(a.currentShard(s), b, s, epoch - 1L, buf)(f)
          probe(b.currentShard(s), a, s, epoch, buf)((k, v2: V2, v: V) => f(k, v, v2))
          results(s) = buf.result()
        }
        out.delta = results.toIndexedSeq.flatten
      }
    })
    out
  }

  /** One half of the bilinear rule: each `(k, x)` of `delta` matched against
    * `other`'s accumulation for `k` at `asOf`, one seek per delta key.
    */
  private def probe[X, Y, O](delta: Batch[K, X], other: ArrangedView[K, Y], s: Int, asOf: Long, out: mutable.Growable[(O, Long)])(
      g: (K, X, Y) => O,
  ): Unit =
    for (i <- 0 until delta.keyCount) {
      val k       = delta.key(i)
      val matches = other.accumulate(s, k, asOf)
      if (matches.nonEmpty)
        for (j <- delta.keyOffs(i) until delta.keyOffs(i + 1)) {
          val x = delta.value(j)
          val d = delta.valueDiff(j)
          matches.foreach { case (y, d2) => out += ((g(k, x, y), d * d2)) }
        }
    }

  /** Incremental grouped reduction (§5.3.2): for each key touched this epoch,
    * re-form the accumulated input, apply `f`, diff against the accumulated
    * output. The output is itself an arrangement (shareable), as in the paper.
    */
  def reduce[O](f: (K, IndexedSeq[(V, Long)]) => IterableOnce[(O, Long)])(implicit ordO: Ordering[O]): Arranged[K, O] = {
    val df  = dataflow
    val out = new Arranged[K, O](df)(ordK, ordO)
    val in  = this
    engine.register(df, new Op {
      def advance(epoch: Long): Unit = {
        engine.parallel(engine.workers) { s =>
          val delta = in.currentShard(s)
          val rows  = new BatchBuilder[K, O](delta.valueCount, delta.keyCount, delta.valueCount)
          for (i <- 0 until delta.keyCount) {
            val k      = delta.key(i)
            val input  = in.accumulate(s, k, epoch)
            val target = mutable.HashMap.empty[O, Long]
            if (input.nonEmpty)
              f(k, input).iterator.foreach { case (o, d) =>
                target.updateWith(o)(p => Some(p.getOrElse(0L) + d))
              }
            out.spines(s).accumulate(k, epoch - 1L).foreach { case (o, d) =>
              target.updateWith(o)(p => Some(p.getOrElse(0L) - d))
            }
            target.toIndexedSeq.sortBy(_._1).foreach { case (o, d) => rows.group(k, o); rows.push(epoch, d) }
          }
          out.mint(s, rows.result(Frontier(epoch), Frontier(epoch + 1L)))
        }
      }
    })
    out
  }

  /** Count of records per key (absent keys produce no output). */
  def count: Arranged[K, Long] =
    reduce[Long] { (_, vals) =>
      val c = vals.iterator.map(_._2).sum
      if (c != 0L) (c, 1L) :: Nil else Nil
    }

  /** Distinct (set semantics) over values per key. */
  def distinct: Arranged[K, V] =
    reduce[V]((_, vals) => vals.iterator.collect { case (v, d) if d > 0L => (v, 1L) })(ordV)

  /** Minimum value per key. */
  def reduceMin: Arranged[K, V] =
    reduce[V] { (_, vals) =>
      val present = vals.iterator.collect { case (v, d) if d > 0L => v }
      if (present.hasNext) (present.min(ordV), 1L) :: Nil else Nil
    }(ordV)

  /** Import this arrangement into any dataflow of the engine: the post-hoc
    * sharing of §4.3. In the next epoch the importer receives the
    * consolidated history as one batch, then mirrors newly minted batches.
    * Cost is proportional to the *reader's* use, not to rebuilding the index.
    */
  def importInto(df2: Dataflow): ImportedArranged[K, V]

  /** Build a *private* copy in `df2` — the unshared baseline: an import whose
    * changes `df2` arranges itself, so it pays its own exchange and sort of
    * the whole collection in the next epoch and of every delta after.
    */
  def copyInto(df2: Dataflow): Arranged[K, V] = importInto(df2).changes.arrangeBy(identity)

  /** Per-epoch delta of the arranged collection, as a stream of ((k, v), diff).
    * Built on first access as an operator that reads the minted batches each
    * epoch: created after the operator that mints them, before any reader.
    */
  lazy val changes: Stream[(K, V)] = {
    val out = new Stream[(K, V)](dataflow)
    out.delta = changeRows
    engine.register(dataflow, new Op { def advance(epoch: Long): Unit = out.delta = changeRows })
    out
  }

  private def changeRows: IndexedSeq[((K, V), Long)] =
    (0 until engine.workers).iterator
      .flatMap(s => currentShard(s).deltaRows.iterator.map { case (k, v, d) => ((k, v), d) })
      .toVector
}

/** The single-writer arrangement: one spine per worker shard plus this
  * epoch's minted batches, maintained by its arrange (or reduce) operator.
  */
final class Arranged[K, V] private[dd] (val dataflow: Dataflow)(implicit
    val ordK: Ordering[K],
    val ordV: Ordering[V],
) extends ArrangedView[K, V] {

  private[dd] val spines: Array[Spine[K, V, Long]] =
    Array.fill(dataflow.engine.workers)(new Spine[K, V, Long]())

  engine.own(dataflow, spines)

  private[dd] val current: Array[Batch[K, V]] =
    Array.fill(dataflow.engine.workers)(Batch.empty[K, V])

  private[dd] def currentShard(s: Int): Batch[K, V] = { requireLive(); current(s) }

  /** Insert shard `s`'s batch minted this epoch; it becomes the shard's delta. */
  private[dd] def mint(s: Int, batch: Batch[K, V]): Unit = {
    spines(s).insert(batch)
    current(s) = batch
  }

  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)] = {
    requireLive(); spines(s).accumulate(k, asOf)
  }

  private[dd] def shardSnapshot(s: Int, asOf: Long): Batch[K, V] = {
    requireLive(); spines(s).snapshot(asOf)
  }

  def importInto(df2: Dataflow): ImportedArranged[K, V] = {
    require(df2.engine eq dataflow.engine, "import requires a shared engine")
    val imp = new ImportedArranged[K, V](df2, this)
    engine.register(df2, imp)
    imp
  }
}

/** A trace handle imported into a dataflow (§4.3): shares the owner's spines
  * physically, but rebases history so the reader sees the entire pre-install
  * collection arrive as one batch at its install epoch, the one after its
  * creation, and nothing before it.
  */
final class ImportedArranged[K, V] private[dd] (
    val dataflow: Dataflow,
    private val source: Arranged[K, V],
) extends ArrangedView[K, V] with Op {

  implicit def ordK: Ordering[K] = source.ordK
  implicit def ordV: Ordering[V] = source.ordV

  private val installAt: Long = engine.epoch + 1L
  private val current: Array[Batch[K, V]] = Array.fill(engine.workers)(Batch.empty[K, V])

  def advance(epoch: Long): Unit =
    if (epoch == installAt) engine.parallel(engine.workers)(s => current(s) = source.shardSnapshot(s, epoch))
    else {
      var s = 0
      while (s < current.length) { current(s) = source.currentShard(s); s += 1 }
    }

  private[dd] def currentShard(s: Int): Batch[K, V] = { requireLive(); current(s) }

  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)] = {
    requireLive()
    if (asOf < installAt) Vector.empty else source.accumulate(s, k, asOf)
  }

  private[dd] def shardSnapshot(s: Int, asOf: Long): Batch[K, V] = {
    requireLive()
    if (asOf < installAt) Batch.empty else source.shardSnapshot(s, asOf)
  }

  def importInto(df2: Dataflow): ImportedArranged[K, V] = source.importInto(df2)
}

/** Drives a feedback loop to fixpoint: each engine step is one iteration,
  * with the loop body's output delta fed back into `input`. With arrangements
  * inside the body, the bilinear join rule makes this semi-naive evaluation
  * automatically (only newly derived facts join against the static relations).
  *
  * The output is fed back unconsolidated: the loop variable's `arrangeBy`
  * drops cancelling updates, one iteration later (§4.2). The loop ends on an
  * empty output; a body whose output bypasses every arrangement is bounded
  * only by `maxIters`, which throws. Returns the number of iterations.
  */
object FeedbackLoop {
  def run[D](
      engine: Engine,
      input: Input[D],
      output: Stream[D],
      seed: Seq[(D, Long)],
      maxIters: Int = 1 << 20,
  ): Int = {
    var pending: Seq[(D, Long)] = seed
    var iters = 0
    while (pending.nonEmpty && iters < maxIters) {
      input.send(pending)
      engine.step()
      pending = output.currentDelta
      iters += 1
    }
    if (pending.nonEmpty)
      throw new IllegalStateException(s"FeedbackLoop: no fixpoint after $maxIters iterations; ${pending.size} updates still pending")
    iters
  }
}
