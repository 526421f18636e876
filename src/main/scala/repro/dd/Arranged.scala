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

  /** This epoch's minted batch for shard `s`, sorted by (key, value). */
  private[dd] def currentShard(s: Int): IndexedSeq[(K, V, Long)]

  /** Accumulated multiset for `k` in shard `s` at time `asOf`, from this
    * reader's point of view (imports rebase history to their install epoch).
    */
  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)]

  /** Full accumulated collection at the engine's current epoch. */
  def snapshot(): IndexedSeq[(K, V, Long)] = {
    val now   = engine.epoch
    val parts = new Array[IndexedSeq[(K, V, Long)]](engine.workers)
    engine.parallel(engine.workers)(s => parts(s) = shardSnapshot(s, now))
    parts.iterator.flatten.toVector
  }

  private[dd] def shardSnapshot(s: Int, asOf: Long): IndexedSeq[(K, V, Long)]

  // ------------------------------------------------------------- operators

  /** Bilinear incremental equi-join (§5.3.1):
    * `δout = δA ⋈ B(before) + A(after) ⋈ δB`. Work is proportional to the
    * delta batches — seeks into the other trace, never scans of it — which is
    * what makes attaching new dataflows to large shared arrangements cheap.
    */
  def join[V2, O](other: ArrangedView[K, V2])(f: (K, V, V2) => O): Stream[O] =
    joinWith[V2, O](other)((out, k, v, v2, d) => out += ((f(k, v, v2), d)))

  /** [[join]] where each match yields any number of outputs. */
  def joinFlat[V2, O](other: ArrangedView[K, V2])(f: (K, V, V2) => IterableOnce[O]): Stream[O] =
    joinWith[V2, O](other)((out, k, v, v2, d) => f(k, v, v2).iterator.foreach(o => out += ((o, d))))

  /** Appends the outputs of one join match `(k, v, v2)` with diff `d`; a
    * trait rather than a `Function5`, which would box `d` on every match.
    */
  private trait Emit[V2, O] { def apply(out: mutable.Growable[(O, Long)], k: K, v: V, v2: V2, d: Long): Unit }

  private def joinWith[V2, O](other: ArrangedView[K, V2])(emit: Emit[V2, O]): Stream[O] = {
    require(other.engine eq engine, "joined arrangements must share an engine")
    val df  = Dataflows.later(dataflow, other.dataflow)
    val out = new Stream[O](df)
    val a   = this
    val b   = other
    df.register(new Op {
      def advance(epoch: Long): Unit = {
        val results = new Array[IndexedSeq[(O, Long)]](engine.workers)
        engine.parallel(engine.workers) { s =>
          val buf = Vector.newBuilder[(O, Long)]
          foreachKeyRun(a.currentShard(s)) { (k, rows) =>
            val matches = b.accumulate(s, k, epoch - 1L)
            if (matches.nonEmpty)
              rows.foreach { case (_, v, d) =>
                matches.foreach { case (v2, d2) => emit(buf, k, v, v2, d * d2) }
              }
          }
          foreachKeyRun(b.currentShard(s)) { (k, rows) =>
            val matches = a.accumulate(s, k, epoch)
            if (matches.nonEmpty)
              rows.foreach { case (_, v2, d2) =>
                matches.foreach { case (v, d) => emit(buf, k, v, v2, d * d2) }
              }
          }
          results(s) = buf.result()
        }
        out.delta = results.toIndexedSeq.flatten
      }
    })
    out
  }

  private def foreachKeyRun[W](rows: IndexedSeq[(K, W, Long)])(f: (K, IndexedSeq[(K, W, Long)]) => Unit): Unit = {
    var i = 0
    while (i < rows.length) {
      val k = rows(i)._1
      var j = i + 1
      while (j < rows.length && ordK.equiv(rows(j)._1, k)) j += 1
      f(k, rows.slice(i, j))
      i = j
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
    df.register(new Op {
      def advance(epoch: Long): Unit = {
        engine.parallel(engine.workers) { s =>
          val rows = new BatchBuilder[K, O](in.currentShard(s).length)
          foreachKeyRun(in.currentShard(s)) { (k, _) =>
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
        out.publish()
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

  /** Import this arrangement into another (later) dataflow: the post-hoc
    * sharing of §4.3. The importing dataflow immediately receives the
    * consolidated history as one batch, then mirrors newly minted batches.
    * Cost is proportional to the *reader's* use, not to rebuilding the index.
    */
  def importInto(df2: Dataflow): ImportedArranged[K, V]

  /** Build a *private* copy in `df2` — the unshared baseline. Pays full
    * re-indexing on install and duplicate maintenance every epoch after.
    */
  def copyInto(df2: Dataflow): Arranged[K, V]
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

  dataflow.ownedSpines ++= spines

  private[dd] val current: Array[IndexedSeq[(K, V, Long)]] =
    Array.fill(dataflow.engine.workers)(Vector.empty)

  private var changesRead = false

  /** Per-epoch delta of the arranged collection, as a stream of ((k, v), diff).
    * Built on first access; only from then on does [[publish]] fill it.
    */
  lazy val changes: Stream[(K, V)] = {
    val s = new Stream[(K, V)](dataflow)
    s.delta = changeRows
    changesRead = true
    s
  }

  /** Reads through an arrangement whose dataflow is retired would see its
    * spines frozen at retirement, so every read path fails instead (§4.3).
    */
  private def requireLive(): Unit =
    if (dataflow.isRetired)
      throw new IllegalStateException(s"arrangement of dataflow ${dataflow.index} is read after that dataflow was retired")

  private[dd] def currentShard(s: Int): IndexedSeq[(K, V, Long)] = { requireLive(); current(s) }

  /** Insert shard `s`'s batch minted this epoch; it becomes the shard's delta. */
  private[dd] def mint(s: Int, batch: Batch[K, V]): Unit = {
    spines(s).insert(batch)
    current(s) = batch.deltaRows
  }

  /** Publish this epoch's minted batches, all shards, on [[changes]]. */
  private[dd] def publish(): Unit = if (changesRead) changes.delta = changeRows

  private def changeRows: IndexedSeq[((K, V), Long)] =
    current.iterator.flatMap(_.iterator.map { case (k, v, d) => ((k, v), d) }).toVector

  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)] = {
    requireLive(); spines(s).accumulate(k, asOf)
  }

  private[dd] def shardSnapshot(s: Int, asOf: Long): IndexedSeq[(K, V, Long)] = {
    requireLive(); spines(s).snapshot(asOf)
  }

  def tupleCount: Long = spines.iterator.map(_.tupleCount).sum

  def importInto(df2: Dataflow): ImportedArranged[K, V] = {
    require(df2.engine eq dataflow.engine, "import requires a shared engine")
    require(df2.index > dataflow.index, "import target must be installed after the source")
    val imp = new ImportedArranged[K, V](df2, this)
    df2.register(imp)
    imp
  }

  def copyInto(df2: Dataflow): Arranged[K, V] = {
    require(df2.engine eq dataflow.engine, "copy requires a shared engine")
    val src = this
    val dst = new Arranged[K, V](df2)
    var first = true
    df2.register(new Op {
      def advance(epoch: Long): Unit = {
        engine.parallel(engine.workers) { s =>
          // The private re-indexing the paper's unshared baseline pays: the
          // whole collection on install, every update after. The source's
          // rows arrive sorted and consolidated, so they append in order.
          val rows  = if (first) src.shardSnapshot(s, epoch) else src.currentShard(s)
          val batch = new BatchBuilder[K, V](rows.length, values = rows.length)
          rows.foreach { case (k, v, d) => batch.group(k, v); batch.push(epoch, d) }
          dst.mint(s, batch.result(Frontier(epoch), Frontier(epoch + 1L)))
        }
        dst.publish()
        first = false
      }
    })
    dst
  }
}

/** A trace handle imported into a later dataflow (§4.3): shares the owner's
  * spines physically, but rebases history so the reader sees the entire
  * pre-install collection arrive as one batch at its install epoch.
  */
final class ImportedArranged[K, V] private[dd] (
    val dataflow: Dataflow,
    private val source: Arranged[K, V],
) extends ArrangedView[K, V] with Op {

  implicit def ordK: Ordering[K] = source.ordK
  implicit def ordV: Ordering[V] = source.ordV

  private var installAt: Long = -1L
  private val current: Array[IndexedSeq[(K, V, Long)]] =
    new Array[IndexedSeq[(K, V, Long)]](source.dataflow.engine.workers)

  def advance(epoch: Long): Unit = {
    if (installAt < 0L) {
      installAt = epoch
      engine.parallel(engine.workers)(s => current(s) = source.shardSnapshot(s, epoch))
    } else {
      var s = 0
      while (s < current.length) { current(s) = source.currentShard(s); s += 1 }
    }
  }

  private[dd] def currentShard(s: Int): IndexedSeq[(K, V, Long)] = current(s)

  private[dd] def accumulate(s: Int, k: K, asOf: Long): IndexedSeq[(V, Long)] =
    if (installAt >= 0L && asOf < installAt) Vector.empty
    else source.accumulate(s, k, asOf)

  private[dd] def shardSnapshot(s: Int, asOf: Long): IndexedSeq[(K, V, Long)] =
    if (installAt >= 0L && asOf < installAt) Vector.empty
    else source.shardSnapshot(s, asOf)

  def importInto(df2: Dataflow): ImportedArranged[K, V] = source.importInto(df2)
  def copyInto(df2: Dataflow): Arranged[K, V]           = source.copyInto(df2)
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
