package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** Column conventions and helpers for delta collections: DataFrames of
  * `(payload…, __time, __diff)` update triples (§3.3's collection traces,
  * realized on Catalyst).
  */
object Delta {
  val TimeCol = "__time"
  val DiffCol = "__diff"

  /** Stamp a plain relation as a batch of insertions at `time`. */
  def fromBatch(df: DataFrame, time: Long): DataFrame =
    df.withColumn(TimeCol, lit(time)).withColumn(DiffCol, lit(1L))

  private def payloadCols(df: DataFrame): Seq[String] =
    df.columns.toSeq.filterNot(c => c == TimeCol || c == DiffCol)

  /** Accumulate a delta collection at `asOf`: net diffs per payload row. */
  def accumulateAsOf(df: DataFrame, asOf: Long): DataFrame = {
    val pay = payloadCols(df)
    df.filter(col(TimeCol) <= asOf)
      .groupBy(pay.map(col): _*)
      .agg(sum(DiffCol) as DiffCol)
      .filter(col(DiffCol) =!= 0L)
  }

  /** Compact update times to their representative `rep_F(t) = max(t, f)`
    * (the total-order instance of Appendix A) and coalesce.
    */
  def compactTo(df: DataFrame, frontier: Long): DataFrame = {
    val pay = payloadCols(df)
    df.withColumn(TimeCol, greatest(col(TimeCol), lit(frontier)))
      .groupBy((pay :+ TimeCol).map(col): _*)
      .agg(sum(DiffCol) as DiffCol)
      .filter(col(DiffCol) =!= 0L)
  }
}

/** A shared arrangement on Spark: a collection trace realized as an LSM
  * spine of cached, key-partitioned DataFrames of update triples (§4).
  *
  * The single writer appends immutable batches per epoch ([[append]]); the
  * spine keeps geometrically sized layers via merge-and-compact, exactly
  * the amortized maintenance of §4.2 at DataFrame granularity. Readers —
  * any number of concurrently installed queries — join against
  * [[current]], the cached consolidated view, or any multiversioned
  * [[collectionAsOf]] view. Sharing happens through [[ArrangementRegistry]].
  */
final class SparkArrangement private (
    val name: String,
    val keyCols: Seq[String],
    val spark: SparkSession,
    val partitions: Int,
) {

  private final case class Layer(df: DataFrame, lower: Long, upper: Long, rows: Long)

  private var layers: List[Layer] = Nil // oldest first
  private var frontierVar: Long   = 0L
  private var compactionVar: Long = 0L
  private var currentCache: Option[(Long, DataFrame)] = None

  /** Last closed epoch: reads at this time see all appended batches. */
  def frontier: Long = frontierVar

  def compactionFrontier: Long = compactionVar

  private def indexed(df: DataFrame): DataFrame =
    df.repartition(partitions, keyCols.map(col): _*)
      .sortWithinPartitions(keyCols.map(col): _*)
      .persist(StorageLevel.MEMORY_AND_DISK)

  /** Append one epoch's delta (a plain relation slice or a ±diff delta
    * frame) closing `epoch`. Pays the shuffle + index + materialize cost —
    * what the paper's arrange operator does on batch minting.
    */
  def append(delta: DataFrame, epoch: Long): Unit = {
    require(epoch > frontierVar, s"epoch $epoch must advance past ${frontierVar}")
    val withMeta =
      if (delta.columns.contains(Delta.DiffCol)) delta
      else Delta.fromBatch(delta, epoch)
    val df   = indexed(withMeta)
    val rows = df.count()
    layers = layers :+ Layer(df, frontierVar, epoch, rows)
    frontierVar = epoch
    invalidateCurrent()
    maybeMerge()
  }

  /** Advance the compaction frontier (all readers are beyond it). Times
    * below it are folded together at the next merge.
    */
  def advanceCompaction(f: Long): Unit = compactionVar = math.max(compactionVar, f)

  /** Geometric merge maintenance: merge adjacent layers whenever an older
    * layer is no more than twice the size of its newer neighbour.
    */
  private def maybeMerge(): Unit = {
    var done = false
    while (!done) {
      val idx = layers.indices.dropRight(1).findLast(i => layers(i).rows <= 2L * layers(i + 1).rows)
      idx match {
        case Some(i) =>
          val (a, b) = (layers(i), layers(i + 1))
          val merged = Delta.compactTo(a.df.unionByName(b.df), compactionVar)
          val df     = indexed(merged)
          val rows   = df.count()
          a.df.unpersist(); b.df.unpersist()
          layers = layers.patch(i, List(Layer(df, a.lower, b.upper, rows)), 2)
        case None => done = true
      }
    }
  }

  private def invalidateCurrent(): Unit = {
    currentCache.foreach(_._2.unpersist())
    currentCache = None
  }

  /** The accumulated collection at time `asOf` (payload + __diff). */
  def collectionAsOf(asOf: Long): DataFrame = {
    val all = layers.map(_.df) match {
      case Nil    => Delta.fromBatch(spark.emptyDataFrame, 0L) // never joined; layers exist in practice
      case h :: t => t.foldLeft(h)(_ unionByName _)
    }
    Delta.accumulateAsOf(all, asOf)
  }

  /** Cached consolidated view at the current frontier — what lookup joins
    * read. Rebuilt lazily after appends.
    */
  def current: DataFrame = currentCache match {
    case Some((f, df)) if f == frontierVar => df
    case _ =>
      invalidateCurrent()
      val df = collectionAsOf(frontierVar)
        .drop(Delta.DiffCol)
        .repartition(partitions, keyCols.map(col): _*)
        .persist(StorageLevel.MEMORY_AND_DISK)
      df.count()
      currentCache = Some((frontierVar, df))
      df
  }

  def layerCount: Int = layers.size
  def totalRows: Long = layers.map(_.rows).sum

  /** Bytes retained by this arrangement's cached layers (Catalyst stats). */
  def estimatedBytes: Long =
    (layers.map(_.df) ++ currentCache.map(_._2))
      .map(df => df.queryExecution.optimizedPlan.stats.sizeInBytes.toLong)
      .sum

  /** Release all cached state (query retirement / registry drop). */
  def unpersistAll(): Unit = {
    layers.foreach(_.df.unpersist())
    layers = Nil
    invalidateCurrent()
  }
}

object SparkArrangement {
  /** Build a new arrangement from an initial collection at epoch 1. */
  def build(name: String, keys: Seq[String], initial: DataFrame, partitions: Int = 64): SparkArrangement = {
    val arr = new SparkArrangement(name, keys, initial.sparkSession, partitions)
    arr.append(initial, 1L)
    arr
  }

  /** An empty arrangement (e.g. a per-query windowed fact stream). */
  def empty(name: String, keys: Seq[String], spark: SparkSession, partitions: Int = 64): SparkArrangement =
    new SparkArrangement(name, keys, spark, partitions)
}

/** The sharing site (§4.3): queries ask for an arrangement by name; the
  * first request *builds* it (shuffle + index + materialize), later requests
  * *import* the existing trace at zero cost. Dropping the last reader
  * releases the state. In unshared mode, callers bypass the registry and
  * build private arrangements, paying the duplication the paper measures.
  */
final class ArrangementRegistry(val spark: SparkSession, val partitions: Int = 64) {

  private val arrs    = mutable.LinkedHashMap.empty[String, SparkArrangement]
  private val readers = mutable.HashMap.empty[String, Int].withDefaultValue(0)

  def arrangeOrImport(name: String, keys: Seq[String])(build: => DataFrame): SparkArrangement =
    synchronized {
      arrs.get(name) match {
        case Some(arr) =>
          readers(name) += 1
          arr
        case None =>
          val arr = SparkArrangement.build(name, keys, build, partitions)
          arr.current // materialize the consolidated view too
          arrs(name) = arr
          readers(name) = 1
          arr
      }
    }

  def get(name: String): Option[SparkArrangement] = synchronized(arrs.get(name))

  /** A reader detaches; the trace is freed when the last reader leaves. */
  def release(name: String): Unit = synchronized {
    if (arrs.contains(name)) {
      readers(name) -= 1
      if (readers(name) <= 0) {
        arrs.remove(name).foreach(_.unpersistAll())
        readers.remove(name)
      }
    }
  }

  def totalRows: Long  = synchronized(arrs.values.map(_.totalRows).sum)
  def totalBytes: Long = synchronized(arrs.values.map(_.estimatedBytes).sum)
  def names: Seq[String] = synchronized(arrs.keys.toSeq)

  def clear(): Unit = synchronized {
    arrs.values.foreach(_.unpersistAll())
    arrs.clear(); readers.clear()
  }
}
