package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Incrementally maintained grouped aggregate: the reusable stateful
  * operator that realizes the paper's `group` (§5.3.2) on Catalyst.
  *
  * State is a DataFrame keyed by `groupCols` holding partial aggregates.
  * Each epoch's pre-aggregated delta is merged by union + re-aggregation;
  * `localCheckpoint` materializes the state and truncates lineage so plan
  * depth stays constant across epochs. Every aggregate is a `sum` (counts
  * are sums of 1) over an exact integer column, so results are independent
  * of merge order and retractions subtract.
  */
final class IncrementalAgg(groupCols: Seq[String], sumCols: Seq[String]) {

  private var state: Option[DataFrame] = None

  private def mergeExprs: Seq[Column] = sumCols.map(c => sum(col(c)).as(c))

  private def aggregate(rows: DataFrame): DataFrame =
    if (groupCols.isEmpty) rows.agg(mergeExprs.head, mergeExprs.tail: _*)
    else rows.groupBy(groupCols.map(col): _*).agg(mergeExprs.head, mergeExprs.tail: _*)

  /** Merge one epoch's rows (columns: groupCols ++ agg input columns). */
  def merge(rows: DataFrame): Unit = {
    val partial = aggregate(rows)
    val next = state match {
      case None    => partial
      case Some(s) => aggregate(s.unionByName(partial))
    }
    state = Some(next.localCheckpoint(true))
  }

  /** Current state; `merge` must have run at least once (install does). */
  def snapshot: DataFrame =
    state.getOrElse(throw new IllegalStateException("IncrementalAgg not initialized"))

  def stateRows: Long = state.map(_.count()).getOrElse(0L)
}
