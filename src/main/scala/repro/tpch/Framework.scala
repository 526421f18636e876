package repro.tpch

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ArrangementRegistry, IncrementalAgg, SparkArrangement}
import scala.collection.mutable

/** A dimension arrangement required by a query: registry name, index keys,
  * and the builder run when the arrangement does not exist yet.
  */
final case class DimSpec(name: String, keys: Seq[String], build: TpchTables => DataFrame)

object DimSpec {
  val orders   = DimSpec("orders", Seq("o_orderkey"), _.orders)
  val customer = DimSpec("customer", Seq("c_custkey"), _.customer)
  val part     = DimSpec("part", Seq("p_partkey"), _.part)
  val supplier = DimSpec("supplier", Seq("s_suppkey"), _.supplier)
  val partsupp = DimSpec("partsupp", Seq("ps_partkey", "ps_suppkey"), _.partsupp)
  val nation   = DimSpec("nation", Seq("n_nationkey"), _.nation)
  val region   = DimSpec("region", Seq("r_regionkey"), _.region)
}

/** One TPC-H-lite query (schema per DESIGN.md): batch semantics are defined
  * by `duckSql` (the oracle); the Spark side is assembled from the same
  * pieces used incrementally, so oracle-checking the batch form also
  * validates the streaming building blocks.
  */
sealed trait LiteQuery {
  def name: String
  def dims: Seq[DimSpec]
  def duckSql: String
  def usesLineitem: Boolean

  /** Batch evaluation over full tables (for Figure 13 and the oracle). */
  def batch(t: TpchTables): DataFrame
}

/** A windowed-fact query: per-epoch `rows` from the lineitem delta joined
  * against dimension snapshots, merged into grouped aggregate state, with a
  * `finalizeDf` projection over the state (and dims) producing the result.
  */
final case class StreamingLite(
    name: String,
    dims: Seq[DimSpec],
    rows: (DataFrame, Map[String, DataFrame]) => DataFrame,
    groupCols: Seq[String],
    sumCols: Seq[String],
    finalizeDf: (DataFrame, Map[String, DataFrame]) => DataFrame,
    duckSql: String,
) extends LiteQuery {
  def usesLineitem = true
  def batch(t: TpchTables): DataFrame = {
    val dimMap = t.byName
    val agg    = new IncrementalAgg(groupCols, sumCols)
    agg.merge(rows(t.lineitem, dimMap))
    finalizeDf(agg.snapshot, dimMap)
  }
}

/** A query that does not derive from lineitem: evaluated once at install
  * from arrangement snapshots (the five such queries in §6.1.1).
  */
final case class StaticLite(
    name: String,
    dims: Seq[DimSpec],
    eval: Map[String, DataFrame] => DataFrame,
    duckSql: String,
) extends LiteQuery {
  def usesLineitem = false
  def batch(t: TpchTables): DataFrame = eval(t.byName)
}

/** An installed (standing) query: owns or imports its dimension
  * arrangements, maintains aggregate state across epochs, and reports the
  * install cost — the quantity Figure 1a measures.
  */
final class QueryInstance private (
    val query: LiteQuery,
    dimArrs: Map[String, SparkArrangement],
    privateArrs: Seq[SparkArrangement],
    registryNames: Seq[String],
    reg: ArrangementRegistry,
    agg: Option[IncrementalAgg],
    staticResult: Option[DataFrame],
    val installMillis: Long,
) {

  /** Live snapshots of the dimension arrangements (they may be appended to
    * between epochs — the multiversioned trace advances underneath readers).
    */
  private def dimMap: Map[String, DataFrame] = dimArrs.view.mapValues(_.current).toMap

  /** This instance's privately owned arrangements (empty when sharing). */
  def privateArrangements: Seq[SparkArrangement] = privateArrs

  /** Feed one epoch's lineitem window delta. */
  def onEpoch(lineitemDelta: DataFrame): Unit = query match {
    case q: StreamingLite => agg.get.merge(q.rows(lineitemDelta, dimMap))
    case _: StaticLite    => () // static queries do not observe the stream
  }

  /** The query's current result. */
  def result(): DataFrame = query match {
    case q: StreamingLite => q.finalizeDf(agg.get.snapshot, dimMap)
    case _: StaticLite    => staticResult.get
  }

  /** Rows retained privately by this query (its un-shared index state). */
  def privateRows: Long = privateArrs.map(_.totalRows).sum + agg.map(_.stateRows).getOrElse(0L)

  def privateBytes: Long = privateArrs.map(_.estimatedBytes).sum

  /** Retire the query: release imported traces, free private state. */
  def uninstall(): Unit = {
    registryNames.foreach(reg.release)
    privateArrs.foreach(_.unpersistAll())
    staticResult.foreach(_.unpersist())
  }
}

object QueryInstance {

  /** Install `query`. With `shared = true` dimension arrangements are
    * imported from (or created once in) the registry; with `shared = false`
    * every dimension is re-indexed into a private arrangement — the
    * duplicated state of conventional stream processors. The returned
    * instance records the wall-clock install latency, including the initial
    * evaluation that produces the query's first correct result.
    */
  def install(
      query: LiteQuery,
      tables: TpchTables,
      reg: ArrangementRegistry,
      shared: Boolean,
      instanceId: String,
  ): QueryInstance = {
    val spark = tables.orders.sparkSession
    val t0    = System.nanoTime()

    val privateArrs   = mutable.ArrayBuffer.empty[SparkArrangement]
    val registryNames = mutable.ArrayBuffer.empty[String]
    val dimArrs: Map[String, SparkArrangement] = query.dims.map { d =>
      if (shared) {
        registryNames += d.name
        d.name -> reg.arrangeOrImport(d.name, d.keys)(d.build(tables))
      } else {
        val arr = SparkArrangement.build(s"${d.name}-$instanceId", d.keys, d.build(tables), reg.partitions)
        privateArrs += arr
        d.name -> arr
      }
    }.toMap
    val dimMap: Map[String, DataFrame] = dimArrs.view.mapValues(_.current).toMap

    var agg: Option[IncrementalAgg]       = None
    var staticResult: Option[DataFrame]   = None
    query match {
      case q: StreamingLite =>
        val a = new IncrementalAgg(q.groupCols, q.sumCols)
        // Initialize state with an empty window so the schema exists and the
        // first result (empty, correct for a windowed query) is available.
        a.merge(q.rows(tables.lineitem.limit(0), dimMap))
        // Force the initial (empty) result so install latency includes
        // time-to-first-correct-answer.
        q.finalizeDf(a.snapshot, dimMap).count()
        agg = Some(a)
      case q: StaticLite =>
        val res = q.eval(dimMap).persist()
        res.count()
        staticResult = Some(res)
    }
    val ms = (System.nanoTime() - t0) / 1000000L
    new QueryInstance(query, dimArrs, privateArrs.toSeq, registryNames.toSeq, reg, agg, staticResult, ms)
  }
}
