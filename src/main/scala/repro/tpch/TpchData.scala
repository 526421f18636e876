package repro.tpch

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData

/** The eight TPC-H-lite relations at a scale factor (generated by
  * [[repro.SynthData]]; deterministic in (sf, seed)).
  */
final case class TpchTables(
    lineitem: DataFrame,
    orders: DataFrame,
    customer: DataFrame,
    part: DataFrame,
    supplier: DataFrame,
    partsupp: DataFrame,
    nation: DataFrame,
    region: DataFrame,
) {
  /** Table name -> DataFrame, for the DuckDB oracle and for batch plans. */
  def byName: Map[String, DataFrame] = Map(
    "lineitem" -> lineitem, "orders" -> orders, "customer" -> customer,
    "part" -> part, "supplier" -> supplier, "partsupp" -> partsupp,
    "nation" -> nation, "region" -> region,
  )
}

object TpchData {
  def generate(spark: SparkSession, sf: Double): TpchTables = TpchTables(
    lineitem = SynthData.lineitem(spark, sf),
    orders   = SynthData.orders(spark, sf),
    customer = SynthData.customer(spark, sf),
    part     = SynthData.part(spark, sf),
    supplier = SynthData.supplier(spark, sf),
    partsupp = SynthData.partsupp(spark, sf),
    nation   = SynthData.nation(spark),
    region   = SynthData.region(spark),
  )

  /** Cache every relation and force materialization (benchmark setup). */
  def cached(spark: SparkSession, sf: Double): TpchTables = {
    val t = generate(spark, sf)
    t.byName.values.foreach { df => df.persist(); df.count() }
    t
  }
}
