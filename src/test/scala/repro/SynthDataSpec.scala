package repro

import org.apache.spark.sql.functions._

/** Schema and determinism checks for the TPC-H-lite generators. */
class SynthDataSpec extends SparkSpec {

  test("lineitem carries the extended columns needed by Q1-Q22") {
    val l = SynthData.lineitem(spark, 0.001)
    val cols = l.columns.toSet
    for (c <- Seq("l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
                  "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate",
                  "l_commitdate", "l_receiptdate", "l_shipmode"))
      assert(cols.contains(c), c)
  }

  test("foreign keys land inside the referenced key ranges") {
    val sf = 0.001
    val l  = SynthData.lineitem(spark, sf)
    val nOrders = SynthData.orders(spark, sf).count()
    val nSupp   = SynthData.supplier(spark, sf).count()
    val r = l.agg(max("l_orderkey"), max("l_suppkey"), min("l_orderkey"), min("l_suppkey")).first()
    assert(r.getLong(0) <= nOrders && r.getLong(1) <= nSupp)
    assert(r.getLong(2) >= 1L && r.getLong(3) >= 1L)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, 0.001).agg(sum("l_orderkey")).first().getLong(0)
    val b = SynthData.lineitem(spark, 0.001).agg(sum("l_orderkey")).first().getLong(0)
    assert(a == b)
  }

  test("nation and region are the static TPC-H domains") {
    assert(SynthData.nation(spark).count() == 25L)
    assert(SynthData.region(spark).count() == 5L)
    val joined = SynthData.nation(spark)
      .join(SynthData.region(spark), col("n_regionkey") === col("r_regionkey"))
    assert(joined.count() == 25L, "every nation belongs to a region")
  }

  test("partsupp has unique (partkey, suppkey) pairs inside the key ranges") {
    val ps = SynthData.partsupp(spark, 0.01)
    assert(ps.count() == ps.select("ps_partkey", "ps_suppkey").distinct().count())
    val nPart = SynthData.part(spark, 0.01).count()
    assert(ps.agg(max("ps_partkey")).first().getLong(0) <= nPart)
  }

  test("scale factor scales table sizes linearly") {
    val small = SynthData.orders(spark, 0.001).count()
    val large = SynthData.orders(spark, 0.01).count()
    assert(math.abs(large - 10 * small) <= 10)
  }
}
