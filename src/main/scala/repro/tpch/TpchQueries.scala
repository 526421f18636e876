package repro.tpch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The 22 TPC-H-lite queries over the SynthData schema (see DESIGN.md for
  * the lite-fication rules). Every query exists in two coupled forms:
  *
  *  - a Spark form assembled from the incremental building blocks
  *    (per-epoch `rows` + mergeable grouped aggregates + finalization), and
  *  - a DuckDB SQL string with *identical* semantics, used by the oracle.
  *
  * All monetary aggregates are integer cents (`BIGINT`), so sums are exact
  * and independent of merge/evaluation order on both engines. Five queries
  * (Q2, Q11, Q13, Q16, Q22) do not derive from lineitem and are static —
  * matching the two query populations of §6.1.1.
  */
object TpchQueries {

  // ---------------------------------------------------------------- helpers

  /** round(x * 100) as BIGINT — exact cents from a double expression. */
  private def cents(c: Column): Column = round(c * 100).cast("long")

  private val revC: Column = cents(col("l_extendedprice") * (lit(1.0) - col("l_discount")))

  private def dC(expr: String) = s"CAST(round(($expr) * 100) AS BIGINT)"
  private val dRev  = dC("l_extendedprice * (1 - l_discount)")
  private val dQty  = dC("l_quantity")
  private val dAcct = dC("c_acctbal")
  private val dCost = dC("ps_supplycost")

  private def dim(m: Map[String, DataFrame], name: String): DataFrame = m(name)

  import DimSpec._

  // ------------------------------------------------------------------- Q1
  val q1: LiteQuery = StreamingLite(
    name = "q01",
    dims = Nil,
    rows = (l, _) =>
      l.filter(col("l_shipdate") <= "1998-09-02").select(
        col("l_returnflag"), col("l_linestatus"),
        cents(col("l_quantity")) as "sum_qty_c",
        cents(col("l_extendedprice")) as "sum_base_c",
        revC as "sum_disc_c",
        cents(col("l_extendedprice") * (lit(1.0) - col("l_discount")) * (lit(1.0) + col("l_tax"))) as "sum_charge_c",
        lit(1L) as "count_order",
      ),
    groupCols = Seq("l_returnflag", "l_linestatus"),
    sumCols = Seq("sum_qty_c", "sum_base_c", "sum_disc_c", "sum_charge_c", "count_order"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT l_returnflag, l_linestatus,
             SUM($dQty) AS sum_qty_c,
             SUM(${dC("l_extendedprice")}) AS sum_base_c,
             SUM($dRev) AS sum_disc_c,
             SUM(${dC("l_extendedprice * (1 - l_discount) * (1 + l_tax)")}) AS sum_charge_c,
             COUNT(*) AS count_order
      FROM lineitem WHERE l_shipdate <= '1998-09-02'
      GROUP BY l_returnflag, l_linestatus""",
  )

  // ------------------------------------------------------------------- Q2
  val q2: LiteQuery = StaticLite(
    name = "q02",
    dims = Seq(part, partsupp, supplier, nation, region),
    eval = m =>
      dim(m, "part").filter(col("p_size") < 15)
        .join(dim(m, "partsupp"), col("p_partkey") === col("ps_partkey"))
        .join(dim(m, "supplier"), col("ps_suppkey") === col("s_suppkey"))
        .join(dim(m, "nation"), col("s_nationkey") === col("n_nationkey"))
        .join(dim(m, "region"), col("n_regionkey") === col("r_regionkey"))
        .filter(col("r_name") === "EUROPE")
        .groupBy("p_partkey")
        .agg(min(cents(col("ps_supplycost"))) as "min_cost_c"),
    duckSql = s"""
      SELECT p_partkey, MIN($dCost) AS min_cost_c
      FROM part, partsupp, supplier, nation, region
      WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey
        AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
        AND r_name = 'EUROPE' AND p_size < 15
      GROUP BY p_partkey""",
  )

  // ------------------------------------------------------------------- Q3
  val q3: LiteQuery = StreamingLite(
    name = "q03",
    dims = Seq(orders, customer),
    rows = (l, m) =>
      l.filter(col("l_shipdate") > "1995-03-15")
        .join(dim(m, "orders").filter(col("o_orderdate") < "1995-03-15"),
              col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "customer").filter(col("c_mktsegment") === "BUILDING"),
              col("o_custkey") === col("c_custkey"))
        .select(col("l_orderkey"), col("o_orderdate"), revC as "revenue_c"),
    groupCols = Seq("l_orderkey", "o_orderdate"),
    sumCols = Seq("revenue_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT l_orderkey, o_orderdate, SUM($dRev) AS revenue_c
      FROM lineitem, orders, customer
      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_mktsegment = 'BUILDING'
        AND l_shipdate > '1995-03-15' AND o_orderdate < '1995-03-15'
      GROUP BY l_orderkey, o_orderdate""",
  )

  // ------------------------------------------------------------------- Q4
  val q4: LiteQuery = StreamingLite(
    name = "q04",
    dims = Seq(orders),
    rows = (l, m) =>
      l.filter(col("l_commitdate") < col("l_receiptdate"))
        .join(dim(m, "orders")
                .filter(col("o_orderdate") >= "1993-07-01" && col("o_orderdate") < "1993-10-01"),
              col("l_orderkey") === col("o_orderkey"))
        .select(col("o_orderkey"), col("o_orderpriority"), lit(1L) as "qual_cnt"),
    groupCols = Seq("o_orderkey", "o_orderpriority"),
    sumCols = Seq("qual_cnt"),
    finalizeDf = (s, _) => s.groupBy("o_orderpriority").agg(count(lit(1)) as "order_count"),
    duckSql = """
      SELECT o_orderpriority, COUNT(*) AS order_count
      FROM (SELECT DISTINCT o_orderkey, o_orderpriority
            FROM orders, lineitem
            WHERE o_orderkey = l_orderkey AND l_commitdate < l_receiptdate
              AND o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01') AS t
      GROUP BY o_orderpriority""",
  )

  // ------------------------------------------------------------------- Q5
  val q5: LiteQuery = StreamingLite(
    name = "q05",
    dims = Seq(orders, customer, supplier, nation, region),
    rows = (l, m) =>
      l.join(dim(m, "orders")
               .filter(col("o_orderdate") >= "1994-01-01" && col("o_orderdate") < "1995-01-01"),
             col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "customer"), col("o_custkey") === col("c_custkey"))
        .join(dim(m, "supplier"), col("l_suppkey") === col("s_suppkey"))
        .filter(col("c_nationkey") === col("s_nationkey"))
        .join(dim(m, "nation"), col("s_nationkey") === col("n_nationkey"))
        .join(dim(m, "region"), col("n_regionkey") === col("r_regionkey"))
        .filter(col("r_name") === "ASIA")
        .select(col("n_name"), revC as "revenue_c"),
    groupCols = Seq("n_name"),
    sumCols = Seq("revenue_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT n_name, SUM($dRev) AS revenue_c
      FROM lineitem, orders, customer, supplier, nation, region
      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
        AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
        AND r_name = 'ASIA'
        AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01'
      GROUP BY n_name""",
  )

  // ------------------------------------------------------------------- Q6
  val q6: LiteQuery = StreamingLite(
    name = "q06",
    dims = Nil,
    rows = (l, _) =>
      l.filter(col("l_shipdate") >= "1994-01-01" && col("l_shipdate") < "1995-01-01" &&
               col("l_discount").between(0.05, 0.07) && col("l_quantity") < 24)
        .select(cents(col("l_extendedprice") * col("l_discount")) as "revenue6_c"),
    groupCols = Nil,
    sumCols = Seq("revenue6_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT SUM(${dC("l_extendedprice * l_discount")}) AS revenue6_c
      FROM lineitem
      WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
        AND l_discount BETWEEN 0.05 AND 0.07
        AND l_quantity < 24""",
  )

  // ------------------------------------------------------------------- Q7
  val q7: LiteQuery = StreamingLite(
    name = "q07",
    dims = Seq(supplier, orders, customer, nation),
    rows = (l, m) => {
      val n1 = dim(m, "nation").select(col("n_nationkey") as "n1_key", col("n_name") as "supp_nation")
      val n2 = dim(m, "nation").select(col("n_nationkey") as "n2_key", col("n_name") as "cust_nation")
      l.filter(col("l_shipdate").between("1995-01-01", "1996-12-31"))
        .join(dim(m, "supplier"), col("l_suppkey") === col("s_suppkey"))
        .join(dim(m, "orders"), col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "customer"), col("o_custkey") === col("c_custkey"))
        .join(n1, col("s_nationkey") === col("n1_key"))
        .join(n2, col("c_nationkey") === col("n2_key"))
        .filter((col("supp_nation") === "FRANCE" && col("cust_nation") === "GERMANY") ||
                (col("supp_nation") === "GERMANY" && col("cust_nation") === "FRANCE"))
        .select(col("supp_nation"), col("cust_nation"),
                year(col("l_shipdate")) as "l_year", revC as "volume_c")
    },
    groupCols = Seq("supp_nation", "cust_nation", "l_year"),
    sumCols = Seq("volume_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
             year(l_shipdate) AS l_year,
             SUM($dRev) AS volume_c
      FROM lineitem, supplier, orders, customer, nation n1, nation n2
      WHERE l_suppkey = s_suppkey AND l_orderkey = o_orderkey
        AND o_custkey = c_custkey AND s_nationkey = n1.n_nationkey
        AND c_nationkey = n2.n_nationkey
        AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
          OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
        AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31'
      GROUP BY 1, 2, 3""",
  )

  // ------------------------------------------------------------------- Q8
  val q8: LiteQuery = StreamingLite(
    name = "q08",
    dims = Seq(part, supplier, orders, customer, nation, region),
    rows = (l, m) => {
      val n1 = dim(m, "nation").select(col("n_nationkey") as "n1_key", col("n_name") as "n1_name")
      val n2 = dim(m, "nation").select(col("n_nationkey") as "n2_key", col("n_regionkey") as "n2_region")
      l.join(dim(m, "part").filter(col("p_type") === "ECONOMY"), col("l_partkey") === col("p_partkey"))
        .join(dim(m, "supplier"), col("l_suppkey") === col("s_suppkey"))
        .join(dim(m, "orders").filter(col("o_orderdate").between("1995-01-01", "1996-12-31")),
              col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "customer"), col("o_custkey") === col("c_custkey"))
        .join(n2, col("c_nationkey") === col("n2_key"))
        .join(dim(m, "region").filter(col("r_name") === "AMERICA"),
              col("n2_region") === col("r_regionkey"))
        .join(n1, col("s_nationkey") === col("n1_key"))
        .select(year(col("o_orderdate")) as "o_year",
                revC as "total_c",
                when(col("n1_name") === "BRAZIL", revC).otherwise(0L) as "brazil_c")
    },
    groupCols = Seq("o_year"),
    sumCols = Seq("total_c", "brazil_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT year(o_orderdate) AS o_year,
             SUM($dRev) AS total_c,
             SUM(CASE WHEN n1.n_name = 'BRAZIL' THEN $dRev ELSE 0 END) AS brazil_c
      FROM lineitem, part, supplier, orders, customer, nation n1, nation n2, region
      WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey
        AND l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n2.n_nationkey AND n2.n_regionkey = r_regionkey
        AND r_name = 'AMERICA' AND s_nationkey = n1.n_nationkey
        AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31'
        AND p_type = 'ECONOMY'
      GROUP BY 1""",
  )

  // ------------------------------------------------------------------- Q9
  val q9: LiteQuery = StreamingLite(
    name = "q09",
    dims = Seq(part, supplier, partsupp, orders, nation),
    rows = (l, m) =>
      l.join(dim(m, "part").filter(col("p_type") === "STANDARD"), col("l_partkey") === col("p_partkey"))
        .join(dim(m, "supplier"), col("l_suppkey") === col("s_suppkey"))
        .join(dim(m, "partsupp"),
              col("ps_partkey") === col("l_partkey") && col("ps_suppkey") === col("l_suppkey"))
        .join(dim(m, "orders"), col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "nation"), col("s_nationkey") === col("n_nationkey"))
        .select(col("n_name") as "nation", year(col("o_orderdate")) as "o_year",
                (revC - cents(col("ps_supplycost") * col("l_quantity"))) as "amount_c"),
    groupCols = Seq("nation", "o_year"),
    sumCols = Seq("amount_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT n_name AS nation, year(o_orderdate) AS o_year,
             SUM($dRev - ${dC("ps_supplycost * l_quantity")}) AS amount_c
      FROM lineitem, part, supplier, partsupp, orders, nation
      WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey
        AND ps_partkey = l_partkey AND ps_suppkey = l_suppkey
        AND l_orderkey = o_orderkey AND s_nationkey = n_nationkey
        AND p_type = 'STANDARD'
      GROUP BY 1, 2""",
  )

  // ------------------------------------------------------------------ Q10
  val q10: LiteQuery = StreamingLite(
    name = "q10",
    dims = Seq(orders, customer, nation),
    rows = (l, m) =>
      l.filter(col("l_returnflag") === "R")
        .join(dim(m, "orders")
                .filter(col("o_orderdate") >= "1993-10-01" && col("o_orderdate") < "1994-01-01"),
              col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "customer"), col("o_custkey") === col("c_custkey"))
        .join(dim(m, "nation"), col("c_nationkey") === col("n_nationkey"))
        .select(col("c_custkey"), col("n_name"), revC as "revenue_c"),
    groupCols = Seq("c_custkey", "n_name"),
    sumCols = Seq("revenue_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT c_custkey, n_name, SUM($dRev) AS revenue_c
      FROM lineitem, orders, customer, nation
      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n_nationkey AND l_returnflag = 'R'
        AND o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01'
      GROUP BY c_custkey, n_name""",
  )

  // ------------------------------------------------------------------ Q11
  val q11: LiteQuery = StaticLite(
    name = "q11",
    dims = Seq(partsupp, supplier, nation),
    eval = m => {
      val joined = dim(m, "partsupp")
        .join(dim(m, "supplier"), col("ps_suppkey") === col("s_suppkey"))
        .join(dim(m, "nation"), col("s_nationkey") === col("n_nationkey"))
        .filter(col("n_name") === "GERMANY")
        .select(col("ps_partkey"),
                (cents(col("ps_supplycost")) * col("ps_availqty").cast("long")) as "v")
      val per   = joined.groupBy("ps_partkey").agg(sum(col("v")) as "value_c")
      val total = per.agg(sum(col("value_c"))).first().getLong(0)
      per.filter(col("value_c") * 10000L > total)
    },
    duckSql = s"""
      SELECT ps_partkey, SUM(v) AS value_c
      FROM (SELECT ps_partkey, $dCost * ps_availqty AS v
            FROM partsupp, supplier, nation
            WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
              AND n_name = 'GERMANY') AS t
      GROUP BY ps_partkey
      HAVING SUM(v) * 10000 > (SELECT SUM($dCost * ps_availqty)
                               FROM partsupp, supplier, nation
                               WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
                                 AND n_name = 'GERMANY')""",
  )

  // ------------------------------------------------------------------ Q12
  val q12: LiteQuery = StreamingLite(
    name = "q12",
    dims = Seq(orders),
    rows = (l, m) =>
      l.filter(col("l_shipmode").isin("MAIL", "SHIP") &&
               col("l_commitdate") < col("l_receiptdate") &&
               col("l_shipdate") < col("l_commitdate") &&
               col("l_receiptdate") >= "1994-01-01" && col("l_receiptdate") < "1995-01-01")
        .join(dim(m, "orders"), col("l_orderkey") === col("o_orderkey"))
        .select(col("l_shipmode"),
                when(col("o_orderpriority").isin("1-URGENT", "2-HIGH"), 1L).otherwise(0L) as "high_c",
                when(col("o_orderpriority").isin("1-URGENT", "2-HIGH"), 0L).otherwise(1L) as "low_c"),
    groupCols = Seq("l_shipmode"),
    sumCols = Seq("high_c", "low_c"),
    finalizeDf = (s, _) => s,
    duckSql = """
      SELECT l_shipmode,
             SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS high_c,
             SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 0 ELSE 1 END) AS low_c
      FROM lineitem, orders
      WHERE l_orderkey = o_orderkey AND l_shipmode IN ('MAIL','SHIP')
        AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
        AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01'
      GROUP BY l_shipmode""",
  )

  // ------------------------------------------------------------------ Q13
  val q13: LiteQuery = StaticLite(
    name = "q13",
    dims = Seq(customer, orders),
    eval = m =>
      dim(m, "customer")
        .join(dim(m, "orders"), col("c_custkey") === col("o_custkey"), "left")
        .groupBy("c_custkey")
        .agg(count(col("o_orderkey")) as "c_count")
        .groupBy("c_count")
        .agg(count(lit(1)) as "custdist"),
    duckSql = """
      SELECT c_count, COUNT(*) AS custdist
      FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
            FROM customer LEFT JOIN orders ON c_custkey = o_custkey
            GROUP BY c_custkey) AS t
      GROUP BY c_count""",
  )

  // ------------------------------------------------------------------ Q14
  val q14: LiteQuery = StreamingLite(
    name = "q14",
    dims = Seq(part),
    rows = (l, m) =>
      l.filter(col("l_shipdate") >= "1995-09-01" && col("l_shipdate") < "1995-10-01")
        .join(dim(m, "part"), col("l_partkey") === col("p_partkey"))
        .select(revC as "total_c",
                when(col("p_type") === "PROMO", revC).otherwise(0L) as "promo_c"),
    groupCols = Nil,
    sumCols = Seq("total_c", "promo_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT SUM($dRev) AS total_c,
             SUM(CASE WHEN p_type = 'PROMO' THEN $dRev ELSE 0 END) AS promo_c
      FROM lineitem, part
      WHERE l_partkey = p_partkey
        AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'""",
  )

  // ------------------------------------------------------------------ Q15
  val q15: LiteQuery = StreamingLite(
    name = "q15",
    dims = Nil,
    rows = (l, _) =>
      l.filter(col("l_shipdate") >= "1996-01-01" && col("l_shipdate") < "1996-04-01")
        .select(col("l_suppkey"), revC as "total_c"),
    groupCols = Seq("l_suppkey"),
    sumCols = Seq("total_c"),
    finalizeDf = (s, _) => {
      val m = s.agg(max(col("total_c"))).first()
      if (m.isNullAt(0)) s.limit(0) else s.filter(col("total_c") === m.getLong(0))
    },
    duckSql = s"""
      WITH r AS (SELECT l_suppkey, SUM($dRev) AS total_c
                 FROM lineitem
                 WHERE l_shipdate >= '1996-01-01' AND l_shipdate < '1996-04-01'
                 GROUP BY l_suppkey)
      SELECT l_suppkey, total_c FROM r WHERE total_c = (SELECT MAX(total_c) FROM r)""",
  )

  // ------------------------------------------------------------------ Q16
  val q16: LiteQuery = StaticLite(
    name = "q16",
    dims = Seq(partsupp, part),
    eval = m =>
      dim(m, "partsupp")
        .join(dim(m, "part"), col("ps_partkey") === col("p_partkey"))
        .filter(col("p_type") =!= "STANDARD" && col("p_size").isin(1, 4, 9, 14, 19, 23, 36, 45))
        .groupBy("p_type", "p_size")
        .agg(countDistinct(col("ps_suppkey")) as "supplier_cnt"),
    duckSql = """
      SELECT p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
      FROM partsupp, part
      WHERE ps_partkey = p_partkey AND p_type <> 'STANDARD'
        AND p_size IN (1, 4, 9, 14, 19, 23, 36, 45)
      GROUP BY p_type, p_size""",
  )

  // ------------------------------------------------------------------ Q17
  val q17: LiteQuery = StreamingLite(
    name = "q17",
    dims = Seq(part),
    rows = (l, m) =>
      l.join(dim(m, "part").filter(col("p_type") === "SMALL"), col("l_partkey") === col("p_partkey"))
        .filter(col("l_quantity") < lit(0.2) * col("p_size"))
        .select(cents(col("l_extendedprice")) as "total17_c"),
    groupCols = Nil,
    sumCols = Seq("total17_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT SUM(${dC("l_extendedprice")}) AS total17_c
      FROM lineitem, part
      WHERE l_partkey = p_partkey AND p_type = 'SMALL'
        AND l_quantity < 0.2 * p_size""",
  )

  // ------------------------------------------------------------------ Q18
  val q18: LiteQuery = StreamingLite(
    name = "q18",
    dims = Seq(orders),
    rows = (l, m) =>
      l.join(dim(m, "orders"), col("l_orderkey") === col("o_orderkey"))
        .select(col("o_orderkey"), col("o_custkey"), cents(col("l_quantity")) as "sum_qty_c"),
    groupCols = Seq("o_orderkey", "o_custkey"),
    sumCols = Seq("sum_qty_c"),
    finalizeDf = (s, _) => s.filter(col("sum_qty_c") > 15000L),
    duckSql = s"""
      SELECT o_orderkey, o_custkey, SUM($dQty) AS sum_qty_c
      FROM lineitem, orders WHERE l_orderkey = o_orderkey
      GROUP BY o_orderkey, o_custkey
      HAVING SUM($dQty) > 15000""",
  )

  // ------------------------------------------------------------------ Q19
  val q19: LiteQuery = StreamingLite(
    name = "q19",
    dims = Seq(part),
    rows = (l, m) =>
      l.join(dim(m, "part"), col("l_partkey") === col("p_partkey"))
        .filter(col("l_shipmode").isin("AIR", "RAIL") && (
          (col("p_type") === "PROMO" && col("l_quantity").between(1, 11) && col("p_size").between(1, 5)) ||
          (col("p_type") === "MEDIUM" && col("l_quantity").between(10, 20) && col("p_size").between(1, 10)) ||
          (col("p_type") === "LARGE" && col("l_quantity").between(20, 30) && col("p_size").between(1, 15))))
        .select(revC as "revenue19_c"),
    groupCols = Nil,
    sumCols = Seq("revenue19_c"),
    finalizeDf = (s, _) => s,
    duckSql = s"""
      SELECT SUM($dRev) AS revenue19_c
      FROM lineitem, part
      WHERE l_partkey = p_partkey AND l_shipmode IN ('AIR','RAIL') AND (
           (p_type = 'PROMO'  AND l_quantity BETWEEN 1  AND 11 AND p_size BETWEEN 1 AND 5)
        OR (p_type = 'MEDIUM' AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
        OR (p_type = 'LARGE'  AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))""",
  )

  // ------------------------------------------------------------------ Q20
  val q20: LiteQuery = StreamingLite(
    name = "q20",
    dims = Seq(partsupp, part, supplier, nation),
    rows = (l, _) =>
      l.filter(col("l_shipdate") >= "1994-01-01" && col("l_shipdate") < "1995-01-01")
        .select(col("l_partkey"), col("l_suppkey"), cents(col("l_quantity")) as "qty_c"),
    groupCols = Seq("l_partkey", "l_suppkey"),
    sumCols = Seq("qty_c"),
    finalizeDf = (s, m) =>
      s.join(dim(m, "partsupp"),
             col("ps_partkey") === col("l_partkey") && col("ps_suppkey") === col("l_suppkey"))
        .join(dim(m, "part").filter(col("p_type") === "PROMO"), col("ps_partkey") === col("p_partkey"))
        .join(dim(m, "supplier"), col("ps_suppkey") === col("s_suppkey"))
        .join(dim(m, "nation").filter(col("n_name") === "CANADA"),
              col("s_nationkey") === col("n_nationkey"))
        .filter(col("ps_availqty").cast("long") * 200L > col("qty_c"))
        .select(col("s_suppkey")).distinct(),
    duckSql = s"""
      SELECT DISTINCT s_suppkey
      FROM partsupp, supplier, nation, part,
           (SELECT l_partkey, l_suppkey, SUM($dQty) AS qty_c
            FROM lineitem
            WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
            GROUP BY l_partkey, l_suppkey) AS w
      WHERE ps_partkey = w.l_partkey AND ps_suppkey = w.l_suppkey
        AND ps_partkey = p_partkey AND p_type = 'PROMO'
        AND ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
        AND n_name = 'CANADA'
        AND ps_availqty * 200 > w.qty_c""",
  )

  // ------------------------------------------------------------------ Q21
  val q21: LiteQuery = StreamingLite(
    name = "q21",
    dims = Seq(orders, supplier, nation),
    rows = (l, m) =>
      l.filter(col("l_receiptdate") > col("l_commitdate"))
        .join(dim(m, "orders").filter(col("o_orderstatus") === "F"),
              col("l_orderkey") === col("o_orderkey"))
        .join(dim(m, "supplier"), col("l_suppkey") === col("s_suppkey"))
        .join(dim(m, "nation").filter(col("n_name") === "SAUDI ARABIA"),
              col("s_nationkey") === col("n_nationkey"))
        .select(col("s_suppkey"), lit(1L) as "numwait"),
    groupCols = Seq("s_suppkey"),
    sumCols = Seq("numwait"),
    finalizeDf = (s, _) => s,
    duckSql = """
      SELECT s_suppkey, COUNT(*) AS numwait
      FROM lineitem, orders, supplier, nation
      WHERE l_orderkey = o_orderkey AND o_orderstatus = 'F'
        AND l_receiptdate > l_commitdate
        AND l_suppkey = s_suppkey AND s_nationkey = n_nationkey
        AND n_name = 'SAUDI ARABIA'
      GROUP BY s_suppkey""",
  )

  // ------------------------------------------------------------------ Q22
  private val q22Nations = Seq(3, 7, 11, 15, 19, 23)
  val q22: LiteQuery = StaticLite(
    name = "q22",
    dims = Seq(customer, orders),
    eval = m => {
      val cust = dim(m, "customer")
        .filter(col("c_nationkey").isin(q22Nations: _*))
        .withColumn("acct_c", cents(col("c_acctbal")))
      val stats = cust.filter(col("c_acctbal") > 0)
        .agg(count(lit(1)) as "cnt", sum(col("acct_c")) as "s")
        .first()
      val (cnt, sumPos) = (stats.getLong(0), stats.getLong(1))
      cust.filter(col("acct_c") * cnt > sumPos)
        .join(dim(m, "orders"), col("c_custkey") === col("o_custkey"), "left_anti")
        .groupBy("c_nationkey")
        .agg(count(lit(1)) as "numcust", sum(col("acct_c")) as "totacct_c")
    },
    duckSql = {
      val inList  = q22Nations.mkString(", ")
      s"""
      SELECT c_nationkey, COUNT(*) AS numcust, SUM($dAcct) AS totacct_c
      FROM customer
      WHERE c_nationkey IN ($inList)
        AND $dAcct * (SELECT COUNT(*) FROM customer
                      WHERE c_acctbal > 0 AND c_nationkey IN ($inList))
            > (SELECT SUM($dAcct) FROM customer
               WHERE c_acctbal > 0 AND c_nationkey IN ($inList))
        AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
      GROUP BY c_nationkey"""
    },
  )

  /** All 22 queries in order. */
  val all: Seq[LiteQuery] = Seq(q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
    q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22)

  def byName(n: String): LiteQuery = all.find(_.name == n).get
}
