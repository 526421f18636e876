package repro.tpch

import java.sql.Connection
import repro.{Oracle, SparkSpec}

/** Every TPC-H-lite query's batch form is checked row-for-row against the
  * same SQL evaluated by DuckDB over the same generated input (SF 0.01) —
  * this validates joins, filters, grouping, and the exact-cents arithmetic
  * shared with the incremental forms. The tables are loaded into DuckDB once
  * for the suite.
  */
class TpchQueriesSpec extends SparkSpec {

  private lazy val tables: TpchTables = TpchData.cached(spark, sf = 0.01)
  private var duck: Connection = _

  override def beforeAll(): Unit = {
    super.beforeAll()
    duck = Oracle.load(tables.byName.toSeq: _*)
  }

  override def afterAll(): Unit =
    try if (duck != null) duck.close() finally super.afterAll()

  for (q <- TpchQueries.all)
    test(s"${q.name} batch result matches DuckDB") {
      Oracle.assertEquivalent(duck, q.batch(tables), q.duckSql)
    }
}
