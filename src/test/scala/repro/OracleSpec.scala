package repro

import java.sql.Connection

/** The DuckDB oracle itself: how it compares results, and how it loads tables. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private def withDuck(tables: (String, org.apache.spark.sql.DataFrame)*)(body: Connection => Unit): Unit = {
    val duck = Oracle.load(tables: _*)
    try body(duck) finally duck.close()
  }

  test("columns are matched by lowercased name whatever the alias case") {
    withDuck() { duck =>
      Oracle.assertEquivalent(duck, Seq((1L, 2L)).toDF("B", "a"), "SELECT 1 AS b, 2 AS a")
    }
  }

  test("rows with the same concatenation but different fields compare in any order") {
    withDuck() { duck =>
      Oracle.assertEquivalent(duck, Seq(("1", "23"), ("12", "3")).toDF("x", "y"),
        "SELECT x, y FROM (VALUES ('12', '3'), ('1', '23')) t(x, y) ORDER BY x DESC")
    }
  }

  test("a changed value is reported as a mismatch") {
    withDuck() { duck =>
      val e = intercept[IllegalArgumentException](
        Oracle.assertEquivalent(duck, Seq(("1", "23"), ("12", "3")).toDF("x", "y"),
          "SELECT x, y FROM (VALUES ('1', '23'), ('12', '4')) t(x, y)"))
      assert(e.getMessage.contains("result mismatch"))
    }
  }

  test("load types each column as its Spark type and keeps nulls") {
    val df = Seq(
      (1L, 2, 0.25, "a", java.sql.Date.valueOf("1995-03-15"), Option(7L)),
      (3L, 4, 1.5, "b", java.sql.Date.valueOf("1998-09-02"), None),
    ).toDF("l", "i", "d", "s", "dt", "n")
    withDuck("t" -> df) { duck =>
      val rs = duck.createStatement.executeQuery(
        "SELECT typeof(l), typeof(i), typeof(d), typeof(s), typeof(dt), typeof(n) FROM t LIMIT 1")
      rs.next()
      assert((1 to 6).map(rs.getString) == Seq("BIGINT", "INTEGER", "DOUBLE", "VARCHAR", "DATE", "BIGINT"))
      rs.close()
      Oracle.assertEquivalent(duck, df, "SELECT * FROM t")
    }
  }

  test("load rejects an unsupported column type by table and column name") {
    val e = intercept[IllegalArgumentException](Oracle.load("t" -> Seq((1L, Seq(1, 2))).toDF("k", "xs")))
    assert(e.getMessage.contains("t.xs") && e.getMessage.contains("array<int>"))
  }

  test("load checks each table's count(*) against the rows it collected") {
    withDuck("t" -> (1L to 5L).toDF("k")) { duck =>
      Oracle.requireCount(duck, "t", 5)
      val e = intercept[IllegalArgumentException](Oracle.requireCount(duck, "t", 6))
      assert(e.getMessage.contains("t: loaded 5 rows into DuckDB, collected 6"))
    }
  }
}
