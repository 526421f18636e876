package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.duckdb.DuckDBConnection

/** DuckDB: the correctness oracle, and the single-node comparator of Fig. 13.
  *
  * ``load(tables)`` copies named DataFrames into one in-process DuckDB, each
  * column typed as its Spark type. ``assertEquivalent(duck, sparkDf, sql)``
  * runs ``sql`` on that connection and asserts the sorted rows match
  * ``sparkDf``. This catches wrong results from a rewritten plan or a custom
  * operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private val duckTypes: Map[DataType, String] = Map(
    LongType -> "BIGINT", IntegerType -> "INTEGER", DoubleType -> "DOUBLE",
    StringType -> "VARCHAR", DateType -> "DATE")

  /** A new in-process DuckDB holding each DataFrame as a table of that name.
    * Rows are collected to the driver, so keep tables small (SF ≤ 0.1).
    */
  def load(tables: (String, DataFrame)*): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      for ((name, df) <- tables) {
        val fields = df.schema.fields
        val types = fields.map(f => duckTypes.getOrElse(f.dataType, throw new IllegalArgumentException(
          s"$name.${f.name}: unsupported column type ${f.dataType.simpleString}")))
        conn.createStatement.execute(
          s"CREATE TABLE $name (${fields.zip(types).map { case (f, t) => s"${f.name} $t" }.mkString(", ")})")
        val rows = df.collect()
        val app  = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        try rows.foreach { r =>
          app.beginRow()
          fields.indices.foreach { i =>
            if (r.isNullAt(i)) app.append(null: String)
            else fields(i).dataType match {
              case LongType    => app.append(r.getLong(i))
              case IntegerType => app.append(r.getInt(i))
              case DoubleType  => app.append(r.getDouble(i))
              case _           => app.append(r.get(i).toString) // VARCHAR, and DATE as yyyy-mm-dd
            }
          }
          app.endRow()
        } finally app.close()
        requireCount(conn, name, rows.length)
      }
      conn
    } catch { case e: Throwable => conn.close(); throw e }
  }

  /** Fails unless table ``name`` holds exactly ``expected`` rows. */
  private[repro] def requireCount(conn: Connection, name: String, expected: Long): Unit = {
    val rs = conn.createStatement.executeQuery(s"SELECT count(*) FROM $name")
    rs.next()
    val loaded = rs.getLong(1)
    rs.close()
    require(loaded == expected, s"$name: loaded $loaded rows into DuckDB, collected $expected")
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val idx = cols.indices.sortBy(i => cols(i).toLowerCase)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sorted(Ordering.Implicits.seqOrdering[Seq, String])
  }

  def assertEquivalent(duck: Connection, sparkDf: DataFrame, sql: String): Unit = {
    val rs   = duck.createStatement.executeQuery(sql)
    val meta = rs.getMetaData
    val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    val dRows = Iterator
      .continually(rs)
      .takeWhile(_.next())
      .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
      .toSeq
    rs.close()
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )
    val got = canon(sparkDf.collect().toSeq, sCols)
    val exp = canon(dRows, dCols)
    require(got == exp,
      s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first spark-only: ${got.diff(exp).take(3)}\n" +
      s"  first duck-only:  ${exp.diff(got).take(3)}"
    )
  }
}
