package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.core.ArrangementRegistry
import repro.tpch._

/** Harnesses for the three TPC-H tables: the headline sharing experiment
  * (Fig. 1, reported as a table), streaming update rates (Fig. 12), and
  * batch elapsed times (Fig. 13).
  */
object TpchHarness {

  // The configuration EXPERIMENTS.md reports; the scale factor comes from the caller.
  private val Epochs    = 4
  private val BatchRows = 100000

  /** The ten-query interactive mix of §6.1.1: eight windowed lineitem
    * queries plus two of the static (non-lineitem) queries.
    */
  private val mix: Seq[LiteQuery] = Seq(
    TpchQueries.q1, TpchQueries.q3, TpchQueries.q4, TpchQueries.q5, TpchQueries.q7,
    TpchQueries.q10, TpchQueries.q12, TpchQueries.q14, TpchQueries.q2, TpchQueries.q13)

  private def slices(t: TpchTables, n: Int): Array[DataFrame] = {
    val s = t.lineitem.randomSplit(Array.fill(n)(1.0), seed = 5L)
    s.foreach { df => df.persist(); df.count() }
    s
  }

  /** Figure 1 (tabled): install latency, update latency, and memory
    * footprint for the concurrent query mix, with and without shared
    * arrangements.
    *
    * Protocol, mirroring §6.1.1: the ten-query mix is installed as the
    * *standing* workload (in shared mode this warms the registry, as
    * earlier-arriving queries would). Install latency is then measured for
    * newly *arriving* instances of each query against the running system —
    * with sharing they import warm arrangements, without they re-index
    * every dimension. Update latency covers both the windowed lineitem
    * delta and the maintenance of dimension indexes under orders churn
    * (shared: one index maintained once; unshared: per-query copies).
    */
  def sharing(spark: SparkSession, sf: Double): String = {
    val tables = TpchData.cached(spark, sf)
    // Orders churn: hold back a small slice of orders, delivered per epoch.
    val Array(ordersBase, ordersDelta) = tables.orders.randomSplit(Array(0.9, 0.1), seed = 11L)
    ordersBase.persist().count()
    val ordersSlices = ordersDelta.randomSplit(Array.fill(Epochs)(1.0), seed = 12L)
    ordersSlices.foreach { df => df.persist(); df.count() }
    val tablesBase = tables.copy(orders = ordersBase)
    val eps        = slices(tables, Epochs)
    val out        = new StringBuilder

    val rows = for (shared <- Seq(true, false)) yield {
      val mode = if (shared) "shared" else "not shared"
      val reg  = new ArrangementRegistry(spark)

      // Standing workload (warms the registry in shared mode).
      val standing = mix.map(q =>
        QueryInstance.install(q, tablesBase, reg, shared, s"${q.name}-standing-$mode"))

      // Arriving queries: the measured install latencies.
      val installMs = mix.map { q =>
        val inst = QueryInstance.install(q, tablesBase, reg, shared, s"${q.name}-arriving-$mode")
        val ms   = inst.installMillis.toDouble
        inst.uninstall()
        ms
      }
      val detail = mix.zip(installMs).map { case (q, m) => s"${q.name}=${Fmt.ms(m)}" }.mkString(" ")
      out ++= s"[$mode] arriving-query install: $detail\n"

      // Update processing: lineitem window delta + orders index maintenance.
      val updateMs = eps.toSeq.zip(ordersSlices).map { case (slice, oSlice) =>
        Fmt.timeMs {
          if (shared)
            reg.get("orders").foreach(a => a.append(oSlice, a.frontier + 1))
          else
            standing.foreach(_.privateArrangements.filter(_.name.startsWith("orders")).foreach(a =>
              a.append(oSlice, a.frontier + 1)))
          standing.foreach(_.onEpoch(slice))
        }._2
      }

      val memRows  = reg.totalRows + standing.map(_.privateRows).sum
      val memBytes = reg.totalBytes + standing.map(_.privateBytes).sum
      standing.foreach(_.uninstall())
      reg.clear()
      Seq(
        mode,
        Fmt.ms(Fmt.median(installMs)), Fmt.ms(installMs.max),
        Fmt.ms(Fmt.median(updateMs)), Fmt.ms(updateMs.max),
        memRows.toString, f"${memBytes / 1e6}%.1f MB",
      )
    }
    out ++= Fmt.table(
      s"Fig 1 (TPC-H sharing, SF=$sf, ${mix.size} standing queries, $Epochs epochs)",
      Seq("mode", "install p50", "install max", "update p50", "update max", "index rows", "index bytes"),
      rows,
    )
    out.result()
  }

  /** Figure 12: streaming update rates (tuples/second) per query, logical
    * batches of `BatchRows`, shared arrangements. Static (non-lineitem)
    * queries do not observe the stream and are reported as "static".
    */
  def streamingRates(spark: SparkSession, sf: Double): String = {
    val tables   = TpchData.cached(spark, sf)
    val total    = tables.lineitem.count()
    val nBatches = math.max(1, (total / BatchRows).toInt)
    val eps      = slices(tables, nBatches)
    val reg      = new ArrangementRegistry(spark)

    val paper = Map( // Fig. 12, DD with one worker (tuples/s)
      "q01" -> 9341713L, "q02" -> 4388761L, "q03" -> 11049606L, "q04" -> 9046854L,
      "q05" -> 5802513L, "q06" -> 33090863L, "q07" -> 7551628L, "q08" -> 4949412L,
      "q09" -> 2932421L, "q10" -> 9708371L, "q11" -> 1720655L, "q12" -> 11258702L,
      "q13" -> 1446223L, "q14" -> 21908762L, "q15" -> 5057397L, "q16" -> 4435818L,
      "q17" -> 5218907L, "q18" -> 5854293L, "q19" -> 22696357L, "q20" -> 16089949L,
      "q21" -> 1968771L, "q22" -> 1843397L)

    val rows = TpchQueries.all.map { q =>
      val inst = QueryInstance.install(q, tables, reg, shared = true, q.name)
      val cells = q match {
        case _: StreamingLite =>
          val (_, t) = Fmt.timeMs(eps.foreach(inst.onEpoch))
          val rate   = total / (t / 1000.0)
          Seq(q.name, f"$rate%.0f", paper(q.name).toString)
        case _: StaticLite =>
          Seq(q.name, "static", paper(q.name).toString)
      }
      inst.uninstall()
      cells
    }
    reg.clear()
    Fmt.table(
      s"Fig 12 (TPC-H streaming rates, SF=$sf, batches of $BatchRows)",
      Seq("query", "tuples/s (measured)", "tuples/s (paper DD w=1)"),
      rows,
    )
  }

  /** Figure 13: batch elapsed milliseconds per query, on Spark SQL (our
    * batch plans) and on DuckDB (the modern single-node comparator standing
    * in for HyPer), vs. the paper's numbers.
    */
  def batchElapsed(spark: SparkSession, sf: Double): String = {
    val tables = TpchData.cached(spark, sf)
    val conn   = Oracle.load(tables.byName.toSeq: _*)

    val paper = Map( // Fig. 13: (SparkSQL, HyPer, DD) elapsed ms, single thread
      "q01" -> (18219, 603, 7789), "q02" -> (23741, 59, 2426), "q03" -> (47816, 1126, 5948),
      "q04" -> (22630, 842, 8550), "q05" -> (51731, 941, 14001), "q06" -> (3383, 232, 1185),
      "q07" -> (31770, 943, 12029), "q08" -> (63823, 616, 19667), "q09" -> (88861, 1984, 27873),
      "q10" -> (42216, 967, 4559), "q11" -> (3857, 131, 1534), "q12" -> (17233, 501, 4458),
      "q13" -> (28489, 3625, 3893), "q14" -> (7403, 330, 1695), "q15" -> (14542, 253, 1591),
      "q16" -> (23371, 1399, 2238), "q17" -> (70944, 563, 17750), "q18" -> (53932, 3703, 9426),
      "q19" -> (13085, 1980, 2444), "q20" -> (31226, 434, 4658), "q21" -> (128910, 1626, 29363),
      "q22" -> (10030, 180, 2819))

    val rows = TpchQueries.all.map { q =>
      val (_, sparkMs) = Fmt.timeMs(q.batch(tables).collect())
      val (_, duckMs) = Fmt.timeMs {
        val rs = conn.createStatement.executeQuery(q.duckSql)
        while (rs.next()) {}
        rs.close()
      }
      val (pSpark, pHyper, pDD) = paper(q.name)
      Seq(q.name, f"$sparkMs%.0f", f"$duckMs%.0f",
          pSpark.toString, pHyper.toString, pDD.toString)
    }
    conn.close()
    Fmt.table(
      s"Fig 13 (TPC-H batch elapsed ms, SF=$sf)",
      Seq("query", "spark-sql ms", "duckdb ms", "paper SparkSQL", "paper HyPer", "paper DD"),
      rows,
    )
  }
}
