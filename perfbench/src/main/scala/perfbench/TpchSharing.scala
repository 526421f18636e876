package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.{col, rand, row_number}
import repro.SynthData
import repro.core.ArrangementRegistry
import repro.tpch._
import java.util.concurrent.Executors
import scala.util.Try

/** tpch-sharing: the Figure 1 protocol in shared mode. One
  * [[ArrangementRegistry]] holds every dimension index the harness's
  * ten-query mix reads; the standing queries import them. Each epoch appends
  * a held-back orders slice to the shared orders arrangement and feeds a
  * lineitem slice to every standing query. After the last epoch, an
  * instance of each of the ten queries arrives: it is installed against the
  * warm registry, its first result is read, and it is uninstalled. That
  * first result, and each standing query's final result, is checked against
  * batch evaluation over the final tables.
  */
object TpchSharing {

  val Sf       = 0.01
  val WarmUp   = 1 // untimed epochs first
  val Epochs   = 5 // timed epochs after them
  val HeldBack = 0.1 // share of orders delivered during the epochs
  val Slices   = WarmUp + Epochs

  /** The ten-query mix of the Figure 1 harness: each arrives once. */
  val Arriving: Seq[LiteQuery] = Seq(
    TpchQueries.q1, TpchQueries.q3, TpchQueries.q4, TpchQueries.q5, TpchQueries.q7,
    TpchQueries.q10, TpchQueries.q12, TpchQueries.q14, TpchQueries.q2, TpchQueries.q13)

  /** The standing queries: the windowed members of the mix whose maintained
    * results the program gets right under orders churn. The others (Q3, Q4,
    * Q5, Q7, Q10, Q12 windowed; Q13 static) return wrong results once orders
    * arrive during the epochs (see perfbench/README.md), so they are not
    * standing here; they still arrive, and their install results are
    * checked. Q2, static, does not observe the epochs and only arrives.
    */
  val Standing: Seq[LiteQuery] = Seq(TpchQueries.q1, TpchQueries.q14)

  /** Every dimension index the mix reads, held in the registry for the run. */
  val SharedDims: Seq[DimSpec] = Arriving.flatMap(_.dims).distinct

  private val SpanProperty = "perfbench.span"

  /** Spark work attributed to the benchmark span that submitted it, read
    * from a listener registered by the benchmark.
    */
  private final class SparkCounters(tracer: Tracer) extends SparkListener {
    private val stageSpan = new java.util.concurrent.ConcurrentHashMap[Int, Int]()
    @volatile var started = 0
    @volatile var ended   = 0

    private def spanOf(p: java.util.Properties): Int =
      Option(p).flatMap(p => Option(p.getProperty(SpanProperty))).map(_.toInt).getOrElse(-1)

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val span = spanOf(e.properties)
      e.stageIds.foreach(stageSpan.put(_, span))
      tracer.count(span, "spark.jobs", 1)
      started += 1
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = ended += 1
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
      tracer.count(spanOf(e.properties), "spark.stages", 1)
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val span = stageSpan.getOrDefault(e.stageId, -1)
      tracer.count(span, "spark.tasks", 1)
      Option(e.taskMetrics).foreach { m =>
        tracer.count(span, "spark.task_busy_ms", m.executorRunTime.toDouble)
        tracer.count(span, "spark.shuffle_read_bytes", m.shuffleReadMetrics.totalBytesRead.toDouble)
        tracer.count(span, "spark.shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
      }
    }

    /** Wait until the listener has seen the end of every job it saw start. */
    def drain(): Unit = {
      val until = System.nanoTime() + 10000000000L
      while ((ended < started) && System.nanoTime() < until) Thread.sleep(50)
      Thread.sleep(500) // task-end events of the last stages
    }
  }

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors()}]")
      .appName("perfbench")
      // The session settings of the repository's Spark tests.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def cache(df: DataFrame): DataFrame = { df.persist(); df.count(); df }

  /** The tables, each cached (the mix reads every one). Lineitem and orders
    * carry a seeded random rank in [[RankCol]], which cuts them into slices.
    */
  private def tables(spark: SparkSession, seed: Long): TpchTables = {
    def s(name: String) = Seeds.derive(seed, s"tpch.$name")
    TpchTables(
      lineitem = ranked(SynthData.lineitem(spark, Sf, s("lineitem")), s("lineitem.rank")),
      orders   = ranked(SynthData.orders(spark, Sf, s("orders")), s("orders.rank")),
      customer = cache(SynthData.customer(spark, Sf, s("customer"))),
      part     = cache(SynthData.part(spark, Sf, s("part"))),
      supplier = cache(SynthData.supplier(spark, Sf, s("supplier"))),
      partsupp = cache(SynthData.partsupp(spark, Sf, s("partsupp"))),
      nation   = cache(SynthData.nation(spark)),
      region   = cache(SynthData.region(spark)),
    )
  }

  private def rowsOf(df: DataFrame): Set[String] =
    df.collect().map(_.toSeq.map(String.valueOf).mkString("|")).toSet

  /** Runs an untimed check with as many shuffle partitions as cores, which
    * is faster at this size and changes no result.
    */
  private def checking[A](spark: SparkSession)(f: => A): A = {
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toString)
    try f
    finally spark.conf.set("spark.sql.shuffle.partitions", "64")
  }

  private val RankCol = "__perfbench_rank"

  /** `df` with a seeded random rank 1..count in [[RankCol]], cached. */
  private def ranked(df: DataFrame, seed: Long): DataFrame =
    cache(df.withColumn(RankCol, row_number().over(Window.orderBy(rand(seed)))))

  /** Rows of a ranked table whose rank is at most `upTo`, cut into
    * [[Slices]] slices whose sizes differ by at most one.
    */
  private def slices(r: DataFrame, upTo: Long): Seq[DataFrame] =
    (0 until Slices).map(i => r.filter(col(RankCol) <= upTo && (col(RankCol) - 1) % Slices === i).drop(RankCol))

  private def storedBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  def run(args: Main.Args, tracer: Tracer, report: Report): Unit = {
    val (spark, sessionMs) = Stats.timed(session())
    val counters           = new SparkCounters(tracer)
    if (tracer.enabled) {
      spark.sparkContext.addSparkListener(counters)
      tracer.onSwitch = id => spark.sparkContext.setLocalProperty(SpanProperty, id.toString)
    }

    // Inputs: tables, held-back orders and the per-epoch slices. The
    // held-back orders are cut into equal slices (10%, rounded down to a
    // multiple of the slice count), so the shared orders arrangement merges
    // its layers after the same epochs in every run.
    val (inputs, inputMs) = Stats.timed {
      val r          = tables(spark, args.seed)
      val held       = (r.orders.count() * HeldBack / Slices).toLong * Slices
      val ordersBase = cache(r.orders.filter(col(RankCol) > held).drop(RankCol))
      (r, ordersBase, slices(r.orders, held), slices(r.lineitem, Long.MaxValue))
    }
    val (r, ordersBase, orderSlices, lineSlices) = inputs
    val t         = r.copy(lineitem = r.lineitem.drop(RankCol), orders = r.orders.drop(RankCol))
    val base      = t.copy(orders = ordersBase)
    val inputBytes = storedBytes(spark)
    Log(f"session ${sessionMs / 1e3}%.1f s, inputs ${inputMs / 1e3}%.1f s")

    // The shared indexes, then the standing queries that import them.
    val reg = new ArrangementRegistry(spark)
    val (_, sharedMs) = Stats.timed(SharedDims.foreach { d =>
      tracer.span("core.arrange")(reg.arrangeOrImport(d.name, d.keys)(d.build(base)))
    })
    val (standing, standingMs) = Stats.timed(Standing.map { q =>
      tracer.span("tpch.standing_install")(QueryInstance.install(q, base, reg, shared = true, s"${q.name}-standing"))
    })
    Log(f"shared indexes ${sharedMs / 1e3}%.1f s, standing installs ${standingMs / 1e3}%.1f s")

    // Epochs: shared orders maintenance plus every standing query's update.
    // The first `WarmUp` are not timed: epochs keep getting faster until
    // Spark's generated code is warm.
    val ordersArr = reg.get("orders").getOrElse(throw new IllegalStateException("no shared orders arrangement"))
    val allEpochMs = orderSlices.zip(lineSlices).flatMap { case (oSlice, lSlice) =>
      report.op("epoch") {
        Stats.timed(tracer.span("client.epoch") {
          tracer.span("core.append")(ordersArr.append(oSlice, ordersArr.frontier + 1))
          tracer.span("core.current")(ordersArr.current)
          standing.foreach(inst => tracer.span(s"tpch.on_epoch.${inst.query.name}")(inst.onEpoch(lSlice)))
        })._2
      }
    }
    val epochMs = allEpochMs.drop(WarmUp)
    Log(f"epochs done: ${allEpochMs.map(ms => f"${ms / 1e3}%.3f").mkString(" ")} s")

    // Arriving queries against the warm registry. Each one's first result
    // is read before it is uninstalled, and checked below.
    val arrived = Arriving.flatMap { q =>
      report.op(s"install ${q.name}") {
        val (inst, ms) = Stats.timed(tracer.span("tpch.install") {
          QueryInstance.install(q, base, reg, shared = true, s"${q.name}-arriving")
        })
        val got = try checking(spark)(Try(rowsOf(inst.result()))) finally inst.uninstall()
        (q, ms, got)
      }
    }
    val installMs = arrived.map(_._2)
    Log("arrivals done")

    val stateRows = reg.totalRows + standing.map(_.privateRows).sum
    val cachedBytes = storedBytes(spark) - inputBytes
    val estimatedBytes = reg.totalBytes

    // Checks against batch evaluation, by now over the final tables: every
    // held-back order and every lineitem has been delivered. A windowed
    // query's first result covers an empty window; a static one's covers the
    // dimensions as maintained through the epochs. The checks are not timed
    // and run side by side.
    val noWindow = t.copy(lineitem = t.lineitem.limit(0))
    val checks: Seq[(String, () => Boolean)] =
      arrived.map { case (q, _, got) =>
        s"${q.name} install result" -> (() => got.get == rowsOf(q.batch(if (q.usesLineitem) noWindow else t)))
      } ++ standing.map { inst =>
        s"${inst.query.name} final result" -> (() => rowsOf(inst.result()) == rowsOf(inst.query.batch(t)))
      }
    checking(spark) {
      val pool = Executors.newFixedThreadPool(spark.sparkContext.defaultParallelism)
      try {
        val pending = checks.map { case (what, ok) => what -> pool.submit(() => Try(ok())) }
        pending.foreach { case (what, f) => report.check(what)(f.get.get) }
      } finally pool.shutdown()
    }
    Log("checks done")

    val setupS = (sessionMs + inputMs + sharedMs + standingMs) / 1e3
    report.metric("setup_s", setupS, "s")
    report.metric("latency_ms.p50", Stats.median(epochMs), "ms")
    report.metric("latency_ms.p90", Stats.percentile(epochMs, 90), "ms")
    report.metric("state_rows", stateRows.toDouble, "count")
    report.note(s"tpch-sharing: SF $Sf, ${Standing.length} standing queries, ${Arriving.length} arriving, $Slices epochs, " +
      s"local[${spark.sparkContext.defaultParallelism}]")
    report.note(f"  epoch_s.p50 = ${Stats.median(epochMs) / 1e3}%.3f s (${epochMs.length} epochs after $WarmUp untimed)")
    report.note(f"  install_ms.p50 = ${Stats.median(installMs)}%.1f ms, install_ms.p90 = " +
      f"${Stats.percentile(installMs, 90)}%.1f ms (${installMs.length} arriving installs)")
    report.note(f"  state_rows = $stateRows (registry + private + aggregate rows), setup_s = $setupS%.3f s")
    report.note(s"  ops.total = ${report.attempted}, ops.failed = ${report.failed} (installs and their results, epochs, final results)")

    if (tracer.enabled) {
      counters.drain()
      val cores = spark.sparkContext.defaultParallelism
      def perEpoch(counter: String) = Stats.median(tracer.inclusiveCounts("client.epoch", counter).drop(WarmUp))
      report.metric("traced.latency_ms.p50", Stats.median(epochMs), "ms")
      report.metric("tpch.install_ms", Stats.median(tracer.spans("tpch.install").map(_.ms)), "ms")
      report.metric("tpch.install_ms.p90", Stats.percentile(tracer.spans("tpch.install").map(_.ms), 90), "ms")
      report.metric("spark.jobs.install", Stats.median(tracer.inclusiveCounts("tpch.install", "spark.jobs")), "count")
      report.metric("tpch.standing_install_ms", Stats.median(tracer.spans("tpch.standing_install").map(_.ms)), "ms")
      report.metric("core.append_ms", Stats.median(tracer.selfMs("core.append").drop(WarmUp)), "ms")
      report.metric("core.current_ms", Stats.median(tracer.selfMs("core.current").drop(WarmUp)), "ms")
      Standing.foreach(q => report.metric(s"tpch.on_epoch_ms.${q.name}", Stats.median(tracer.selfMs(s"tpch.on_epoch.${q.name}").drop(WarmUp)), "ms"))
      report.metric("spark.jobs.epoch", perEpoch("spark.jobs"), "count")
      report.metric("spark.stages.epoch", perEpoch("spark.stages"), "count")
      report.metric("spark.tasks.epoch", perEpoch("spark.tasks"), "count")
      report.metric("spark.shuffle_read_bytes.epoch", perEpoch("spark.shuffle_read_bytes"), "B")
      report.metric("spark.shuffle_write_bytes.epoch", perEpoch("spark.shuffle_write_bytes"), "B")
      val busy = tracer.inclusiveCounts("client.epoch", "spark.task_busy_ms").drop(WarmUp)
      report.metric("spark.task_busy_ms.epoch", Stats.median(busy), "ms")
      report.metric("spark.busy_share", Stats.median(busy.zip(tracer.spans("client.epoch").drop(WarmUp)).map {
        case (b, s) => b / (s.ms * cores)
      }), "ratio")
      report.metric("spark.cached_bytes", cachedBytes.toDouble, "B")
      report.metric("core.estimated_bytes", estimatedBytes.toDouble, "B")
      report.metric("core.layers.orders", ordersArr.layerCount.toDouble, "count")
      report.metric("core.layers.total", reg.names.flatMap(reg.get).map(_.layerCount).sum.toDouble, "count")
    }
    standing.foreach(_.uninstall())
    reg.clear()
    spark.stop()
  }
}
