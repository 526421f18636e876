package perfbench

import scala.collection.mutable

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> --work-dir <dir>`. Runs one workload, prints a readable
  * summary, then (as the last stdout line) one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, workDir: String)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.getOrElse("work-dir", "."))
  }

  def main(argv: Array[String]): Unit = {
    val args   = parse(argv)
    val tracer = new Tracer(args.trace)
    val report = new Report
    args.workload match {
      case "graph-interactive" => GraphInteractive.run(args, tracer, report)
      case "graph-batch"       => GraphBatch.run(args, tracer, report)
      case "tpch-sharing"      => TpchSharing.run(args, tracer, report)
      case other               => throw new IllegalArgumentException(s"unknown workload $other")
    }
    if (args.trace) tracer.writeSpans(s"${args.workDir}/trace-${args.workload}-${args.seed}.jsonl")
    report.notes.foreach(println)
    println(report.json)
    System.out.flush()
    // Spark and the engine's pools leave non-daemon threads behind.
    sys.exit(0)
  }
}

/** Deterministic per-purpose seeds derived from the benchmark's seed. */
object Seeds {
  def derive(seed: Long, purpose: String): Long =
    new java.util.SplittableRandom(seed * 0x9E3779B97F4A7C15L ^ purpose.hashCode.toLong).nextLong()
}

/** Progress lines on stderr, stamped with seconds since the JVM started. */
object Log {
  private val t0 = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime
  def apply(msg: String): Unit =
    System.err.println(f"[perfbench +${(System.currentTimeMillis() - t0) / 1e3}%.1fs] $msg")
}

/** Kept apart from `repro.harness.Fmt`, so that a change to the program
  * cannot change how the benchmark measures it.
  */
object Stats {
  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s   = xs.sorted
    val idx = math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
    s(idx)
  }
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e6)
  }
}

/** Operation counts, metrics and readable notes for one run. */
final class Report {
  var attempted = 0L
  var failed    = 0L
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val notes           = mutable.ArrayBuffer.empty[String]
  private var reportedFailures = 0

  private def fail(what: String, detail: String): Unit = {
    failed += 1
    if (reportedFailures < 20) System.err.println(s"[perfbench] FAILED $what: $detail")
    reportedFailures += 1
  }

  /** One operation whose success is `ok`; an exception counts as a failure. */
  def check(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    try { if (!ok) fail(what, "result differs from the reference") }
    catch { case e: Exception => fail(what, e.toString) }
  }

  /** One operation that fails only by throwing; returns its value if it did not. */
  def op[A](what: String)(f: => A): Option[A] = {
    attempted += 1
    try Some(f)
    catch { case e: Exception => fail(what, e.toString); None }
  }

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def note(line: String): Unit = notes += line

  def json: String = {
    def num(x: Double) = if (x.isNaN || x.isInfinite) "0" else java.lang.Double.toString(x)
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
