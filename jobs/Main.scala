package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.LocalSpark
import repro.harness._

/** The one runner of the reproduced figures: the first argument names the
  * figure, and the TPC-H figures (fig1, fig12, fig13) take an optional scale
  * factor (default 0.1). Each figure runs at the configuration EXPERIMENTS.md
  * reports. Examples:
  *
  * {{{
  *   sbt "runMain repro.jobs.Main fig6"
  *   spark-submit --class repro.jobs.Main target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar fig1 0.1
  * }}}
  *
  * The kernel-only figures run under plain `java -cp` too; they start no
  * SparkSession.
  */
object Main {
  /** `report`, after checking that it shows every one of `labels`. */
  private def gate(report: String, labels: String*): String = {
    labels.find(!report.contains(_)).foreach(l =>
      throw new IllegalStateException(s"report lacks \"$l\":\n$report"))
    report
  }

  private def tpch(fig: String, run: (SparkSession, Double) => String, labels: String*)(
      args: Seq[String]): String =
    gate(run(LocalSpark.session(fig), args.headOption.fold(0.1)(_.toDouble)), labels: _*)

  private val figures: Seq[(String, Seq[String] => String)] = Seq(
    "fig1"  -> tpch("fig1", TpchHarness.sharing, "shared", "not shared"),
    "fig6"  -> (_ => gate(GraphQueryHarness.run(), "4-path")),
    "fig8"  -> (_ => gate(DatalogHarness.fig8(), "tc(x,?)")),
    "fig9"  -> (_ => gate(GraspanHarness.fig9Runtime(), "linux-lite") + "\n" +
                     gate(GraspanHarness.fig9Removal(), "med")),
    "fig10" -> (_ => gate(GraspanHarness.fig10(), "Opt")),
    "fig11" -> (_ => gate(BatchGraphHarness.run(), "twitter-lite")),
    "fig12" -> tpch("fig12", TpchHarness.streamingRates, "q01", "q22"),
    "fig13" -> tpch("fig13", TpchHarness.batchElapsed, "q01", "q22"),
    "fig17" -> (_ => gate(DatalogHarness.fig17(), "tc(t)")),
  )

  def main(args: Array[String]): Unit = {
    val run = args.headOption.flatMap(name => figures.toMap.get(name)).getOrElse(
      throw new IllegalArgumentException(
        s"usage: Main <figure> [sf]; figures: ${figures.map(_._1).mkString(", ")}"))
    println(run(args.toSeq.tail))
  }
}
