package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.LocalSpark
import repro.harness._

/** The spark-submit entrypoint: the first argument names the reproduced
  * figure, and the TPC-H figures (fig1, fig12, fig13) take an optional scale
  * factor (default 0.1). Example:
  *
  * {{{
  *   spark-submit --class repro.jobs.Main target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar fig1 0.1
  * }}}
  *
  * The kernel-only figures run under plain `java -cp` too; they start no
  * SparkSession.
  */
object Main {
  private def tpch(fig: String, run: (SparkSession, Double) => String)(args: Seq[String]): String =
    run(LocalSpark.session(fig), args.headOption.fold(0.1)(_.toDouble))

  private val figures: Seq[(String, Seq[String] => String)] = Seq(
    "fig1"  -> tpch("fig1", TpchHarness.sharing(_, _)),
    "fig6"  -> (_ => GraphQueryHarness.run()),
    "fig8"  -> (_ => DatalogHarness.fig8()),
    "fig9"  -> (_ => GraspanHarness.fig9Runtime() + "\n" + GraspanHarness.fig9Removal()),
    "fig10" -> (_ => GraspanHarness.fig10()),
    "fig11" -> (_ => BatchGraphHarness.run()),
    "fig12" -> tpch("fig12", TpchHarness.streamingRates(_, _)),
    "fig13" -> tpch("fig13", TpchHarness.batchElapsed),
    "fig17" -> (_ => DatalogHarness.fig17()),
  )

  def main(args: Array[String]): Unit = {
    val run = args.headOption.flatMap(name => figures.toMap.get(name)).getOrElse(
      throw new IllegalArgumentException(
        s"usage: Main <figure> [sf]; figures: ${figures.map(_._1).mkString(", ")}"))
    println(run(args.toSeq.tail))
  }
}
