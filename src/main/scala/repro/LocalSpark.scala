package repro

import org.apache.spark.sql.SparkSession

/** The SparkSession of the jobs and the tests. Master and shuffle partitions
  * come from SPARK_MASTER (default `local[*]`) and SPARK_SHUFFLE_PARTITIONS
  * (default 64). Broadcast joins are disabled so the TPC-H plans exercise
  * the shuffle path at SF ≈ 0.1.
  */
object LocalSpark {
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
