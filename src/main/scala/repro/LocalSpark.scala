package repro

import org.apache.spark.sql.SparkSession

/** The SparkSession of the jobs and the tests. The master comes from
  * SPARK_MASTER (default `local[*]`); shuffles use 64 partitions, as the
  * registry's arrangements do. Broadcast joins are disabled so the TPC-H
  * plans exercise the shuffle path at SF ≈ 0.1.
  */
object LocalSpark {
  private val ShufflePartitions = 64

  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
