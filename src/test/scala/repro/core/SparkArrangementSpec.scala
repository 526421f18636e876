package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Semantics of Spark arrangements: multiversioned accumulation, geometric
  * merging, compaction, registry sharing, and incremental aggregation.
  */
class SparkArrangementSpec extends SparkSpec {
  import spark.implicits._

  test("append + collectionAsOf exposes multiversioned views") {
    val arr = SparkArrangement.empty("t1", Seq("k"), spark, partitions = 4)
    arr.append(Seq((1L, "a"), (2L, "b")).toDF("k", "v"), epoch = 1L)
    arr.append(Seq((3L, "c")).toDF("k", "v"), epoch = 2L)
    assert(arr.frontier == 2L)
    val asOf1 = arr.collectionAsOf(1L).select("k", "v").as[(Long, String)].collect().toSet
    val asOf2 = arr.collectionAsOf(2L).select("k", "v").as[(Long, String)].collect().toSet
    assert(asOf1 == Set((1L, "a"), (2L, "b")))
    assert(asOf2 == Set((1L, "a"), (2L, "b"), (3L, "c")))
    arr.unpersistAll()
  }

  test("negative diffs retract rows from the accumulated view") {
    val arr = SparkArrangement.empty("t2", Seq("k"), spark, partitions = 4)
    arr.append(Seq((1L, "a"), (2L, "b")).toDF("k", "v"), epoch = 1L)
    val delta = Seq((1L, "a", 2L, -1L), (5L, "e", 2L, 1L))
      .toDF("k", "v", Delta.TimeCol, Delta.DiffCol)
    arr.append(delta, epoch = 2L)
    val now = arr.current.select("k", "v").as[(Long, String)].collect().toSet
    assert(now == Set((2L, "b"), (5L, "e")))
    arr.unpersistAll()
  }

  test("geometric merging keeps the layer count logarithmic") {
    val arr = SparkArrangement.empty("t3", Seq("k"), spark, partitions = 4)
    for (e <- 1L to 12L)
      arr.append(Seq((e, s"v$e")).toDF("k", "v"), epoch = e)
    assert(arr.layerCount <= 5, s"layers=${arr.layerCount}")
    assert(arr.totalRows == 12L)
    arr.unpersistAll()
  }

  test("compaction folds historical times without changing current reads") {
    val arr = SparkArrangement.empty("t4", Seq("k"), spark, partitions = 4)
    for (e <- 1L to 6L)
      arr.append(Seq((e % 3, s"v$e")).toDF("k", "v"), epoch = e)
    val before = arr.current.as[(Long, String)].collect().toSet
    arr.advanceCompaction(6L)
    arr.append(Seq((99L, "z")).toDF("k", "v"), epoch = 7L) // triggers merges
    val after = arr.current.as[(Long, String)].collect().toSet
    assert(after == before + ((99L, "z")))
    arr.unpersistAll()
  }

  test("registry: first request builds, later requests import at zero build cost") {
    val reg = new ArrangementRegistry(spark, partitions = 4)
    val df  = Seq((1L, "x"), (2L, "y")).toDF("k", "v")
    val r1  = reg.arrangeOrImport("shared1", Seq("k"))(df)
    val r2  = reg.arrangeOrImport("shared1", Seq("k"))(sys.error("an import does not build"))
    assert(r1 eq r2)
    assert(reg.totalRows == 2L)
    reg.release("shared1")
    assert(reg.get("shared1").isDefined, "still one reader attached")
    reg.release("shared1")
    assert(reg.get("shared1").isEmpty, "last release frees the trace")
    reg.clear()
  }

  test("IncrementalAgg over epochs equals one-shot aggregation") {
    val agg = new IncrementalAgg(Seq("g"), Seq("s"))
    val e1  = Seq(("a", 1L), ("b", 2L)).toDF("g", "s")
    val e2  = Seq(("a", 10L)).toDF("g", "s")
    agg.merge(e1); agg.merge(e2)
    val got = agg.snapshot.as[(String, Long)].collect().toSet
    assert(got == Set(("a", 11L), ("b", 2L)))
  }

  test("IncrementalAgg supports global (ungrouped) aggregates") {
    val agg = new IncrementalAgg(Nil, Seq("s"))
    agg.merge(Seq(1L, 2L).toDF("s"))
    agg.merge(Seq(10L).toDF("s"))
    assert(agg.snapshot.as[Long].collect().toSeq == Seq(13L))
  }

  test("Delta.compactTo preserves accumulations beyond the frontier") {
    val df = Seq((1L, "a", 1L, 1L), (1L, "a", 2L, 1L), (2L, "b", 3L, 1L), (1L, "a", 3L, -1L))
      .toDF("k", "v", Delta.TimeCol, Delta.DiffCol)
    val compacted = Delta.compactTo(df, frontier = 3L)
    val acc = Delta.accumulateAsOf(compacted, 3L)
      .select("k", "v", Delta.DiffCol).as[(Long, String, Long)].collect().toSet
    assert(acc == Set((1L, "a", 1L), (2L, "b", 1L)))
    // All times are now at the frontier: one row per (k, v).
    assert(compacted.count() == 2L)
  }
}
