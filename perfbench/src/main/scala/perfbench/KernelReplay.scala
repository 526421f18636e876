package perfbench

import repro.dd.{Batch, Engine, Frontier, Spine}
import scala.util.Random

/** Replays of the `repro.dd` kernel's public building blocks on inputs
  * shaped like the two graph workloads, run in traced mode only:
  *
  *  - small: per-shard epoch batches of graph-interactive (a few edge
  *    updates spread over `workers` shards) inserted into a spine that
  *    already holds one shard of its 320 k-edge index;
  *  - large: one shard of a graph-batch index build (150 k edges over
  *    `workers` shards) sorted and merged at once.
  *
  * Keys are uniform node ids, as in both workloads.
  */
object KernelReplay {

  private type U = (Long, Long, Long, Long)

  private val Repeats = 5

  private def updates(rng: Random, n: Int, nodes: Int, time: Long): IndexedSeq[U] =
    IndexedSeq.fill(n)((rng.nextInt(nodes).toLong, rng.nextInt(nodes).toLong, time, 1L))

  /** Records per millisecond, which is thousands of records per second. */
  private def krecPerS(records: Long, ms: Double): Double = records / ms

  def run(report: Report, seed: Long): Unit = {
    val workers = Runtime.getRuntime.availableProcessors()
    val rng     = new Random(Seeds.derive(seed, "replay"))

    // --- Batch.fromUpdates, small epoch batches.
    val smallPerShard = math.max(1, 2 * GraphInteractive.EdgeChurn / workers)
    val small         = IndexedSeq.fill(20000)(updates(rng, smallPerShard, GraphInteractive.Nodes, 2L))
    val smallRates = (1 to Repeats).map { _ =>
      val (_, ms) = Stats.timed(small.foreach(u => Batch.fromUpdates(Frontier(2L), Frontier(3L), u)))
      krecPerS(small.length.toLong * smallPerShard, ms)
    }
    report.metric("dd.batch.build_krec_s.small", Stats.median(smallRates), "krec/s")

    // --- Batch.fromUpdates, one shard of a graph-batch index.
    val largePerShard = GraphBatch.Edges / workers
    val large         = updates(rng, largePerShard, GraphBatch.Nodes, 1L)
    val largeRates = (1 to Repeats).map { _ =>
      val (_, ms) = Stats.timed(Batch.fromUpdates(Frontier(1L), Frontier(2L), large))
      krecPerS(largePerShard.toLong, ms)
    }
    report.metric("dd.batch.build_krec_s.large", Stats.median(largeRates), "krec/s")

    // --- Spine.insert at the default fuel: a loaded shard receiving epochs,
    // compacted to the previous epoch as the engine does (keepHistory = 1).
    val insertRuns = (1 to Repeats).map { _ =>
      val spine = new Spine[Long, Long, Long]()
      val base  = updates(rng, GraphInteractive.Edges / workers, GraphInteractive.Nodes, 1L)
      spine.insert(Batch.fromUpdates(Frontier(1L), Frontier(2L), base))
      val batches = small.zipWithIndex.map { case (u, i) =>
        val t = i + 2L
        Batch.fromUpdates(Frontier(t), Frontier(t + 1L), u.map(r => r.copy(_3 = t)))
      }
      var maxLayers = 0
      val (_, ms) = Stats.timed {
        batches.foreach { b =>
          spine.insert(b)
          spine.advanceCompaction(b.upper)
          maxLayers = math.max(maxLayers, spine.layerCount)
        }
      }
      (krecPerS(batches.length.toLong * smallPerShard, ms), maxLayers, spine)
    }
    report.metric("dd.spine.insert_krec_s", Stats.median(insertRuns.map(_._1)), "krec/s")
    report.metric("dd.spine.layers.max", insertRuns.map(_._2).max.toDouble, "count")

    // --- Spine.accumulate: point seeks into the replayed shard.
    val seekSpine = insertRuns.last._3
    val seekAt    = small.length + 2L
    val keys      = IndexedSeq.fill(20000)(rng.nextInt(GraphInteractive.Nodes).toLong)
    val seekUs = (1 to Repeats).map { _ =>
      val (_, ms) = Stats.timed(keys.foreach(k => seekSpine.accumulate(k, seekAt)))
      ms * 1e3 / keys.length
    }
    report.metric("dd.spine.seek_us", Stats.median(seekUs), "us")

    // --- Spine.compactAll: merge a large shard delivered as 16 layers.
    val chunks = large.grouped(math.max(1, large.length / 16)).toIndexedSeq
    val mergeRates = (1 to Repeats).map { _ =>
      val spine = new Spine[Long, Long, Long](fuelPerRecord = 0L)
      chunks.zipWithIndex.foreach { case (c, i) =>
        spine.insert(Batch.fromUpdates(Frontier(i + 1L), Frontier(i + 2L), c.map(_.copy(_3 = i + 1L))))
      }
      val rows    = spine.tupleCount
      val (_, ms) = Stats.timed(spine.compactAll())
      (krecPerS(rows, ms), spine)
    }
    report.metric("dd.spine.merge_krec_s", Stats.median(mergeRates.map(_._1)), "krec/s")

    // --- Spine.snapshot of the merged shard: the cost importInto pays.
    val merged = mergeRates.last._2
    val snapMs = (1 to Repeats).map(_ => Stats.timed(merged.snapshot(chunks.length + 1L))._2)
    report.metric("dd.spine.snapshot_ms", Stats.median(snapMs), "ms")

    // --- Idle Engine.step with a single one-arrangement dataflow.
    val eng = new Engine(workers)
    try {
      val in = eng.newDataflow().newInput[(Long, Long)]()
      in.stream.arrangeBy(identity)
      in.insertAll((0L until 1000L).map(i => (i, i)))
      eng.step()
      (1 to 100).foreach(_ => eng.step()) // warm-up
      val idle = (1 to 500).map(_ => Stats.timed(eng.step())._2)
      report.metric("dd.idle_step_ms.single", Stats.median(idle), "ms")
    } finally eng.close()
  }
}
