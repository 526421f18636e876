package repro.dd

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{BatchGraph, GraphGen}
import scala.util.Random

/** The unboxed `(Long, Long)` ordering of the `repro.dd` package object: the
  * same order as Scala's generic tuple ordering, picked up wherever
  * `repro.dd._` is in scope, and free of allocation.
  */
class PairOrderingSpec extends AnyFunSuite {

  private val generic = Ordering.Tuple2(Ordering.Long, Ordering.Long)

  private val pairs: IndexedSeq[(Long, Long)] = {
    val rng    = new Random(59)
    val edges  = Seq(Long.MinValue, Long.MinValue + 1L, -1L, 0L, 1L, Long.MaxValue - 1L, Long.MaxValue)
    val random = Seq.fill(400) {
      // Small components give many equal first components.
      def one(): Long = if (rng.nextBoolean()) rng.nextInt(4).toLong - 2L else rng.nextLong()
      (one(), one())
    }
    ((for (a <- edges; b <- edges) yield (a, b)) ++ random).toIndexedSeq
  }

  test("agrees with Ordering.Tuple2(Long, Long) on extreme and random pairs") {
    for (x <- pairs; y <- pairs)
      assert(Integer.signum(longPairOrdering.compare(x, y)) == Integer.signum(generic.compare(x, y)), s"$x vs $y")
    val rng = new Random(61)
    val xs  = rng.shuffle(pairs)
    assert(xs.sorted(longPairOrdering) == xs.sorted(generic))
  }

  test("is the Ordering[(Long, Long)] found under import repro.dd._, and the one arrangements get") {
    assert(implicitly[Ordering[(Long, Long)]] eq longPairOrdering)
    val eng = new Engine(1)
    try {
      // BatchGraph imports repro.dd._: its weighted index orders (dst, weight) values with it.
      val idx = BatchGraph.indexWeighted(eng, GraphGen.weighted(GraphGen.uniform(10, 20)))
      assert(idx.ordV eq longPairOrdering)
    } finally eng.close()
  }

  test("compares without allocating") {
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val xs = Array.tabulate(1000)(i => (Long.MaxValue - i, Long.MinValue + i * 7L))
    val ord: Ordering[(Long, Long)] = longPairOrdering
    def run(): Int = {
      var acc = 0; var r = 0
      while (r < 200) { var i = 1; while (i < xs.length) { acc += ord.compare(xs(i - 1), xs(i)); i += 1 }; r += 1 }
      acc
    }
    run() // warm up
    val tid    = Thread.currentThread().getId
    val before = mx.getThreadAllocatedBytes(tid)
    run()
    val bytes = mx.getThreadAllocatedBytes(tid) - before
    // 200k comparisons; boxing both fields would allocate over 6 MB.
    assert(bytes < 200000L, s"$bytes bytes allocated")
  }
}
