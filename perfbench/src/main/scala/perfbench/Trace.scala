package perfbench

import java.io.PrintWriter
import scala.collection.mutable

/** Spans recorded by the benchmark around its calls into the program.
  *
  * Spans nest on the single client thread; a span's self time is its
  * duration minus the time its child spans cover. Counts (for example Spark
  * jobs, delivered on another thread) are attributed to a span id. When
  * disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {

  final class Span(val id: Int, val parent: Int, val name: String, val start: Long) {
    var end: Long     = 0L
    var childNs: Long = 0L
    def ms: Double     = (end - start) / 1e6
    def selfMs: Double = (end - start - childNs) / 1e6
  }

  private val done    = mutable.ArrayBuffer.empty[Span]
  private var stack   = List.empty[Span]
  private var nextId  = 0
  private val counts  = mutable.HashMap.empty[(Int, String), Double]
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  /** Called with the id of the span that becomes current (-1 for none). */
  var onSwitch: Int => Unit = _ => ()

  def current: Int = stack.headOption.map(_.id).getOrElse(-1)

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val s = new Span(nextId, current, name, System.nanoTime())
      nextId += 1
      stack = s :: stack
      onSwitch(s.id)
      try f
      finally {
        s.end = System.nanoTime()
        stack = stack.tail
        stack.headOption.foreach(_.childNs += s.end - s.start)
        done += s
        onSwitch(current)
      }
    }

  /** Record one sample of a value (a size, a count) under `name`. */
  def sample(name: String, v: => Double): Unit =
    if (enabled) samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def samplesOf(name: String): Seq[Double] = samples.get(name).map(_.toSeq).getOrElse(Nil)

  /** Add `v` to counter `name` of span `spanId` (thread-safe). */
  def count(spanId: Int, name: String, v: Double): Unit = counts.synchronized {
    counts((spanId, name)) = counts.getOrElse((spanId, name), 0.0) + v
  }

  def spans(name: String): Seq[Span] = done.filter(_.name == name).toSeq
  def selfMs(name: String): Seq[Double] = spans(name).map(_.selfMs)

  /** Counter `counter` summed over each `name` span and its descendants. */
  def inclusiveCounts(name: String, counter: String): Seq[Double] = {
    val children = done.groupBy(_.parent)
    def total(s: Span): Double =
      counts.synchronized(counts.getOrElse((s.id, counter), 0.0)) +
        children.getOrElse(s.id, Nil).iterator.map(total).sum
    spans(name).map(total)
  }

  def writeSpans(path: String): Unit = {
    val out = new PrintWriter(path)
    try done.sortBy(_.id).foreach { s =>
      out.println(s"""{"id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", "start_ns": ${s.start}, "end_ns": ${s.end}, "self_ms": ${s.selfMs}}""")
    } finally out.close()
  }
}
