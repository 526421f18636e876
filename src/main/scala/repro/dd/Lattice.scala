package repro.dd

/** Lattice of logical timestamps (§3.1 of the paper).
  *
  * Differential dataflow times are only *partially* ordered. The engine's
  * traces use totally ordered `Long` epochs (`lub = max`, `glb = min`), and
  * use lattices only for the `Frontier[Long]` bounds of their batches. The
  * product instance, the (epoch, iteration) shape of iterative scopes, serves
  * the Appendix-A model of compaction that `LatticeSpec` property-tests.
  */
trait Lattice[T] extends Serializable {

  /** Partial order: `a` less-or-equal `b`. */
  def lteq(a: T, b: T): Boolean

  /** Least upper bound (the paper's `∧` in Appendix A notation). */
  def lub(a: T, b: T): T

  /** Greatest lower bound (the paper's `∨` in Appendix A notation). */
  def glb(a: T, b: T): T
}

object Lattice {
  def apply[T](implicit l: Lattice[T]): Lattice[T] = l

  /** Streaming epochs: totally ordered times. */
  implicit object LongLattice extends Lattice[Long] {
    def lteq(a: Long, b: Long): Boolean = a <= b
    def lub(a: Long, b: Long): Long     = math.max(a, b)
    def glb(a: Long, b: Long): Long     = math.min(a, b)
  }

  /** Product lattice, ordered coordinate-wise — e.g. (epoch, iteration). */
  implicit def product[A, B](implicit la: Lattice[A], lb: Lattice[B]): Lattice[(A, B)] =
    new Lattice[(A, B)] {
      def lteq(a: (A, B), b: (A, B)): Boolean =
        la.lteq(a._1, b._1) && lb.lteq(a._2, b._2)
      def lub(a: (A, B), b: (A, B)): (A, B) = (la.lub(a._1, b._1), lb.lub(a._2, b._2))
      def glb(a: (A, B), b: (A, B)): (A, B) = (la.glb(a._1, b._1), lb.glb(a._2, b._2))
    }
}

/** An antichain of timestamps (§3.1). A time `t` is *beyond* the frontier when
  * it is greater than or equal to some element. The empty frontier is the
  * "closed" frontier: no future time is beyond it.
  */
final case class Frontier[T] private (elements: Vector[T])(implicit val lattice: Lattice[T]) {

  def isEmpty: Boolean = elements.isEmpty

  /** Is `t` greater than or equal to some element of this frontier? */
  def beyond(t: T): Boolean = {
    var i = 0; while (i < elements.length && !lattice.lteq(elements(i), t)) i += 1
    i < elements.length
  }

  /** `rep_F(t) = ⋀_{f∈F}(t ⋁ f)` — the optimal compaction representative of
    * `t` relative to this frontier (Appendix A). Requires a nonempty frontier.
    */
  def rep(t: T): T = {
    require(elements.nonEmpty, "rep_F is undefined for the empty frontier")
    elements.iterator.map(f => lattice.lub(t, f)).reduceLeft(lattice.glb)
  }

  /** Times `t1`, `t2` are indistinguishable as of this frontier when they
    * compare identically against every time beyond it (Appendix A).
    * Decidable via representatives by Theorems 1 and 2.
    */
  def indistinguishable(t1: T, t2: T): Boolean =
    if (elements.isEmpty) true else rep(t1) == rep(t2)

  /** True when every element of `other` is beyond this frontier — i.e. this
    * frontier is no later than `other`.
    */
  def precedesOrEquals(other: Frontier[T]): Boolean = other.elements.forall(beyond)
}

object Frontier {

  /** Build a frontier as the minimal antichain of the given times. */
  def apply[T: Lattice](ts: T*): Frontier[T] = fromSeq(ts)

  def fromSeq[T](ts: Seq[T])(implicit l: Lattice[T]): Frontier[T] = {
    val distinct = ts.distinct
    val minimal = distinct.filter { t =>
      !distinct.exists(s => s != t && l.lteq(s, t))
    }
    new Frontier(minimal.toVector)
  }

  /** The closed frontier: no future times remain. */
  def empty[T: Lattice]: Frontier[T] = new Frontier(Vector.empty)
}
