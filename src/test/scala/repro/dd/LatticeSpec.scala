package repro.dd

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Laws of the time lattice and the Appendix A compaction theorems,
  * property-tested over totally ordered (Long) and product ((Long, Long))
  * lattices with deterministic random sampling.
  */
class LatticeSpec extends AnyFunSuite {

  private val P  = Lattice.product[Long, Long]
  private def t(rng: Random): (Long, Long) = (rng.nextInt(8).toLong, rng.nextInt(8).toLong)

  test("Long lattice: lub/glb are max/min and lteq is total") {
    val l = Lattice[Long]
    assert(l.lub(3L, 7L) == 7L && l.glb(3L, 7L) == 3L)
    assert(l.lteq(3L, 3L) && l.lteq(3L, 7L) && !l.lteq(7L, 3L))
  }

  test("product lattice: partial order admits incomparable elements") {
    assert(!P.lteq((0L, 1L), (1L, 0L)) && !P.lteq((1L, 0L), (0L, 1L)))
    assert(P.lub((0L, 1L), (1L, 0L)) == ((1L, 1L)))
    assert(P.glb((0L, 1L), (1L, 0L)) == ((0L, 0L)))
  }

  test("product lattice laws: lub is an upper bound, glb a lower bound, both idempotent/commutative") {
    val rng = new Random(7)
    for (_ <- 1 to 2000) {
      val (a, b) = (t(rng), t(rng))
      val up = P.lub(a, b); val dn = P.glb(a, b)
      assert(P.lteq(a, up) && P.lteq(b, up))
      assert(P.lteq(dn, a) && P.lteq(dn, b))
      assert(P.lub(a, b) == P.lub(b, a) && P.glb(a, b) == P.glb(b, a))
      assert(P.lub(a, a) == a && P.glb(a, a) == a)
    }
  }

  test("lub property (Appendix A): b<=a and c<=a imply lub(b,c)<=a") {
    val rng = new Random(11)
    for (_ <- 1 to 2000) {
      val (a, b, c) = (t(rng), t(rng), t(rng))
      if (P.lteq(b, a) && P.lteq(c, a)) assert(P.lteq(P.lub(b, c), a))
      if (P.lteq(a, b) && P.lteq(a, c)) assert(P.lteq(a, P.glb(b, c)))
    }
  }

  test("frontier is a minimal antichain and beyond() matches its definition") {
    val rng = new Random(13)
    for (_ <- 1 to 500) {
      val ts = Seq.fill(rng.nextInt(6) + 1)(t(rng))
      val f  = Frontier.fromSeq(ts)(P)
      // Minimality: no element dominates another.
      for (x <- f.elements; y <- f.elements if x != y) assert(!P.lteq(x, y))
      // beyond() is the paper's definition.
      for (_ <- 1 to 20) {
        val x = t(rng)
        assert(f.beyond(x) == ts.exists(e => P.lteq(e, x)))
      }
    }
  }

  test("Theorem 1 (correctness): t and rep_F(t) compare identically to all times beyond F") {
    val rng = new Random(17)
    for (_ <- 1 to 1000) {
      val f = Frontier.fromSeq(Seq.fill(rng.nextInt(3) + 1)(t(rng)))(P)
      val x = t(rng)
      val r = f.rep(x)
      // Exhaustively check the small time domain.
      for (i <- 0L to 8L; j <- 0L to 8L) {
        val g = (i, j)
        if (f.beyond(g)) assert(P.lteq(x, g) == P.lteq(r, g),
          s"x=$x rep=$r disagrees at $g beyond $f")
      }
    }
  }

  test("Theorem 2 (optimality): indistinguishable times share a representative") {
    val rng = new Random(19)
    for (_ <- 1 to 1000) {
      val f = Frontier.fromSeq(Seq.fill(rng.nextInt(3) + 1)(t(rng)))(P)
      val (x, y) = (t(rng), t(rng))
      val indist = (0L to 8L).forall(i => (0L to 8L).forall { j =>
        val g = (i, j)
        !f.beyond(g) || (P.lteq(x, g) == P.lteq(y, g))
      })
      if (indist) assert(f.rep(x) == f.rep(y), s"x=$x y=$y should share rep under $f")
      else assert(f.rep(x) != f.rep(y), s"x=$x y=$y distinguishable but share rep under $f")
    }
  }

  test("rep over a total order advances old times to the frontier and fixes new ones") {
    val f = Frontier(10L)
    assert(f.rep(3L) == 10L)
    assert(f.rep(10L) == 10L)
    assert(f.rep(42L) == 42L)
  }

  test("indistinguishable() for the empty (closed) frontier merges all times") {
    val f = Frontier.empty[Long]
    assert(f.indistinguishable(1L, 99L))
  }
}
