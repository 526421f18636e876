package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.dd.Engine

/** Batch graph algorithms on the DD kernel vs. purpose-built baselines. */
class BatchGraphSpec extends AnyFunSuite {

  private val n     = 200
  private val edges = GraphGen.uniform(n, 600, seed = 101L)

  test("array and hash-map BFS baselines agree") {
    val a = Baselines.bfsArray(n, edges, 0L)
    val h = Baselines.bfsHash(edges, 0L)
    for (v <- 0 until n) {
      val exp = if (a(v) >= 0) Some(a(v)) else None
      assert(h.get(v.toLong) == exp, s"node $v")
    }
  }

  test("array and hash-map Dijkstra baselines agree") {
    val w = GraphGen.weighted(edges)
    val a = Baselines.ssspArray(n, w, 0L)
    val h = Baselines.ssspHash(w, 0L)
    for (v <- 0 until n) {
      val exp = if (a(v) != Long.MaxValue) Some(a(v)) else None
      assert(h.get(v.toLong) == exp, s"node $v")
    }
  }

  test("array and hash-map union-find agree on components") {
    val a = Baselines.unionFindArray(n, edges)
    val h = Baselines.unionFindHash(edges)
    // Same partition: representative-of-representative matches.
    for (u <- 0 until n; v <- 0 until n if u < v) {
      val same = a(u) == a(v)
      val sameH = h.getOrElse(u.toLong, u.toLong) == h.getOrElse(v.toLong, v.toLong)
      // Hash baseline only tracks endpoint nodes; isolated nodes default to self.
      assert(same == sameH, s"pair ($u,$v)")
    }
  }

  for (workers <- Seq(1, 4)) {
    test(s"DD reach equals BFS reachability (workers=$workers)") {
      val eng = new Engine(workers)
      val arr = BatchGraph.indexForward(eng, edges)
      val got = BatchGraph.reach(eng, arr, 0L)
      val bfs = Baselines.bfsArray(n, edges, 0L)
      val exp = (0 until n).filter(bfs(_) >= 0).map(_.toLong).toSet
      assert(got == exp)
      eng.close()
    }

    test(s"DD sssp equals Dijkstra distances (workers=$workers)") {
      val w   = GraphGen.weighted(edges)
      val eng = new Engine(workers)
      val arr = BatchGraph.indexWeighted(eng, w)
      val got = BatchGraph.sssp(eng, arr, 0L)
      val ref = Baselines.ssspArray(n, w, 0L)
      val exp = (0 until n).filter(ref(_) != Long.MaxValue).map(v => (v.toLong, ref(v))).toMap
      assert(got == exp)
      eng.close()
    }

    test(s"DD wcc equals union-find components (workers=$workers)") {
      val sym   = GraphGen.symmetrize(edges)
      val eng   = new Engine(workers)
      val arr   = BatchGraph.indexForward(eng, sym)
      val nodes = (0 until n).map(_.toLong)
      val got   = BatchGraph.wcc(eng, arr, nodes)
      val uf    = Baselines.unionFindArray(n, sym)
      // Same partition (labels are the min node id per component under both).
      for (v <- 0 until n) assert(got(v.toLong) == uf(v).toLong, s"node $v")
      eng.close()
    }
  }

  test("reverse index answers reverse reachability") {
    val eng = new Engine(2)
    val arr = BatchGraph.index(eng, edges)(_.swap)
    val got = BatchGraph.reach(eng, arr, 0L) // nodes that can reach 0
    val rev = edges.map { case (s, d) => (d, s) }
    val bfs = Baselines.bfsArray(n, rev, 0L)
    val exp = (0 until n).filter(bfs(_) >= 0).map(_.toLong).toSet
    assert(got == exp)
    eng.close()
  }

  test("generators: tree and grid have the expected shape") {
    val t = GraphGen.tree(2, 3)
    assert(t.length == 2 + 4 + 8)
    assert(t.map(_._1).distinct.length == 7) // 1 root + 2 + 4 internal nodes
    val g = GraphGen.grid(3, 4)
    assert(g.length == 3 * 3 + 2 * 4) // rights: 3 rows x 3, downs: 2 rows x 4
    val p = GraphGen.gnp(50, 0.1, 7L)
    assert(p.nonEmpty && p.forall { case (s, d) => s != d && s < 50 && d < 50 })
  }
}
