package repro.harness

import org.scalatest.funsuite.AnyFunSuite

class GraphQueryHarnessSpec extends AnyFunSuite {
  private val dd = Seq(1.0, 2.0, 10.0, 100.0)
  private val rows = Seq(
    ("look-up", 0.5, dd), // a scan may beat a look-up; the gate does not ask
    ("two-hop", 30.0, dd),
    ("4-path", 40.0, dd),
  )

  test("the Fig. 6 shape gate passes the paper's shape") {
    GraphQueryHarness.checkShape(100L, 400L, rows)
  }

  test("the Fig. 6 shape gate names the cell that breaks the shape") {
    val slowPath = rows.updated(2, ("4-path", 0.9, dd))
    assert(intercept[IllegalStateException](GraphQueryHarness.checkShape(100L, 400L, slowPath))
      .getMessage.contains("4-path: DD b=1"))
    val slowTwoHop = rows.updated(1, ("two-hop", 1.0, dd))
    assert(intercept[IllegalStateException](GraphQueryHarness.checkShape(100L, 400L, slowTwoHop))
      .getMessage.contains("two-hop: DD b=1"))
    assert(intercept[IllegalStateException](GraphQueryHarness.checkShape(400L, 400L, rows))
      .getMessage.contains("memory"))
  }
}
