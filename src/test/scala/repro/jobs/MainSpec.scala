package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class MainSpec extends AnyFunSuite {
  test("an unknown or missing figure name fails and lists the valid ones") {
    for (args <- Seq(Array("fig99"), Array.empty[String])) {
      val e = intercept[IllegalArgumentException](Main.main(args))
      assert(e.getMessage.contains("fig1, fig6, fig8, fig9, fig10, fig11, fig12, fig13, fig17"))
    }
  }
}
