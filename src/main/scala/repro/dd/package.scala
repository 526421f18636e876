package repro

package object dd {

  /** Orders `(Long, Long)` pairs on their primitive fields. Scala's generic
    * `Ordering.Tuple2` boxes both fields on every comparison; this instance
    * is found first wherever `repro.dd._` is in scope.
    */
  implicit val longPairOrdering: Ordering[(Long, Long)] = new Ordering[(Long, Long)] {
    def compare(x: (Long, Long), y: (Long, Long)): Int = {
      val c = java.lang.Long.compare(x._1, y._1)
      if (c != 0) c else java.lang.Long.compare(x._2, y._2)
    }
  }
}
