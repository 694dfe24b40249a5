package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Fig9Env

/** Pinned plans of small Fig 9 environment instances: the solver's cost, its
  * search-node count and the chosen decorated order of every slot. A change
  * to how steps, candidates or costs are built must leave all three as they
  * are — the solver visits the same slots in the same order and breaks ties
  * the same way.
  */
class PlanPinSpec extends AnyFunSuite {

  private final case class Pin(nRels: Int, nQ: Int, size: Int, seed: Long,
                               cost: Double, nodes: Long, optimal: Boolean, orders: Vector[String])

  private val NodeBudget = 20000L

  private val pins = Vector(
    Pin(5, 2, 3, 5L, 900.0, 478L, optimal = true, Vector(
      "q:q001:r001 ⟨r001, r004[r004.a], r002[r002.b]⟩@q001",
      "q:q001:r002 ⟨r002, r004[r004.a], r001[r001.a]⟩@q001",
      "q:q001:r004 ⟨r004, r001[r001.a], r002[r002.b]⟩@q001",
      "q:q002:r000 ⟨r000, r001[r001.a], r003[r003.a]⟩@q002",
      "q:q002:r001 ⟨r001, r000[r000.c], r003[r003.a]⟩@q002",
      "q:q002:r003 ⟨r003, r000[r000.b], r001[r001.a]⟩@q002",
    )),
    Pin(6, 4, 3, 1L, 1600.0, 20006L, optimal = false, Vector(
      "q:q001:r001 ⟨r001, r003[r003.a], r002[r002.a]⟩@q001",
      "q:q001:r002 ⟨r002, r003[r003.a], r001[r001.c]⟩@q001",
      "q:q001:r003 ⟨r003, r001[r001.c], r002[r002.a]⟩@q001",
      "q:q002:r001 ⟨r001, r004[r004.a], r003[r003.c]⟩@q002",
      "q:q002:r003 ⟨r003, r004[r004.c], r001[r001.a]⟩@q002",
      "q:q002:r004 ⟨r004, r001[r001.a], r003[r003.c]⟩@q002",
      "q:q003:r000 ⟨r000, r002[r002.a], r005[r005.a]⟩@q003",
      "q:q003:r002 ⟨r002, r005[r005.a], r000[r000.a]⟩@q003",
      "q:q003:r005 ⟨r005, r002[r002.c], r000[r000.a]⟩@q003",
      "q:q004:r002 ⟨r002, r005[r005.a], r004[r004.a]⟩@q004",
      "q:q004:r004 ⟨r004, r002[r002.b], r005[r005.a]⟩@q004",
      "q:q004:r005 ⟨r005, r002[r002.c], r004[r004.a]⟩@q004",
    )),
    Pin(8, 2, 4, 7L, 1366.6666666666667, 20007L, optimal = false, Vector(
      "q:q001:r000 ⟨r000, r004[r004.a], r005[r005.a], r003[r003.a]⟩@q001",
      "q:q001:r003 ⟨r003, r005[r005.a], r000[r000.a], r004[r004.a]⟩@q001",
      "q:q001:r004 ⟨r004, r000[r000.c], r005[r005.a], r003[r003.a]⟩@q001",
      "q:q001:r005 ⟨r005, r000[r000.a], r003[r003.a], r004[r004.a]⟩@q001",
      "q:q002:r000 ⟨r000, r002[r002.a], r005[r005.a], r006[r006.a]⟩@q002",
      "q:q002:r002 ⟨r002, r000[r000.a], r005[r005.a], r006[r006.a]⟩@q002",
      "q:q002:r005 ⟨r005, r000[r000.a], r002[r002.a], r006[r006.a]⟩@q002",
      "q:q002:r006 ⟨r006, r002[r002.a], r000[r000.a], r005[r005.a]⟩@q002",
    )),
    Pin(10, 2, 5, 9L, 2083.3333333333335, 20010L, optimal = false, Vector(
      "q:q001:r003 ⟨r003, r006[r006.a], r007[r007.c], r008[r008.c], r009[r009.c]⟩@q001",
      "q:q001:r006 ⟨r006, r003[r003.b], r007[r007.c], r008[r008.c], r009[r009.c]⟩@q001",
      "q:q001:r007 ⟨r007, r006[r006.c], r003[r003.b], r008[r008.c], r009[r009.c]⟩@q001",
      "q:q001:r008 ⟨r008, r007[r007.b], r006[r006.c], r003[r003.b], r009[r009.c]⟩@q001",
      "q:q001:r009 ⟨r009, r008[r008.a], r007[r007.b], r006[r006.c], r003[r003.b]⟩@q001",
      "q:q002:r001 ⟨r001, r008[r008.b], r006[r006.a], r009[r009.b], r002[r002.a]⟩@q002",
      "q:q002:r002 ⟨r002, r009[r009.a], r001[r001.c], r008[r008.b], r006[r006.a]⟩@q002",
      "q:q002:r006 ⟨r006, r008[r008.c], r001[r001.b], r009[r009.b], r002[r002.a]⟩@q002",
      "q:q002:r008 ⟨r008, r001[r001.b], r006[r006.a], r009[r009.b], r002[r002.a]⟩@q002",
      "q:q002:r009 ⟨r009, r001[r001.c], r002[r002.a], r008[r008.b], r006[r006.a]⟩@q002",
    )),
  )

  pins.foreach { pin =>
    test(s"Fig 9 instance: ${pin.nRels} relations, ${pin.nQ} queries of size ${pin.size}, seed ${pin.seed}") {
      val qs = Fig9Env.randomQueries(pin.nRels, pin.nQ, pin.size, pin.seed)
      val planned = Planner.mqo(qs, Fig9Env.catalog(pin.nRels), Fig9Env.stats(pin.nRels), NodeBudget)
      val orders = planned.selection.orders.map { case (sid, c) => s"${sid.key} $c" }
      assert(orders == pin.orders)
      assert(planned.solution.cost == pin.cost)
      assert(planned.solution.nodes == pin.nodes)
      assert(planned.solution.optimal == pin.optimal)
    }
  }
}
