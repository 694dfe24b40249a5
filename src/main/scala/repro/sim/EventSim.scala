package repro.sim

import repro.core._
import scala.collection.mutable

/** A tuple of an input stream: values keyed by fully qualified attribute name
  * (`"S.b"`), plus the event timestamp in seconds. Timestamps must be unique
  * across the whole input so "arrived earlier" is a strict total order.
  */
final case class InTuple(rel: String, vals: Map[String, Long], ts: Double)

/** A (partial) join result travelling through the topology. */
final class ITuple(
    val vals: Map[String, Long],
    val tss: Map[String, Double],
    val minTs: Double,
    val maxTs: Double,
) {
  override def toString: String = s"ITuple($vals, $tss)"
}

object ITuple {
  def single(t: InTuple): ITuple = new ITuple(t.vals, Map(t.rel -> t.ts), t.ts, t.ts)
  def merge(a: ITuple, b: ITuple): ITuple =
    new ITuple(a.vals ++ b.vals, a.tss ++ b.tss,
               math.min(a.minTs, b.minTs), math.max(a.maxTs, b.maxTs))
}

/** Physical model of the simulated cluster. All times in seconds.
  * `deterministic = true` zeroes delays and service times, giving exact,
  * loss-free results for correctness tests.
  */
final case class SimParams(
    netDelay: Double = 0.002,
    svcStore: Double = 4e-6,
    svcProbe: Double = 6e-6,
    svcPerMatch: Double = 1.5e-6,
    epochLen: Double = 1.0,
    memLimit: Double = Double.MaxValue,
    deterministic: Boolean = false,
) {
  def net: Double = if (deterministic) 0.0 else netDelay
  def sStore: Double = if (deterministic) 0.0 else svcStore
  def sProbe: Double = if (deterministic) 0.0 else svcProbe
  def sMatch: Double = if (deterministic) 0.0 else svcPerMatch
}

/** Measured outcomes of a simulation run. */
final class Metrics {
  /** Probe cost: tuples sent for probing (the paper's minimization subject). */
  var tuplesSent = 0L
  var probeMsgs = 0L
  var storeMsgs = 0L
  var matches = 0L
  val sentByNode = mutable.Map[String, Long]().withDefaultValue(0L)
  val resultCount = mutable.Map[String, Long]().withDefaultValue(0L)
  val latencySum = mutable.Map[String, Double]().withDefaultValue(0.0)
  /** (query, floor(second)) -> (Σ latency, results) for timelines. */
  val latencyBuckets = mutable.Map[(String, Long), (Double, Long)]()
  /** Per-input-tuple completion latency (Section VII.A: a tuple completes
    * when all join results with it are computed — i.e. when its probe chain
    * drains), bucketed by arrival second.
    */
  val tupleLatencyBuckets = mutable.Map[Long, (Double, Long)]()
  var tuplesCompleted = 0L
  var storedNow = 0L
  var inFlight = 0L
  var peakStored = 0L
  var peakMem = 0L
  /** Largest per-worker queue backlog observed, in tuple-equivalents. */
  var peakBacklog = 0L
  var failedAt: Option[Double] = None
  val workerBusy = mutable.Map[(String, Int), Double]().withDefaultValue(0.0)
  var inputTuples = 0L
  val results = mutable.ArrayBuffer[(String, ITuple)]() // only when recording

  def totalBusy: Double = workerBusy.values.sum
  def meanLatency(q: String): Double =
    if (resultCount(q) == 0) Double.NaN else latencySum(q) / resultCount(q)
  def meanLatencyAll: Double = {
    val n = resultCount.values.sum
    if (n == 0) Double.NaN else latencySum.values.sum / n
  }
}

/** Hook invoked at the start of every epoch (statistics evaluation and
  * re-optimization live here — Section VI).
  */
trait Controller {
  def onEpoch(epoch: Long, sim: EventSim): Unit
}

/** Discrete-event simulator of the CLASH worker topology (substitute for the
  * paper's Apache Storm cluster).
  *
  * Workers are partitions of store instances; each has a FIFO service queue
  * (modelled analytically via a busy-until horizon). Tuples are routed per
  * the topology's probe trees; probe/store rules follow Algorithms 3 and 4:
  * configurations are epoch-scoped, stores keep one container per epoch, and
  * an input tuple is probed once per maximal run of window-covered epochs
  * that share a configuration, so rewiring never loses results.
  */
final class EventSim(val catalog: Catalog, val params: SimParams, recordResults: Boolean = false) {

  val metrics = new Metrics
  val samples = new EpochSamples(params.epochLen)

  // ---- configuration schedule -------------------------------------------
  private val configs = mutable.TreeMap[Long, Topology]()

  /** Install a configuration governing every epoch from `fromEpoch` onward
    * (any previously installed configuration with a later start is
    * superseded — relevant for retroactive bootstrap installs).
    */
  def installConfig(fromEpoch: Long, topo: Topology): Unit = {
    configs.keys.filter(_ >= fromEpoch).toVector.foreach(configs.remove)
    configs(fromEpoch) = topo
    topo.stores.values.foreach(ensureStore)
  }

  def configFor(e: Long): Option[Topology] = configs.rangeTo(e).lastOption.map(_._2)

  /** Store instances maintained by *every* configuration governing the epoch
    * range — i.e. instances whose per-epoch content is complete over it.
    */
  def coveredStoreKeys(fromEpoch: Long, toEpoch: Long): Set[String] = {
    var acc: Set[String] = null
    var e = fromEpoch
    while (e <= toEpoch) {
      configFor(e) match {
        case Some(c) => acc = if (acc == null) c.storeKeys else acc.intersect(c.storeKeys)
        case None    => return Set.empty
      }
      e += 1
    }
    if (acc == null) Set.empty else acc
  }

  private def globalMaxWindow: Double =
    if (configs.isEmpty) 0.0 else configs.values.map(_.maxWindow).max

  // ---- stores -------------------------------------------------------------
  private final class Container {
    val tuples = mutable.ArrayBuffer[ITuple]()
    private val idx = mutable.Map[String, mutable.HashMap[Long, mutable.ArrayBuffer[ITuple]]]()
    def add(t: ITuple): Unit = {
      tuples += t
      idx.foreach { case (a, m) => m.getOrElseUpdate(t.vals(a), mutable.ArrayBuffer.empty) += t }
    }
    def lookup(attr: String, v: Long): mutable.ArrayBuffer[ITuple] = {
      val m = idx.getOrElseUpdate(attr, {
        val m = mutable.HashMap[Long, mutable.ArrayBuffer[ITuple]]()
        tuples.foreach(t => m.getOrElseUpdate(t.vals(attr), mutable.ArrayBuffer.empty) += t)
        m
      })
      m.getOrElse(v, EventSim.emptyBuf)
    }
    def size: Int = tuples.size
  }

  private final class PartitionState {
    val byEpoch = mutable.Map[Long, Container]()
    var busyUntil = 0.0
  }

  private final class StoreInst(val dfn: StoreDef) {
    val parts: Array[PartitionState] = Array.fill(dfn.parallelism)(new PartitionState)
    var stored = 0L
  }

  private val stores = mutable.Map[String, StoreInst]()

  private def ensureStore(dfn: StoreDef): Unit =
    if (!stores.contains(dfn.key)) stores(dfn.key) = new StoreInst(dfn)

  def activeStoreKeys: Set[String] = stores.keySet.toSet

  // ---- events --------------------------------------------------------------
  private sealed trait Payload
  private final case class StoreOp(epoch: Long, tup: ITuple) extends Payload

  /** A probe pass for combo-ownership epochs [ownLo, ownHi]: it may match
    * partners stored in any epoch up to the driving tuple's own, but only
    * combinations whose *earliest* component falls into [ownLo, ownHi] are
    * emitted as results by this pass — each combination is owned by exactly
    * one epoch (of its earliest component), so passes under different
    * configurations never lose or duplicate results (Algorithm 4).
    *
    * `storeOwn` lists the MIR store instances this pass maintains: the
    * earliest covering configuration containing an instance owns its inserts
    * (its pass probes the widest epoch range, hence produces a superset of
    * any later pass's combinations).
    */
  private final case class ProbeOp(topo: Topology, node: TopoNode, ownLo: Long, ownHi: Long,
                                   tups: Vector[ITuple], srcTs: Double, srcId: Long,
                                   storeOwn: Set[String]) extends Payload

  // Outstanding probe messages per source tuple — a tuple "completes" (all
  // its join results computed) when this drains to zero.
  private val pendingProbes = mutable.Map[Long, Int]()

  private def completeTuple(srcId: Long, srcTs: Double, fin: Double): Unit = {
    metrics.tuplesCompleted += 1
    val bucket = math.floor(srcTs).toLong
    val (s0, c0) = metrics.tupleLatencyBuckets.getOrElse(bucket, (0.0, 0L))
    metrics.tupleLatencyBuckets(bucket) = (s0 + (fin - srcTs), c0 + 1)
    pendingProbes.remove(srcId)
  }

  private final case class Ev(time: Double, prio: Int, seq: Long, store: String, part: Int, payload: Payload)

  private val pq = mutable.PriorityQueue.empty[Ev](
    Ordering.by((e: Ev) => (-e.time, -e.prio, -e.seq)))
  private var seq = 0L

  private def enqueue(time: Double, prio: Int, store: String, part: Int, p: Payload): Unit = {
    seq += 1
    pq.enqueue(Ev(time, prio, seq, store, part, p))
    val k = p match { case s: StoreOp => 1; case pr: ProbeOp => pr.tups.size }
    metrics.inFlight += k
  }

  private def epochOf(ts: Double): Long = math.floor(ts / params.epochLen).toLong

  /** An overloaded worker's queue backlog, converted to tuple-equivalents:
    * unprocessed probe work buffered in its input queue. This is what makes
    * overloaded Storm workers "fail due to memory overflow" in the paper.
    */
  private var curBacklog = 0L
  private def noteBacklog(ps: PartitionState, now: Double): Unit = {
    val backlog = ((ps.busyUntil - now) / math.max(params.sProbe, 1e-12)).toLong
    if (backlog > metrics.peakBacklog) metrics.peakBacklog = backlog
    curBacklog = backlog
  }

  private def hashPart(v: Long, par: Int): Int = {
    val h = java.lang.Long.hashCode(v * 0x9e3779b97f4a7c15L)
    math.floorMod(h, par)
  }

  private def storePartition(ref: StoreRef, vals: Map[String, Long], par: Int): Int = ref.part match {
    case Some(a) => hashPart(vals(a.full), par)
    case None    => hashPart(vals.values.foldLeft(17L)((h, v) => h * 31 + v), par)
  }

  // ---- probing ---------------------------------------------------------------
  /** Send a batch of (partial) result tuples to the workers of a node's target
    * store: routed to one partition when the partitioning value is derivable,
    * broadcast to all partitions otherwise (factor χ in the probe cost).
    */
  private def dispatch(topo: Topology, node: TopoNode, eLo: Long, eHi: Long,
                       tups: Vector[ITuple], srcTs: Double, srcId: Long,
                       storeOwn: Set[String], time: Double): Int = {
    val st = stores(node.step.targetRef.key)
    val par = st.dfn.parallelism
    var msgs = 0
    node.step.routeAttr match {
      case Some(a) =>
        tups.groupBy(t => hashPart(t.vals(a.full), par)).foreach { case (p, group) =>
          enqueue(time, 1, st.dfn.key, p, ProbeOp(topo, node, eLo, eHi, group, srcTs, srcId, storeOwn))
          msgs += 1
        }
        metrics.tuplesSent += tups.size
        metrics.sentByNode(node.id) += tups.size
      case None =>
        var p = 0
        while (p < par) {
          enqueue(time, 1, st.dfn.key, p, ProbeOp(topo, node, eLo, eHi, tups, srcTs, srcId, storeOwn))
          msgs += 1
          p += 1
        }
        metrics.tuplesSent += tups.size.toLong * par
        metrics.sentByNode(node.id) += tups.size.toLong * par
    }
    metrics.probeMsgs += msgs
    msgs
  }

  private def handleStore(ev: Ev, op: StoreOp): Unit = {
    val st = stores(ev.store)
    val ps = st.parts(ev.part)
    val start = math.max(ev.time, ps.busyUntil)
    val dur = params.sStore
    ps.busyUntil = start + dur
    metrics.workerBusy((ev.store, ev.part)) += dur
    noteBacklog(ps, ev.time)
    ps.byEpoch.getOrElseUpdate(op.epoch, new Container).add(op.tup)
    st.stored += 1
    metrics.storedNow += 1
    if (metrics.storedNow > metrics.peakStored) metrics.peakStored = metrics.storedNow
  }

  private def handleProbe(ev: Ev, op: ProbeOp): Unit = {
    val st = stores(ev.store)
    val ps = st.parts(ev.part)
    val w = op.node.probeWindow
    val pairs = op.node.step.probePairs
    require(pairs.nonEmpty, s"cross-product probe at node ${op.node.id}")
    val (sa, pa) = pairs.head
    val rest = pairs.tail

    val produced = Vector.newBuilder[ITuple]
    var n = 0
    val probeHi = epochOf(op.srcTs)
    op.tups.foreach { tup =>
      val pv = tup.vals(pa.full)
      var e = op.ownLo
      while (e <= probeHi) {
        ps.byEpoch.get(e).foreach { cont =>
          val cands = cont.lookup(sa.full, pv)
          var i = 0
          while (i < cands.length) {
            val c = cands(i)
            if (c.maxTs < op.srcTs &&
                rest.forall { case (s2, p2) => c.vals(s2.full) == tup.vals(p2.full) } &&
                math.max(c.maxTs, tup.maxTs) - math.min(c.minTs, tup.minTs) <= w) {
              produced += ITuple.merge(tup, c)
              n += 1
            }
            i += 1
          }
        }
        e += 1
      }
    }

    val start = math.max(ev.time, ps.busyUntil)
    // probing work scales with the tuples probed (the paper's probe cost),
    // plus the matches produced
    val dur = params.sProbe * op.tups.size + n * params.sMatch
    ps.busyUntil = start + dur
    metrics.workerBusy((ev.store, ev.part)) += dur
    metrics.matches += n
    noteBacklog(ps, ev.time)

    val fin = start + dur
    var downstream = 0
    if (n > 0) {
      val out = produced.result()
      op.node.children.foreach { cid =>
        downstream += dispatch(op.topo, op.topo.nodes(cid), op.ownLo, op.ownHi,
                               out, op.srcTs, op.srcId, op.storeOwn, fin + params.net)
      }
      // only combinations owned by this pass's epoch range are final results;
      // each query additionally enforces its exact window on emission (shared
      // nodes probe with the max window of their sharers)
      if (op.node.emits.nonEmpty) {
        val owned = out.filter { t => val e = epochOf(t.minTs); e >= op.ownLo && e <= op.ownHi }
        if (owned.nonEmpty) op.node.emits.foreach { q =>
          val qw = op.topo.queryWindows.getOrElse(q, Double.MaxValue)
          val res = owned.filter(t => t.maxTs - t.minTs <= qw)
          val k = res.size
          if (k > 0) {
            metrics.resultCount(q) += k
            val lat = fin - op.srcTs
            metrics.latencySum(q) += lat * k
            val bucket = math.floor(fin).toLong
            val (s0, c0) = metrics.latencyBuckets.getOrElse((q, bucket), (0.0, 0L))
            metrics.latencyBuckets((q, bucket)) = (s0 + lat * k, c0 + k)
            if (recordResults) res.foreach(t => metrics.results += ((q, t)))
          }
        }
      }
      // MIR maintenance: the owning pass inserts every produced combination
      // (it probes the widest range — a superset of later passes' output)
      op.node.storeInto.foreach { ref =>
        if (op.storeOwn(ref.key)) {
          val tgt = stores(ref.key)
          out.foreach { m =>
            val p = storePartition(ref, m.vals, tgt.dfn.parallelism)
            enqueue(fin + params.net, 0, ref.key, p, StoreOp(epochOf(m.minTs), m))
            metrics.storeMsgs += 1
          }
        }
      }
    }

    // completion tracking: this message is consumed, downstream ones created
    val rem = pendingProbes.getOrElse(op.srcId, 1) - 1 + downstream
    if (rem <= 0) completeTuple(op.srcId, op.srcTs, fin)
    else pendingProbes(op.srcId) = rem
  }

  private def handleIngest(t: InTuple): Unit = {
    metrics.inputTuples += 1
    samples.observe(epochOf(t.ts), t)
    val e0 = epochOf(t.ts)
    val single = ITuple.single(t)

    // Algorithm 4: determine the maximal runs of window-covered epochs that
    // share a configuration object; probe once per run, and store the tuple
    // into the union of the covering configurations' base-store instances
    // (future probe passes for old epochs use the old instances).
    val eLo = math.max(epochOf(t.ts - globalMaxWindow), configs.headOption.map(_._1).getOrElse(e0))
    val runs = Vector.newBuilder[(Topology, Long, Long)]
    var e = eLo
    while (e <= e0) {
      configFor(e) match {
        case Some(cfg) =>
          var h = e
          while (h < e0 && configFor(h + 1).exists(_ eq cfg)) h += 1
          runs += ((cfg, e, h))
          e = h + 1
        case None =>
          e += 1
      }
    }
    val covering = runs.result()

    covering.flatMap(_._1.ingest.getOrElse(t.rel, Vector.empty)).distinct.foreach { sk =>
      val st = stores(sk)
      val p = storePartition(st.dfn.ref, t.vals, st.dfn.parallelism)
      enqueue(t.ts + params.net, 0, sk, p, StoreOp(e0, single))
      metrics.storeMsgs += 1
    }

    // The earliest covering configuration containing an MIR store instance
    // owns that instance's maintenance inserts for this tuple's passes.
    val srcId = metrics.inputTuples
    var rootMsgs = 0
    val ownedSoFar = mutable.Set[String]()
    covering.foreach { case (cfg, lo, hi) =>
      val own = cfg.storeIntoKeys -- ownedSoFar
      ownedSoFar ++= cfg.storeIntoKeys
      cfg.roots.getOrElse(t.rel, Vector.empty).foreach { rootId =>
        rootMsgs += dispatch(cfg, cfg.nodes(rootId), lo, hi, Vector(single), t.ts, srcId,
                             own, t.ts + params.net)
      }
    }
    if (rootMsgs > 0) pendingProbes(srcId) = rootMsgs
  }

  // ---- eviction / gc ---------------------------------------------------------
  private def evict(now: Double): Unit = {
    val slack = params.epochLen + 10 * params.net
    stores.values.foreach { st =>
      val cut = now - st.dfn.window - slack
      st.parts.foreach { ps =>
        val dead = ps.byEpoch.keys.filter(e => (e + 1) * params.epochLen < cut).toVector
        dead.foreach { e =>
          val n = ps.byEpoch.remove(e).map(_.size).getOrElse(0)
          st.stored -= n
          metrics.storedNow -= n
        }
      }
    }
    // Drop stores no longer referenced by any configuration that can still be
    // targeted (Section VI.B reference counting on query removal).
    val curEpoch = epochOf(now)
    val horizon = curEpoch - math.ceil((globalMaxWindow + slack) / params.epochLen).toLong - 1
    val oldKeys = configs.keys.filter(_ <= horizon).toVector.sorted
    if (oldKeys.size > 1) oldKeys.dropRight(1).foreach(configs.remove)
    val referenced = configs.values.flatMap(_.storeKeys).toSet
    val dead = stores.keys.filterNot(referenced).toVector
    dead.foreach { k =>
      val st = stores(k)
      metrics.storedNow -= st.stored
      stores.remove(k)
    }
  }

  // ---- main loop --------------------------------------------------------------
  /** Run the simulation over `input` (must be sorted by ts) until all work is
    * drained or `tEnd` is reached. Returns the metrics (also kept on `this`).
    */
  def run(input: IndexedSeq[InTuple], tEnd: Double = Double.MaxValue,
          controller: Option[Controller] = None): Metrics = {
    var inIdx = 0
    var currentEpoch = -1L

    def advanceEpochs(t: Double): Unit = {
      val target = epochOf(t)
      while (currentEpoch < target) {
        currentEpoch += 1
        evict(currentEpoch * params.epochLen)
        controller.foreach(_.onEpoch(currentEpoch, this))
      }
    }

    var running = true
    while (running) {
      val evT = if (pq.nonEmpty) pq.head.time else Double.MaxValue
      val inT = if (inIdx < input.size) input(inIdx).ts else Double.MaxValue
      if (evT == Double.MaxValue && inT == Double.MaxValue) running = false
      else {
        val t = math.min(evT, inT)
        if (t > tEnd) running = false
        else {
          advanceEpochs(t)
          if (evT <= inT) {
            val ev = pq.dequeue()
            ev.payload match {
              case s: StoreOp =>
                metrics.inFlight -= 1
                handleStore(ev, s)
              case p: ProbeOp =>
                metrics.inFlight -= p.tups.size
                handleProbe(ev, p)
            }
          } else {
            handleIngest(input(inIdx))
            inIdx += 1
          }
          val mem = metrics.storedNow + metrics.inFlight + curBacklog
          if (mem > metrics.peakMem) metrics.peakMem = mem
          if (mem > params.memLimit && metrics.failedAt.isEmpty) {
            metrics.failedAt = Some(t)
            running = false
          }
        }
      }
    }
    metrics
  }
}

private object EventSim {
  val emptyBuf: mutable.ArrayBuffer[ITuple] = mutable.ArrayBuffer.empty
}
