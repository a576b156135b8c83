"""Open-loop synthetic load generation for the cluster tier.

The real execution tier runs actual fabric simulations — milliseconds
per job — so a million-job experiment needs a model, not a fabric.
This module is that model: a deterministic discrete-event simulation of
the router's *scheduling* behaviour (consistent-hash placement, per
shard FIFO queues, LRU fabric residency, cold-hash work stealing) with
**calibrated** service times — the bench measures one warm and one cold
job on a real :class:`~repro.serve.pool.FabricWorker` and feeds the
simulated-time figures in, so the model's only fiction is scale.

The load is open-loop (arrivals do not wait for completions — the
production-realistic regime where tail latency lives): Poisson arrivals
at a target utilization of the aggregate service capacity, plan and
tenant identities Zipf-skewed (a few hot plans dominate, as real
serving traces do).  Plans route exactly the way the real router
routes: a SHA-256 per plan, projected by
:func:`~repro.compile.hashing.plan_hash_prefix`, placed on the same
:class:`~repro.cluster.ring.HashRing`.

Everything is seeded; two runs of one spec produce identical reports.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.compile.hashing import plan_hash_prefix
from repro.cluster.ring import HashRing
from repro.errors import ClusterError

__all__ = [
    "DrainLoadReport",
    "LoadReport",
    "LoadSpec",
    "RejoinLoadReport",
    "generate_trace",
    "run_load",
    "simulate",
    "simulate_drain",
    "simulate_rejoin",
]


@dataclass(frozen=True)
class LoadSpec:
    """One synthetic load experiment, fully determined by its fields."""

    n_jobs: int = 100_000
    n_shards: int = 4
    seed: int = 0
    #: Distinct compiled plans in the universe (Zipf-ranked).
    n_plans: int = 64
    n_tenants: int = 16
    #: Zipf exponent for plan/tenant popularity (> 0; bigger = hotter).
    zipf_s: float = 1.1
    #: Fabrics per shard = the LRU resident-configuration set size.
    fabrics_per_shard: int = 2
    #: Calibrated service times (microseconds of fabric time).
    warm_service_us: float = 40.0
    cold_service_us: float = 160.0
    #: Offered load as a fraction of aggregate cold-service capacity
    #: (conservative: warm hits add headroom that stealing exploits).
    utilization: float = 0.85
    steal: bool = True
    steal_margin: int = 4
    #: How deep a thief scans a victim's queue tail for a cold-hash job.
    steal_scan: int = 8
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ClusterError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.n_shards < 1:
            raise ClusterError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_plans < 1:
            raise ClusterError(f"n_plans must be >= 1, got {self.n_plans}")
        if self.zipf_s <= 0:
            raise ClusterError(f"zipf_s must be > 0, got {self.zipf_s}")
        if not 0 < self.utilization <= 2.0:
            raise ClusterError(
                f"utilization must be in (0, 2], got {self.utilization}"
            )
        if self.warm_service_us <= 0 or self.cold_service_us < self.warm_service_us:
            raise ClusterError(
                "need 0 < warm_service_us <= cold_service_us, got "
                f"{self.warm_service_us} / {self.cold_service_us}"
            )


@dataclass
class LoadReport:
    """What one simulated run measured."""

    n_jobs: int = 0
    n_shards: int = 0
    makespan_s: float = 0.0
    throughput_jobs_per_s: float = 0.0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    p999_ms: float = 0.0
    warm_fraction: float = 0.0
    steals: int = 0
    #: Jobs completed per shard (balance view).
    per_shard_completed: dict[str, int] = field(default_factory=dict)
    #: Share of jobs belonging to the hottest plan / tenant (skew view).
    hottest_plan_share: float = 0.0
    hottest_tenant_share: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DrainLoadReport:
    """Latency impact of live-draining one shard mid-trace."""

    n_jobs: int = 0
    n_shards: int = 0
    drained_shard: str = ""
    #: When the drain fired (simulated seconds into the trace).
    drain_start_s: float = 0.0
    #: When the last migrated job finished — the disruption window edge.
    drain_settle_s: float = 0.0
    #: Queued jobs re-homed off the draining shard.
    migrated: int = 0
    #: Sojourn p99 of completions before the drain fired.
    steady_p99_ms: float = 0.0
    #: Sojourn p99 of completions inside the drain window.
    drain_p99_ms: float = 0.0
    #: Sojourn p99 after the window settles (the smaller cluster's
    #: steady state).
    post_p99_ms: float = 0.0
    #: The acceptance number: drain-window p99 over steady-state p99.
    p99_ratio: float = 0.0
    makespan_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RejoinLoadReport:
    """Latency impact of a shard crash followed by an automatic rejoin."""

    n_jobs: int = 0
    n_shards: int = 0
    killed_shard: str = ""
    #: When the crash fired (simulated seconds into the trace).
    kill_s: float = 0.0
    #: When the DEAD verdict landed and the handoff re-homed the backlog.
    handoff_s: float = 0.0
    #: When the respawned shard re-entered the ring.
    rejoin_s: float = 0.0
    #: The modeled mean-time-to-recovery: ``rejoin_s - kill_s``.
    mttr_s: float = 0.0
    #: Jobs re-homed off the dead shard at handoff (its backlog plus the
    #: in-flight job the crash cancelled).
    migrated: int = 0
    #: Arrivals routed to the dead-but-undetected shard — they queue
    #: blindly until the verdict's handoff rescues them.
    stranded: int = 0
    #: Sojourn p99 of completions before the crash.
    steady_p99_ms: float = 0.0
    #: Sojourn p99 inside the disruption window (crash → settle).
    window_p99_ms: float = 0.0
    #: Sojourn p99 after the rejoined cluster settles.
    post_p99_ms: float = 0.0
    #: The acceptance number: disruption-window p99 over steady p99.
    p99_ratio: float = 0.0
    makespan_s: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _zipf_pmf(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def plan_routing_keys(n_plans: int) -> list[int]:
    """Synthetic plan content addresses, projected like real ones."""
    return [
        plan_hash_prefix(
            hashlib.sha256(f"loadgen-plan-{k}".encode()).hexdigest()
        )
        for k in range(n_plans)
    ]


def generate_trace(
    spec: LoadSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrival_s, plan_id, tenant_id)`` arrays for ``spec``.

    Arrival times are Poisson at ``utilization`` of the ``n_shards``
    cluster's cold-service capacity (every-job-cold is the conservative
    capacity rating; warm hits buy headroom).  Reusing one trace across
    shard counts (the bench's speedup measurement) keeps the *offered*
    load identical, so a single node drowns and the ratio of makespans
    is the honest scale-out factor.
    """
    rng = np.random.default_rng(spec.seed)
    capacity = spec.n_shards / (spec.cold_service_us * 1e-6)
    rate = spec.utilization * capacity
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=spec.n_jobs))
    plans = rng.choice(
        spec.n_plans, size=spec.n_jobs, p=_zipf_pmf(spec.n_plans, spec.zipf_s)
    ).astype(np.int64)
    tenants = rng.choice(
        spec.n_tenants,
        size=spec.n_jobs,
        p=_zipf_pmf(spec.n_tenants, spec.zipf_s),
    ).astype(np.int64)
    return arrivals, plans, tenants


def simulate(
    spec: LoadSpec,
    trace: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    *,
    n_shards: int | None = None,
) -> LoadReport:
    """Event-driven run of ``trace`` on an ``n_shards`` cluster.

    ``n_shards=None`` uses ``spec.n_shards``; passing ``1`` replays the
    same trace on a single node (the speedup denominator).
    """
    if trace is None:
        trace = generate_trace(spec)
    arrivals, plans, tenants = trace
    shards = n_shards if n_shards is not None else spec.n_shards
    if shards < 1:
        raise ClusterError(f"n_shards must be >= 1, got {shards}")
    names = [f"shard-{i}" for i in range(shards)]
    ring = HashRing(names, vnodes=spec.vnodes)
    keys = plan_routing_keys(spec.n_plans)
    index_of = {name: i for i, name in enumerate(names)}
    home = np.array(
        [index_of[ring.route(key)] for key in keys], dtype=np.int64
    )

    warm_s = spec.warm_service_us * 1e-6
    cold_s = spec.cold_service_us * 1e-6
    n_jobs = len(arrivals)

    # deques: popleft is O(1) and a drowning single-node queue (the
    # speedup denominator run) reaches hundreds of thousands of entries.
    queues: list[deque[int]] = [deque() for _ in range(shards)]
    busy = [False] * shards
    resident: list[dict[int, None]] = [{} for _ in range(shards)]
    cap = spec.fabrics_per_shard
    completed_per_shard = [0] * shards
    sojourn = np.zeros(n_jobs, dtype=np.float64)
    warm_hits = 0
    steals = 0
    seq = 0
    heap: list[tuple[float, int, int, int]] = []  # (t, seq, shard, job)

    def start(shard: int, job: int, now: float) -> None:
        nonlocal seq, warm_hits
        plan = int(plans[job])
        lru = resident[shard]
        if plan in lru:
            del lru[plan]  # refresh LRU position
            lru[plan] = None
            service = warm_s
            warm_hits += 1
        else:
            lru[plan] = None
            if len(lru) > cap:
                del lru[next(iter(lru))]
            service = cold_s
        busy[shard] = True
        seq += 1
        heapq.heappush(heap, (now + service, seq, shard, job))

    def steal_for(thief: int, now: float) -> bool:
        nonlocal steals
        victim, depth = -1, spec.steal_margin
        for other in range(shards):
            if other != thief and len(queues[other]) > depth:
                victim, depth = other, len(queues[other])
        if victim < 0:
            return False
        vq = queues[victim]
        vres = resident[victim]
        # Scan the queue tail (furthest from execution) for a cold-hash
        # job — one whose plan is not warm on the victim.
        for back in range(1, min(spec.steal_scan, len(vq)) + 1):
            job = vq[-back]
            if int(plans[job]) not in vres:
                del vq[-back]
                steals += 1
                start(thief, job, now)
                return True
        return False

    ai = 0  # arrival pointer (arrivals are already time-sorted)
    done = 0
    now = 0.0
    while done < n_jobs:
        t_arr = arrivals[ai] if ai < n_jobs else np.inf
        t_cmp = heap[0][0] if heap else np.inf
        if t_arr <= t_cmp:
            now = float(t_arr)
            job = ai
            ai += 1
            shard = int(home[plans[job]])
            if busy[shard]:
                queues[shard].append(job)
            else:
                start(shard, job, now)
        else:
            now, _, shard, job = heapq.heappop(heap)
            sojourn[job] = now - float(arrivals[job])
            completed_per_shard[shard] += 1
            done += 1
            busy[shard] = False
            if queues[shard]:
                start(shard, queues[shard].popleft(), now)
            elif spec.steal and shards > 1:
                steal_for(shard, now)

    plan_counts = np.bincount(plans, minlength=spec.n_plans)
    tenant_counts = np.bincount(tenants, minlength=spec.n_tenants)
    report = LoadReport(
        n_jobs=n_jobs,
        n_shards=shards,
        makespan_s=float(now),
        throughput_jobs_per_s=float(n_jobs / now) if now > 0 else 0.0,
        mean_ms=float(np.mean(sojourn) * 1e3),
        p50_ms=float(np.percentile(sojourn, 50) * 1e3),
        p99_ms=float(np.percentile(sojourn, 99) * 1e3),
        p999_ms=float(np.percentile(sojourn, 99.9) * 1e3),
        warm_fraction=float(warm_hits / n_jobs),
        steals=steals,
        per_shard_completed={
            names[i]: completed_per_shard[i] for i in range(shards)
        },
        hottest_plan_share=float(plan_counts.max() / n_jobs),
        hottest_tenant_share=float(tenant_counts.max() / n_jobs),
    )
    return report


def simulate_drain(
    spec: LoadSpec,
    trace: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    *,
    drain_shard: int | None = None,
    drain_at: float = 0.5,
    drain_window: float = 0.1,
) -> DrainLoadReport:
    """Replay ``trace`` and live-drain one shard partway through.

    At ``drain_at`` of the trace's arrival horizon the chosen shard —
    the hottest one by routed offered load when ``drain_shard=None``,
    the worst case — stops admitting: its queued jobs migrate to their
    ring successors (the minimal consistent-hash remap of removing one
    node, exactly what :func:`repro.cluster.lifecycle.drain.drain_shard`
    does to a real shard), its in-flight job finishes undisturbed, and
    from then on arrivals route around it.

    Completions are bucketed into *steady state* (finished before the
    drain fired), the *drain window* (``drain_window`` of the arrival
    horizon after the drain — the migrated backlog plus the successors'
    cold re-warm transient — stretched to the last migrated job's
    finish if that lands later), and *post-drain*; ``p99_ratio`` —
    window p99 over steady p99 — is the bench's acceptance number.
    """
    if trace is None:
        trace = generate_trace(spec)
    arrivals, plans, _ = trace
    shards = spec.n_shards
    if shards < 2:
        raise ClusterError(
            f"draining needs >= 2 shards, got {shards}"
        )
    if not 0.0 < drain_at < 1.0:
        raise ClusterError(f"drain_at must be in (0, 1), got {drain_at}")
    if not 0.0 < drain_window <= 1.0 - drain_at:
        raise ClusterError(
            f"drain_window must be in (0, {1.0 - drain_at:g}], "
            f"got {drain_window}"
        )
    if drain_shard is not None and not 0 <= drain_shard < shards:
        raise ClusterError(
            f"drain_shard must be in [0, {shards}), got {drain_shard}"
        )
    names = [f"shard-{i}" for i in range(shards)]
    ring = HashRing(names, vnodes=spec.vnodes)
    keys = plan_routing_keys(spec.n_plans)
    index_of = {name: i for i, name in enumerate(names)}
    home = np.array(
        [index_of[ring.route(key)] for key in keys], dtype=np.int64
    )

    if drain_shard is None:
        offered = np.bincount(home[plans], minlength=shards)
        drain_shard = int(np.argmax(offered))
    t_drain = float(arrivals[-1]) * drain_at

    warm_s = spec.warm_service_us * 1e-6
    cold_s = spec.cold_service_us * 1e-6
    n_jobs = len(arrivals)

    queues: list[deque[int]] = [deque() for _ in range(shards)]
    busy = [False] * shards
    active = [True] * shards
    resident: list[dict[int, None]] = [{} for _ in range(shards)]
    cap = spec.fabrics_per_shard
    sojourn = np.zeros(n_jobs, dtype=np.float64)
    migrated: list[int] = []
    seq = 0
    heap: list[tuple[float, int, int, int]] = []  # (t, seq, shard, job)

    def start(shard: int, job: int, now: float) -> None:
        nonlocal seq
        plan = int(plans[job])
        lru = resident[shard]
        if plan in lru:
            del lru[plan]
            lru[plan] = None
            service = warm_s
        else:
            lru[plan] = None
            if len(lru) > cap:
                del lru[next(iter(lru))]
            service = cold_s
        busy[shard] = True
        seq += 1
        heapq.heappush(heap, (now + service, seq, shard, job))

    def steal_for(thief: int, now: float) -> bool:
        victim, depth = -1, spec.steal_margin
        for other in range(shards):
            if (
                other != thief
                and active[other]
                and len(queues[other]) > depth
            ):
                victim, depth = other, len(queues[other])
        if victim < 0:
            return False
        vq = queues[victim]
        vres = resident[victim]
        for back in range(1, min(spec.steal_scan, len(vq)) + 1):
            job = vq[-back]
            if int(plans[job]) not in vres:
                del vq[-back]
                start(thief, job, now)
                return True
        return False

    drained = False
    ai = 0
    done = 0
    now = 0.0
    while done < n_jobs:
        t_arr = arrivals[ai] if ai < n_jobs else np.inf
        t_cmp = heap[0][0] if heap else np.inf
        if not drained and min(t_arr, t_cmp) >= t_drain:
            # -- the drain fires ---------------------------------------
            # Stop admitting (recompute homes with the shard gone — the
            # ring's minimal remap) and re-home the queued backlog; the
            # in-flight job, if any, finishes undisturbed.
            drained = True
            now = t_drain
            active[drain_shard] = False
            ring.remove_node(names[drain_shard])
            home = np.array(
                [index_of[ring.route(key)] for key in keys],
                dtype=np.int64,
            )
            backlog = list(queues[drain_shard])
            queues[drain_shard].clear()
            for job in backlog:
                successor = int(home[plans[job]])
                if busy[successor]:
                    queues[successor].append(job)
                else:
                    start(successor, job, now)
            migrated.extend(backlog)
            continue
        if t_arr <= t_cmp:
            now = float(t_arr)
            job = ai
            ai += 1
            shard = int(home[plans[job]])
            if busy[shard]:
                queues[shard].append(job)
            else:
                start(shard, job, now)
        else:
            now, _, shard, job = heapq.heappop(heap)
            sojourn[job] = now - float(arrivals[job])
            done += 1
            busy[shard] = False
            if not active[shard]:
                continue  # drained: its last in-flight job just ended
            if queues[shard]:
                start(shard, queues[shard].popleft(), now)
            elif spec.steal and shards > 1:
                steal_for(shard, now)

    finish = arrivals + sojourn
    t_settle = t_drain + float(arrivals[-1]) * drain_window
    if migrated:
        t_settle = max(
            t_settle,
            float(finish[np.array(migrated, dtype=np.int64)].max()),
        )
    steady = sojourn[finish < t_drain]
    window = sojourn[(finish >= t_drain) & (finish <= t_settle)]
    post = sojourn[finish > t_settle]

    def p99_ms(bucket: np.ndarray) -> float:
        return float(np.percentile(bucket, 99) * 1e3) if len(bucket) else 0.0

    steady_p99 = p99_ms(steady)
    drain_p99 = p99_ms(window)
    return DrainLoadReport(
        n_jobs=n_jobs,
        n_shards=shards,
        drained_shard=names[drain_shard],
        drain_start_s=t_drain,
        drain_settle_s=t_settle,
        migrated=len(migrated),
        steady_p99_ms=steady_p99,
        drain_p99_ms=drain_p99,
        post_p99_ms=p99_ms(post),
        p99_ratio=drain_p99 / steady_p99 if steady_p99 > 0 else 0.0,
        makespan_s=float(now),
    )


def simulate_rejoin(
    spec: LoadSpec,
    trace: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    *,
    kill_shard: int | None = None,
    kill_at: float = 0.4,
    detect_s: float = 0.025,
    rejoin_s: float = 0.1,
    window_s: float = 0.1,
) -> RejoinLoadReport:
    """Replay ``trace``, crash one shard, and fold it back in.

    The model of the process supervisor's kill → handoff → respawn →
    rejoin pipeline, at load-generator scale.  At ``kill_at`` of the
    arrival horizon the chosen shard — the hottest by routed offered
    load when ``kill_shard=None`` — dies mid-service: its in-flight job
    is cancelled and, for ``detect_s`` seconds (the phi accrual delay —
    wall time, *not* a fraction of the trace, because heartbeat rounds
    don't speed up for short traces), arrivals keep routing to the
    corpse and strand in its queue.  The DEAD verdict then removes it
    from the ring and re-homes the stranded backlog (handoff), and
    after a further ``rejoin_s`` (journal replay + compaction + scrub
    gate — the modeled MTTR tail) the shard re-enters the ring *cold*:
    fresh process, empty fabric residency, exactly like the respawned
    member of :class:`~repro.cluster.lifecycle.supervisor.ClusterSupervisor`.

    Completions bucket into steady state (before the crash), the
    disruption window (crash → ``window_s`` after the rejoin, stretched
    to the last migrated job), and post-rejoin; ``p99_ratio`` — window
    p99 over steady p99 — is the bench's acceptance number for the
    ``rejoin`` leg.
    """
    if trace is None:
        trace = generate_trace(spec)
    arrivals, plans, _ = trace
    shards = spec.n_shards
    if shards < 2:
        raise ClusterError(f"a rejoin needs >= 2 shards, got {shards}")
    if not 0.0 < kill_at < 1.0:
        raise ClusterError(f"kill_at must be in (0, 1), got {kill_at}")
    if detect_s <= 0 or rejoin_s <= 0:
        raise ClusterError(
            f"detect_s / rejoin_s must be > 0, got {detect_s} / {rejoin_s}"
        )
    if kill_shard is not None and not 0 <= kill_shard < shards:
        raise ClusterError(
            f"kill_shard must be in [0, {shards}), got {kill_shard}"
        )
    names = [f"shard-{i}" for i in range(shards)]
    ring = HashRing(names, vnodes=spec.vnodes)
    keys = plan_routing_keys(spec.n_plans)
    index_of = {name: i for i, name in enumerate(names)}

    def homes() -> np.ndarray:
        return np.array(
            [index_of[ring.route(key)] for key in keys], dtype=np.int64
        )

    home = homes()
    if kill_shard is None:
        offered = np.bincount(home[plans], minlength=shards)
        kill_shard = int(np.argmax(offered))
    horizon = float(arrivals[-1])
    t_kill = horizon * kill_at
    t_handoff = t_kill + detect_s
    t_rejoin = t_handoff + rejoin_s

    warm_s = spec.warm_service_us * 1e-6
    cold_s = spec.cold_service_us * 1e-6
    n_jobs = len(arrivals)

    queues: list[deque[int]] = [deque() for _ in range(shards)]
    busy = [False] * shards
    active = [True] * shards
    resident: list[dict[int, None]] = [{} for _ in range(shards)]
    cap = spec.fabrics_per_shard
    sojourn = np.zeros(n_jobs, dtype=np.float64)
    migrated: list[int] = []
    stranded = 0
    inflight: list[tuple[int, int] | None] = [None] * shards
    cancelled: set[int] = set()
    seq = 0
    heap: list[tuple[float, int, int, int]] = []  # (t, seq, shard, job)

    def start(shard: int, job: int, now: float) -> None:
        nonlocal seq
        plan = int(plans[job])
        lru = resident[shard]
        if plan in lru:
            del lru[plan]
            lru[plan] = None
            service = warm_s
        else:
            lru[plan] = None
            if len(lru) > cap:
                del lru[next(iter(lru))]
            service = cold_s
        busy[shard] = True
        seq += 1
        inflight[shard] = (seq, job)
        heapq.heappush(heap, (now + service, seq, shard, job))

    def steal_for(thief: int, now: float) -> bool:
        victim, depth = -1, spec.steal_margin
        for other in range(shards):
            if (
                other != thief
                and active[other]
                and len(queues[other]) > depth
            ):
                victim, depth = other, len(queues[other])
        if victim < 0:
            return False
        vq = queues[victim]
        vres = resident[victim]
        for back in range(1, min(spec.steal_scan, len(vq)) + 1):
            job = vq[-back]
            if int(plans[job]) not in vres:
                del vq[-back]
                start(thief, job, now)
                return True
        return False

    killed = False
    handed_off = False
    rejoined = False
    ai = 0
    done = 0
    now = 0.0
    while done < n_jobs:
        t_arr = arrivals[ai] if ai < n_jobs else np.inf
        t_cmp = heap[0][0] if heap else np.inf
        t_next = min(t_arr, t_cmp)
        if not killed and t_next >= t_kill:
            # -- the crash: mid-service, no goodbye --------------------
            killed = True
            now = t_kill
            active[kill_shard] = False
            if busy[kill_shard] and inflight[kill_shard] is not None:
                dead_seq, dead_job = inflight[kill_shard]
                cancelled.add(dead_seq)
                queues[kill_shard].appendleft(dead_job)
                busy[kill_shard] = False
            continue
        if killed and not handed_off and t_next >= t_handoff:
            # -- DEAD verdict: leave the ring, hand the backlog off ----
            handed_off = True
            now = t_handoff
            ring.remove_node(names[kill_shard])
            home = homes()
            backlog = list(queues[kill_shard])
            queues[kill_shard].clear()
            for job in backlog:
                successor = int(home[plans[job]])
                if busy[successor]:
                    queues[successor].append(job)
                else:
                    start(successor, job, now)
            migrated.extend(backlog)
            continue
        if handed_off and not rejoined and t_next >= t_rejoin:
            # -- rejoin: fresh member, cold residency ------------------
            rejoined = True
            now = t_rejoin
            ring.add_node(names[kill_shard])
            home = homes()
            active[kill_shard] = True
            resident[kill_shard].clear()
            continue
        if t_arr <= t_cmp:
            now = float(t_arr)
            job = ai
            ai += 1
            shard = int(home[plans[job]])
            if killed and not handed_off and shard == kill_shard:
                # Routed to the corpse: queues blindly until handoff.
                stranded += 1
                queues[shard].append(job)
                continue
            if busy[shard]:
                queues[shard].append(job)
            else:
                start(shard, job, now)
        else:
            now, done_seq, shard, job = heapq.heappop(heap)
            if done_seq in cancelled:
                cancelled.discard(done_seq)
                continue  # the crash ate this completion
            sojourn[job] = now - float(arrivals[job])
            done += 1
            busy[shard] = False
            inflight[shard] = None
            if not active[shard]:
                continue
            if queues[shard]:
                start(shard, queues[shard].popleft(), now)
            elif spec.steal and shards > 1:
                steal_for(shard, now)

    finish = arrivals + sojourn
    t_settle = t_rejoin + window_s
    if migrated:
        t_settle = max(
            t_settle,
            float(finish[np.array(migrated, dtype=np.int64)].max()),
        )
    steady = sojourn[finish < t_kill]
    in_window = sojourn[(finish >= t_kill) & (finish <= t_settle)]
    post = sojourn[finish > t_settle]

    def p99_ms(bucket: np.ndarray) -> float:
        return float(np.percentile(bucket, 99) * 1e3) if len(bucket) else 0.0

    steady_p99 = p99_ms(steady)
    window_p99 = p99_ms(in_window)
    return RejoinLoadReport(
        n_jobs=n_jobs,
        n_shards=shards,
        killed_shard=names[kill_shard],
        kill_s=t_kill,
        handoff_s=t_handoff,
        rejoin_s=t_rejoin,
        mttr_s=t_rejoin - t_kill,
        migrated=len(migrated),
        stranded=stranded,
        steady_p99_ms=steady_p99,
        window_p99_ms=window_p99,
        post_p99_ms=p99_ms(post),
        p99_ratio=window_p99 / steady_p99 if steady_p99 > 0 else 0.0,
        makespan_s=float(now),
    )


def run_load(spec: LoadSpec) -> LoadReport:
    """Generate ``spec``'s trace and simulate it on ``spec.n_shards``."""
    return simulate(spec, generate_trace(spec))
