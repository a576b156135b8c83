"""Runtime management system: the epoch scheduler.

On the prototype a MicroBlaze soft processor sequences the application: it
decides which partial bitstreams to load for the next epoch, pushes them
through the ICAP, and lets the tiles run.  :class:`RuntimeManager` plays
that role for the model.

An application is a list of :class:`EpochSpec`.  Each epoch may

* retarget links,
* (re)load tile programs — loads of already-resident programs are free
  (pinning),
* push data images (twiddle reloads, copy-variable updates),
* run a set of tiles to ``HALT`` (lock-step, interleaving-correct).

Timing honours the paper's partial-overlap semantics: every tile has its
own ready-time; the single ICAP serializes payloads but may reconfigure an
idle tile while busy tiles compute; a tile starts computing once both it
and its declared dependencies are ready.  The report decomposes total time
into the three terms of Eq. 1 (compute / reconfiguration / copies are
simply epochs whose programs are copy processes).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ReconfigError
from repro.fabric import predecode as _pd
from repro.fabric.assembler import Program
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.reconfig import ReconfigPlanner, ReconfigTransaction
from repro.fabric.simulator import FastPhase, run_concurrent
from repro.fabric.tile import Tile

__all__ = [
    "BoundEpoch",
    "EpochSpec",
    "EpochReport",
    "FabricCheckpoint",
    "LoweredPlan",
    "RunReport",
    "RuntimeManager",
]

Coord = tuple[int, int]


@dataclass
class EpochSpec:
    """Declarative description of one epoch.

    Attributes
    ----------
    name:
        Label for reports.
    links:
        Target link directions (only differences are charged).
    programs:
        Programs that must be resident; already-resident ones cost nothing.
    data_images:
        Extra data words to load via the ICAP ({coord: {addr: value}}).
    pokes:
        Data words written by the host at zero cost when the epoch
        executes — preprocessing loads and values the paper's model
        treats as free (GREEN on-tile twiddle generation, resident BLUE
        sets).  Use ``data_images`` for anything that should be charged.
    run:
        Tiles that execute this epoch (each runs to ``HALT``).
    restart:
        Restart the pc of ``run`` tiles whose program is already loaded
        (the re-execution idiom); freshly loaded programs start at 0
        anyway.
    depends_on:
        Tiles whose *previous-epoch completion* gates this epoch's compute
        start in addition to the running tiles themselves.  Used when an
        epoch consumes data produced by tiles that are idle this epoch.
    """

    name: str
    links: dict[Coord, Direction | None] = field(default_factory=dict)
    programs: dict[Coord, Program] = field(default_factory=dict)
    data_images: dict[Coord, dict[int, int]] = field(default_factory=dict)
    pokes: dict[Coord, dict[int, int]] = field(default_factory=dict)
    run: list[Coord] = field(default_factory=list)
    restart: bool = True
    depends_on: list[Coord] = field(default_factory=list)


class BoundEpoch(EpochSpec):
    """One epoch of a bound work item (what ``CompiledArtifact.bind``
    returns): a template epoch under the item's tagged name, sharing
    every dict and list with it.  ``job`` is ``(artifact, epoch count)``,
    one tuple per item, and ``index`` the epoch's place in it — how
    :class:`RuntimeManager` recognises the epochs of one job in order.
    """

    job: tuple | None = None
    index: int = 0

    @classmethod
    def of(cls, template: EpochSpec, name: str, job: tuple, index: int):
        epoch = object.__new__(cls)
        epoch.__dict__.update(template.__dict__, name=name, job=job, index=index)
        return epoch


@dataclass(eq=False)
class PlanStep:
    """One recorded epoch: its involved tiles, reconfiguration delta,
    run tiles with the program each selects, and fast-engine phase."""

    involved: set
    txn: ReconfigTransaction
    starts: tuple[tuple[Tile, Program | None], ...]
    phase: FastPhase | None


@dataclass(eq=False)
class LoweredPlan:
    """A recorded job of one artifact on one runtime manager.

    ``state`` is the :meth:`RuntimeManager._tile_state` of every tile in
    ``tiles`` (those the job touches) at job start, and at job end: only
    a job that leaves them as it found them becomes a plan.  ``None``
    marks a plan made stale by ``reset``/``restore``.  ``keep`` holds the
    artifact and programs the plan is keyed and guarded by ``id`` of.
    """

    tiles: tuple[Tile, ...]
    state: tuple | None
    dataflow: bool
    steps: list[PlanStep]
    keep: tuple


@dataclass(eq=False, slots=True)
class _JobRun:
    """The job in progress: replaying ``plan``, or recording ``steps``
    and each tile's state at first touch (``plan is None``)."""

    job: tuple
    plan: LoweredPlan | None
    links: int
    index: int = 0
    steps: list[PlanStep] = field(default_factory=list)
    start: dict[Coord, tuple] = field(default_factory=dict)


@dataclass
class EpochReport:
    """Measured timing of one executed epoch."""

    name: str
    start_ns: float
    end_ns: float
    reconfig_ns: float = 0.0
    compute_ns: float = 0.0
    #: Reconfiguration time hidden under other tiles' computation.
    overlapped_ns: float = 0.0
    link_changes: int = 0
    reconfig_bytes: int = 0
    busy_ns: dict[Coord, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class RunReport:
    """Aggregate over a whole application run."""

    epochs: list[EpochReport] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        """End-to-end application runtime (Eq. 1 left-hand side)."""
        return max((e.end_ns for e in self.epochs), default=0.0)

    @property
    def compute_ns(self) -> float:
        """Eq. 1 term A: sum of epoch compute spans."""
        return sum(e.compute_ns for e in self.epochs)

    @property
    def reconfig_ns(self) -> float:
        """Eq. 1 term B: total reconfiguration (ICAP + link) time."""
        return sum(e.reconfig_ns for e in self.epochs)

    @property
    def overlapped_ns(self) -> float:
        """Reconfiguration time that did not extend the critical path."""
        return sum(e.overlapped_ns for e in self.epochs)

    @property
    def link_changes(self) -> int:
        return sum(e.link_changes for e in self.epochs)

    def utilization(self, n_tiles: int) -> float:
        """Average tile utilization over the whole run."""
        if n_tiles <= 0 or self.total_ns <= 0:
            return 0.0
        busy = 0.0
        for epoch in self.epochs:
            busy += sum(epoch.busy_ns.values())
        return busy / (n_tiles * self.total_ns)

    def gantt(self) -> str:
        """Small textual timeline of epochs (debug aid)."""
        lines = []
        for epoch in self.epochs:
            lines.append(
                f"{epoch.name:<24} [{epoch.start_ns:>12.1f}, {epoch.end_ns:>12.1f}) ns"
                f"  reconfig={epoch.reconfig_ns:>10.1f}"
                f"  compute={epoch.compute_ns:>10.1f}"
            )
        return "\n".join(lines)


@dataclass
class FabricCheckpoint:
    """Epoch-boundary snapshot of all architecturally visible mesh state.

    Captures, per tile, both memories plus residency and control state
    (via :meth:`repro.fabric.tile.Tile.capture`) and the mesh's link
    configuration.  Taken at verified epoch boundaries by the fault
    campaign; restoring one is the *functional* half of a repair — the
    ICAP time the rewrite costs is charged separately by the caller,
    which is what lets the campaign compare partial-word repair against
    a full-fabric reload on identical state.
    """

    #: Simulated time the checkpoint was taken (diagnostic only).
    taken_at_ns: float
    tiles: dict[Coord, dict] = field(default_factory=dict)
    links: dict[Coord, Direction | None] = field(default_factory=dict)

    def dmem_words(self, coord: Coord) -> list[int]:
        """The checkpointed data-memory image of one tile."""
        return self.tiles[coord]["dmem"]

    def imem_slots(self, coord: Coord) -> list:
        """The checkpointed instruction-slot image of one tile."""
        return self.tiles[coord]["imem"]


class RuntimeManager:
    """Sequences epochs on a mesh, accounting reconfiguration overlap.

    Two timing disciplines:

    * **barrier** (default): each epoch starts when the previous one
      ended — the straightforward phase-by-phase schedule;
    * **dataflow** (``dataflow=True``): an epoch starts as soon as the
      tiles it *involves* (runs, reconfigures, or depends on) are ready,
      regardless of unrelated tiles still working.  This is what lets a
      multi-column pipeline overlap successive work items: column 0 can
      begin item t+1 while column 1 still processes item t.  Functional
      execution order is unchanged (epochs are applied in issue order);
      only the accounted start times differ, so callers must declare
      cross-tile data dependencies via ``depends_on``.
    """

    def __init__(
        self,
        mesh: Mesh,
        icap: IcapPort | None = None,
        link_cost_ns: float = 0.0,
        dataflow: bool = False,
        engine: str | None = None,
    ) -> None:
        self.mesh = mesh
        self.icap = icap if icap is not None else IcapPort()
        self.planner = ReconfigPlanner(mesh, self.icap, link_cost_ns)
        self.dataflow = dataflow
        #: Execution tier forwarded to every ``run_concurrent`` call:
        #: ``"fast"`` / ``"reference"`` / ``None`` (auto — fast unless
        #: ``REPRO_REFERENCE_SIM`` is set).  Both tiers are architecturally
        #: identical; see ``repro.fabric.predecode``.
        self.engine = engine
        #: Per-tile time at which the tile is free (compute or reconfig done).
        self.tile_ready_ns: dict[Coord, float] = {}
        self.now_ns = 0.0
        #: Optional ``hook(spec, tiles)`` fired per epoch after tile
        #: start/restart, immediately before the compute phase runs —
        #: the batched execution tier (``repro.fabric.batch``) installs
        #: its lane driver here.  Hooks must not raise.
        self.phase_hook = None
        #: Lowered plans by ``id`` of their artifact (``None``: one job ran).
        self._plans: dict[int, LoweredPlan | None] = {}
        self._job_run: _JobRun | None = None

    @property
    def link_cost_ns(self) -> float:
        return self.planner.link_cost_ns

    @link_cost_ns.setter
    def link_cost_ns(self, value: float) -> None:
        if value < 0:
            raise ReconfigError(f"link cost must be non-negative, got {value}")
        self.planner.link_cost_ns = value

    def reset(self) -> None:
        """Forget all timing state (memories/links are left as-is)."""
        self.icap.reset()
        self.tile_ready_ns.clear()
        self.now_ns = 0.0
        self._forget_plans()

    def _forget_plans(self) -> None:
        """Make every lowered plan stale: its next job re-records."""
        self._job_run = None
        for plan in self._plans.values():
            if plan is not None:
                plan.state = None

    # ------------------------------------------------------------------
    # checkpointing (epoch-boundary recovery)
    # ------------------------------------------------------------------

    def checkpoint(self) -> FabricCheckpoint:
        """Snapshot every tile's memories/control state and all links."""
        return FabricCheckpoint(
            taken_at_ns=self.now_ns,
            tiles={tile.coord: tile.capture() for tile in self.mesh},
            links={tile.coord: self.mesh.active_link(tile.coord) for tile in self.mesh},
        )

    def restore(self, cp: FabricCheckpoint) -> None:
        """Restore a :meth:`checkpoint` (memories, residency, links).

        Timing state (``now_ns``, the ICAP timeline, per-tile ready
        times) is deliberately **not** rolled back: simulated time only
        moves forward, so a recovery's rollback + re-execution shows up
        as real elapsed time — the retry cost the fault benchmarks
        measure.  The ICAP transfer time of the rewrite itself is charged
        by the caller (partial diff vs. full reload policies differ).
        """
        self._forget_plans()
        for coord, state in cp.tiles.items():
            self.mesh.tile(coord).restore(state)
        for coord, direction in cp.links.items():
            self.mesh.configure_link(coord, direction)

    # ------------------------------------------------------------------
    # cost estimation (no side effects)
    # ------------------------------------------------------------------

    def switch_cost(self, spec: EpochSpec | Iterable[EpochSpec]) -> float:
        """Modeled reconfiguration time to reach the given epoch state.

        Returns the total configuration-port busy time (Eq. 1's term-B
        τ contributions: ICAP payload transfers plus per-link costs) that
        executing ``spec`` — one :class:`EpochSpec` or a sequence — would
        add on top of the fabric's *current* resident state.  Nothing is
        executed or mutated: this is the query a scheduler needs to score
        "how expensive is it to switch this fabric to that workload".

        The estimate follows exactly the planner's delta rules:

        * programs already resident (pinned) cost nothing;
        * data images are always charged (their values change per epoch);
        * link settings are only charged when they actually change.

        For a sequence, residency and link state established by earlier
        specs are tracked hypothetically so later specs see the state the
        sequence would leave behind.  Because the ICAP transfer time is
        linear in bytes, the figure agrees with the summed
        ``reconfig_ns`` of the corresponding executed
        :class:`EpochReport` s (pinned to that in the test suite) — with
        one caveat: instruction-memory eviction under capacity pressure
        is not modeled, so a sequence that overflows a tile's IMEM may
        cost more when executed.
        """
        specs = [spec] if isinstance(spec, EpochSpec) else list(spec)
        #: hypothetical residency: coord -> set of id(program) loaded by
        #: an earlier spec in this sequence.
        loaded: dict[Coord, set[int]] = {}
        #: hypothetical link state for links an earlier spec changed.
        link_state: dict[Coord, Direction | None] = {}
        total_ns = 0.0
        for s in specs:
            for coord, program in sorted(s.programs.items()):
                tile = self.mesh.tile(coord)
                if (
                    tile.resident_base(program) is not None
                    or id(program) in loaded.get(coord, ())
                ):
                    continue  # pinned: free
                nbytes = len(program.encoded()) * 9
                if program.data_image:
                    nbytes += len(program.data_image) * 6
                total_ns += self.icap.transfer_ns(nbytes)
                loaded.setdefault(coord, set()).add(id(program))
            for coord, image in sorted(s.data_images.items()):
                if not image:
                    continue
                self.mesh.tile(coord)  # validates the coordinate
                total_ns += self.icap.transfer_ns(len(image) * 6)
            for coord, direction in sorted(s.links.items()):
                current = (
                    link_state[coord]
                    if coord in link_state
                    else self.mesh.active_link(coord)
                )
                if current == direction:
                    continue
                total_ns += self.planner.link_cost_ns
                link_state[coord] = direction
        return total_ns

    # ------------------------------------------------------------------

    def execute(self, epochs: list[EpochSpec]) -> RunReport:
        """Run the epoch list; returns a :class:`RunReport`.

        The :class:`BoundEpoch` s of one work item, run in order in one
        call or several, form a job.  An artifact's second job here
        records a :class:`LoweredPlan`; later jobs replay it when its
        guard holds (:meth:`_begin_job`).  DESIGN §16 "Lowered plans".
        """
        report = RunReport()
        for spec in epochs:  # each epoch advances ``now_ns`` past its end
            report.epochs.append(self._run_epoch(spec))
        return report

    def _run_epoch(self, spec: EpochSpec) -> EpochReport:
        job = getattr(spec, "job", None)
        run, self._job_run = self._job_run, None
        links = self.mesh.links
        if job is not None and spec.index == 0:
            run = self._begin_job(job)
        elif not (
            run and run.job is job and run.index == spec.index
            and run.links == links.reconfig_count
        ):
            run = None
        if run is None:
            return self._execute_epoch(spec)
        plan = run.plan
        report = self._execute_epoch(
            spec, plan.steps[run.index] if plan else None, None if plan else run
        )
        run.index += 1
        if run.index < job[1]:
            run.links = links.reconfig_count
            self._job_run = run
        elif plan is None:
            self._keep_plan(run)
        return report

    def _tile_state(self, tile: Tile) -> tuple:
        """A tile's configuration plus its write link (a plan's guard)."""
        return tile.configuration(), self.mesh.links.get(tile.coord)

    def _begin_job(self, job: tuple) -> _JobRun | None:
        """The guard, once per job: replay when there is no
        ``phase_hook``, the fast engine runs in the plan's ``dataflow``
        mode and every tile of the plan is in the state it recorded."""
        key = id(job[0])
        if key not in self._plans:
            self._plans[key] = None  # a plan run once records nothing
            return None
        plan = self._plans[key]
        eligible = (
            self.phase_hook is None and _pd.resolve_engine(self.engine) == "fast"
        )
        links = self.mesh.links.reconfig_count
        if (
            plan is not None
            and eligible
            and plan.dataflow == self.dataflow
            and plan.state == tuple(map(self._tile_state, plan.tiles))
        ):
            _pd.COUNTERS.plan_runs += 1
            return _JobRun(job, plan, links)
        if plan is not None:
            _pd.COUNTERS.plan_fallbacks += 1
        return _JobRun(job, None, links) if eligible else None

    def _keep_plan(self, run: _JobRun) -> None:
        """Keep a recorded job as its artifact's plan if it ended where it
        started (warm jobs do; a cold one leaves programs behind)."""
        tiles = tuple(self.mesh.tile(coord) for coord in run.start)
        state = tuple(map(self._tile_state, tiles))
        if state == tuple(run.start.values()):
            self._plans[id(run.job[0])] = LoweredPlan(
                tiles, state, self.dataflow, run.steps,
                keep=(run.job[0], *map(Tile.resident_programs, tiles)),
            )

    # ------------------------------------------------------------------
    # compiled-artifact entry points (duck-typed: any object exposing
    # rows/cols, setup_epochs() and bind(payload, tag) — in practice a
    # repro.compile CompiledArtifact; kept structural so this module
    # does not import the compiler)
    # ------------------------------------------------------------------

    def _check_artifact(self, artifact) -> None:
        if (artifact.rows, artifact.cols) != (self.mesh.rows, self.mesh.cols):
            raise ReconfigError(
                f"artifact compiled for a {artifact.rows}x{artifact.cols} "
                f"mesh cannot run on this {self.mesh.rows}x{self.mesh.cols} "
                f"mesh"
            )

    def run_setup(self, artifact) -> RunReport:
        """Execute a compiled artifact's one-time cold prologue
        (static data images, program pinning)."""
        self._check_artifact(artifact)
        return self.execute(artifact.setup_epochs())

    def execute_artifact(self, artifact, payload=None, tag: str = "") -> RunReport:
        """Execute one bound work item of a compiled artifact.

        ``payload`` feeds the artifact's input port (validated by its
        encoder); ``tag`` prefixes the epoch names, the per-work-item
        labelling streamed/serving callers already use.  The artifact's
        programs arrive eagerly predecoded, so even the first work item
        runs on the fast execution tier.
        """
        self._check_artifact(artifact)
        return self.execute(artifact.bind(payload, tag))

    def execute_artifact_batch(
        self,
        artifact,
        payloads,
        *,
        tag: str = "",
        on_slice=None,
        jit: str | None = None,
        min_vector_lanes: int | None = None,
    ):
        """Execute one artifact over K payloads, vectorized across lanes.

        Semantically identical to K sequential :meth:`execute_artifact`
        calls (bit-for-bit output equivalence is the contract); the
        batched tier in :mod:`repro.fabric.batch` makes it cheaper by
        advancing all lanes through the predecoded superblocks at once.
        Returns a :class:`repro.fabric.batch.BatchResult`.
        """
        from repro.fabric.batch import execute_artifact_batch

        return execute_artifact_batch(
            self,
            artifact,
            payloads,
            tag=tag,
            on_slice=on_slice,
            jit=jit,
            min_vector_lanes=min_vector_lanes,
        )

    def _involved_tiles(self, spec: EpochSpec) -> set[Coord]:
        involved: set[Coord] = set(spec.run) | set(spec.depends_on)
        involved |= set(spec.programs) | set(spec.data_images)
        involved |= set(spec.links) | set(spec.pokes)
        return involved

    def _execute_epoch(
        self,
        spec: EpochSpec,
        step: PlanStep | None = None,
        record: _JobRun | None = None,
    ) -> EpochReport:
        """Execute one epoch, replaying ``step`` or appending to ``record``.

        A replayed :class:`PlanStep` stands in for planning, tile lookups
        and phase analysis only; pokes, applying the delta, tile starts,
        the run and the timeline's float operations are this same code.
        """
        mesh = self.mesh
        ready = self.tile_ready_ns
        if step is not None:
            involved = step.involved
        elif self.dataflow or record is not None:
            involved = self._involved_tiles(spec)
            if record is not None:
                for coord in involved:
                    if coord not in record.start:
                        record.start[coord] = self._tile_state(mesh.tile(coord))
        if self.dataflow:
            epoch_start = max(
                (ready.get(c, 0.0) for c in involved),
                default=0.0,
            )
        else:
            epoch_start = self.now_ns

        # -- free host writes (preprocessing / on-tile generation) -----
        for coord, image in spec.pokes.items():
            mesh.tile(coord).dmem.load_image(image)

        # -- reconfiguration ------------------------------------------
        txn = step.txn if step is not None else self.planner.plan(
            programs=spec.programs, data_images=spec.data_images, links=spec.links
        )
        reconfig_ns = 0.0
        reconfig_end = epoch_start
        if txn.bitstreams:
            busy_before = self.icap.total_busy_ns
            applied = self.planner.apply(txn, ready, now_ns=epoch_start)
            # Term B of Eq. 1: actual configuration-port busy time, not the
            # per-tile waiting (queueing on the single port is already
            # visible in the tile ready times).
            reconfig_ns = self.icap.total_busy_ns - busy_before
            reconfig_end = applied.end_ns
            for coord, ready_at in applied.tile_ready_ns.items():
                ready[coord] = ready_at

        # -- compute ----------------------------------------------------
        compute_ns = 0.0
        busy: dict[Coord, float] = {}
        compute_end = epoch_start
        phase = None
        starts = ()
        if spec.run:
            starts = step.starts if step is not None else tuple(
                (mesh.tile(coord), spec.programs.get(coord)) for coord in spec.run
            )
            tiles = []
            gate = epoch_start
            for tile, program in starts:
                if program is not None:
                    tile.start(program)  # resident: select this entry point
                elif spec.restart and tile.halted:
                    tile.restart()
                tiles.append(tile)
                # ``b if b > a else a`` is ``max(a, b)``, without the call
                at = ready.get(tile.coord, epoch_start)
                gate = at if at > gate else gate
            for coord in spec.depends_on:
                at = ready.get(coord, epoch_start)
                gate = at if at > gate else gate
            if self.phase_hook is not None:
                self.phase_hook(spec, tiles)
            result = run_concurrent(
                tiles, start_ns=gate, engine=self.engine,
                phase=step.phase if step is not None else None,
            )
            phase = result.phase
            compute_ns = result.makespan_ns
            compute_end = gate + result.makespan_ns
            busy = result.busy_ns
            # A tile that finishes its own work early is free for the next
            # epoch's reconfiguration even while slower tiles still run.
            for coord, tile_busy in busy.items():
                at = ready.get(coord, epoch_start)
                end = gate + tile_busy
                ready[coord] = end if end > at else at
        if record is not None:
            record.steps.append(PlanStep(involved, txn, starts, phase))
        epoch_end = max(compute_end, reconfig_end, epoch_start)

        # Reconfiguration time is "overlapped" (hidden) to the extent the
        # ICAP finished before the compute critical path did.
        overlapped = max(0.0, reconfig_ns - max(0.0, reconfig_end - compute_end))

        report = EpochReport(
            name=spec.name,
            start_ns=epoch_start,
            end_ns=epoch_end,
            reconfig_ns=reconfig_ns,
            compute_ns=compute_ns,
            overlapped_ns=overlapped,
            link_changes=txn.link_changes,
            reconfig_bytes=txn.total_bytes,
            busy_ns=busy,
        )
        self.now_ns = max(self.now_ns, epoch_end)
        return report
