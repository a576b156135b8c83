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

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import ReconfigError
from repro.fabric import predecode as _pd
from repro.fabric.assembler import Program
from repro.fabric.bitstream import ReconfigKind, program_icap_bytes
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.reconfig import FabricShadow, ReconfigPlanner, plan_delta
from repro.fabric.simulator import FastPhase, _proven, run_concurrent
from repro.fabric.tile import Tile
from repro.units import CYCLE_NS, DATA_MEM_WORDS, INSTR_MEM_WORDS

__all__ = [
    "BoundEpoch",
    "EpochSpec",
    "EpochReport",
    "FabricCheckpoint",
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


@dataclass(eq=False, slots=True)
class _JobRun:
    """The job in progress: per epoch its ``DerivedEpoch`` (a derived
    transaction with run facts) or generated function, the link counter
    after the last epoch, and the next index."""

    job: tuple
    steps: tuple
    links: int
    index: int = 0


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

    #: Per-tile cycle budget of every compute phase (``run_concurrent``'s
    #: ``max_cycles_per_tile``): a tile still running past it raises.
    max_cycles_per_tile: int = 10_000_000

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
        #: id(artifact) -> [artifact, jobs begun, its epoch functions here
        #: by start (``True``: resident)]
        self._jobs: dict[int, list] = {}
        self._job_run: _JobRun | None = None

    @property
    def link_cost_ns(self) -> float:
        return self.planner.link_cost_ns

    @link_cost_ns.setter
    def link_cost_ns(self, value: float) -> None:
        self.planner.link_cost_ns = value  # the planner checks it

    def reset(self) -> None:
        """Forget all timing state (memories/links are left as-is)."""
        self.icap.reset()
        self.tile_ready_ns.clear()
        self.now_ns = 0.0
        self._job_run = None

    def power_on(self) -> None:
        """Return the fabric, in place, to what construction gives: timing,
        links, and per tile its memories, counters, residency, control
        state and statistics.  Tile and memory objects stay, so bound epoch
        functions stay valid, and so do the job counts that choose them."""
        self.reset()
        self.mesh.links._active.clear()
        self.mesh.links.reconfig_count = 0
        for tile in self.mesh:
            tile.evict_programs()  # also clears the imem and its SEU map
            tile.dmem.clear()
            tile.stats.reset()
            tile.pc = 0

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
        self._job_run = None
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

        It walks a :class:`~repro.fabric.reconfig.FabricShadow` of the
        mesh through the planner's own delta rule
        (:func:`~repro.fabric.reconfig.plan_delta`: pinned programs are
        free, a load that does not fit evicts), pricing each load at
        :func:`~repro.fabric.bitstream.program_icap_bytes`, so the figure
        agrees with the summed ``reconfig_ns`` of the executed
        :class:`EpochReport` s (pinned in the test suite).
        """
        specs = [spec] if isinstance(spec, EpochSpec) else list(spec)
        shadow = FabricShadow(self.mesh)
        transfer_ns = self.icap.transfer_ns
        total_ns = 0.0
        for s in specs:
            ops = plan_delta(shadow, sorted(s.programs.items()),
                             sorted(s.data_images.items()), sorted(s.links.items()))
            if not ops:
                continue
            self.planner.validate(s.programs, s.data_images, {})
            shadow.apply(ops)
            image = None  # the .var image of the last load: priced with it
            for kind, _, nbytes, _, target in ops:
                if kind is ReconfigKind.LINK:
                    total_ns += self.planner.link_cost_ns
                elif kind is ReconfigKind.IMEM:
                    image = target.data_image
                    total_ns += transfer_ns(program_icap_bytes(target))
                elif target is image:
                    image = None
                else:
                    total_ns += transfer_ns(nbytes)
        return total_ns

    # ------------------------------------------------------------------

    def execute(self, epochs: list[EpochSpec]) -> RunReport:
        """Run the epoch list; returns a :class:`RunReport`.

        The :class:`BoundEpoch` s of one work item, run in order in one
        call or several, form a job, which runs its artifact's derived
        plan when the guard holds (:meth:`_begin_job`).  DESIGN §16
        "Lowered plans".
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
        step = run.steps[run.index]
        report = step(self, spec) if callable(step) else self._execute_epoch(spec, step)
        run.index += 1
        if run.index < job[1]:
            run.links = links.reconfig_count
            self._job_run = run
        return report

    def _residency(self, coords: tuple) -> tuple | None:
        """``FabricShadow.state`` of the live mesh (``None``: a memory of
        non-standard size)."""
        tiles, links = [self.mesh.tile(c) for c in coords], self.mesh.links
        if any(t.dmem.size != DATA_MEM_WORDS or t.imem.size != INSTR_MEM_WORDS
               for t in tiles):
            return None
        return tuple(
            (tuple(t._resident), t._next_free, links.get(t.coord)) for t in tiles
        )

    def _begin_job(self, job: tuple) -> _JobRun | None:
        """The guard, once per job (no ``phase_hook``, fast engine): a job
        whose tiles hold one derived start state runs its plan, from the
        artifact's third job here as that start's epoch functions."""
        artifact = job[0]
        seen = self._jobs.get(id(artifact))
        if seen is None or seen[0] is not artifact:
            seen = self._jobs[id(artifact)] = [artifact, 0, {}]
        seen[1] += 1
        plan = getattr(artifact, "epoch_plan", None)
        if (
            plan is None
            or self.phase_hook is not None
            or _pd.resolve_engine(self.engine) != "fast"
        ):
            return None
        state = self._residency(plan.coords)
        resident = state == plan.end and plan.resident is not None
        if not resident and state != plan.cold[0]:
            _pd.COUNTERS.plan_fallbacks += 1
            return None
        steps = (plan.resident if resident else plan.cold)[1]
        if seen[1] >= 3:
            if resident not in seen[2]:
                seen[2][resident] = _epoch_functions(plan, self, resident)
            steps = seen[2][resident]
        _pd.COUNTERS.plan_runs += 1
        return _JobRun(job, steps, self.mesh.links.reconfig_count)

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
        min_vector_lanes: int | None = None,
    ):
        """Execute one artifact over K payloads, vectorized across lanes.

        Semantically identical to K sequential :meth:`execute_artifact`
        calls (bit-for-bit output equivalence is the contract); the
        batched tier in :mod:`repro.fabric.batch` makes it cheaper by
        running each proven phase's lowered traces once over a lane axis
        (one column of every tile's memory per payload).
        Returns a :class:`repro.fabric.batch.BatchResult`.
        """
        from repro.fabric.batch import execute_artifact_batch

        return execute_artifact_batch(
            self,
            artifact,
            payloads,
            tag=tag,
            on_slice=on_slice,
            min_vector_lanes=min_vector_lanes,
        )

    def _epoch_start(self, spec: EpochSpec) -> float:
        """The previous epoch's end, or in dataflow mode when the tiles
        the epoch involves are ready."""
        if not self.dataflow:
            return self.now_ns
        involved: set[Coord] = set(spec.run) | set(spec.depends_on)
        involved |= set(spec.programs) | set(spec.data_images)
        involved |= set(spec.links) | set(spec.pokes)
        ready = self.tile_ready_ns
        return max((ready.get(c, 0.0) for c in involved), default=0.0)

    def _compute(
        self, tiles: list[Tile], gate: float, epoch_start: float, decoded=None
    ):
        """Run ``tiles`` from ``gate`` (``decoded``: a derived plan's, checked
        live); each one's ready time moves to the end of its own work (a
        tile finishing early is free for the next epoch's reconfiguration
        even while slower tiles still run)."""
        if decoded is None:
            result = run_concurrent(
                tiles, self.max_cycles_per_tile, start_ns=gate, engine=self.engine
            )
        else:
            result = FastPhase.analyse(tiles, decoded).run(
                self.max_cycles_per_tile, gate
            )
        ready = self.tile_ready_ns
        for coord, tile_busy in result.busy_ns.items():
            at = ready.get(coord, epoch_start)
            end = gate + tile_busy
            ready[coord] = end if end > at else at
        return result

    def _execute_epoch(self, spec: EpochSpec, derived=None) -> EpochReport:
        """Execute one epoch; ``derived``, its ``DerivedEpoch`` in the job's
        derived plan, stands in for planning and decoding.  A
        generated epoch function (:func:`_epoch_source`) does what this
        does in this order, with the phase analysis folded away."""
        mesh = self.mesh
        ready = self.tile_ready_ns
        epoch_start = self._epoch_start(spec)

        # -- free host writes (preprocessing / on-tile generation) -----
        for coord, image in spec.pokes.items():
            mesh.tile(coord).dmem.load_image(image)

        # -- reconfiguration ------------------------------------------
        txn = derived if derived is not None else self.planner.plan(
            programs=spec.programs, data_images=spec.data_images, links=spec.links
        )
        # Term B of Eq. 1 is the port's busy time, not the per-tile waiting
        # (queueing on the single port shows in the tile ready times).
        reconfig_ns, reconfig_end = self.planner.apply(txn.ops, ready, epoch_start)

        # -- compute ----------------------------------------------------
        compute_ns = 0.0
        busy: dict[Coord, float] = {}
        compute_end = epoch_start
        if spec.run:
            tiles = []
            gate = epoch_start
            for coord in spec.run:
                tile = mesh.tile(coord)
                program = spec.programs.get(coord)
                if program is not None:
                    tile.start(program)  # resident: select this entry point
                elif spec.restart and tile.halted:
                    tile.restart()
                tiles.append(tile)
                # ``b if b > a else a`` is ``max(a, b)``, without the call
                at = ready.get(coord, epoch_start)
                gate = at if at > gate else gate
            for coord in spec.depends_on:
                at = ready.get(coord, epoch_start)
                gate = at if at > gate else gate
            if self.phase_hook is not None:
                self.phase_hook(spec, tiles)
            decoded = None if derived is None else _derived_decoded(tiles, derived.runs)
            result = self._compute(tiles, gate, epoch_start, decoded)
            compute_ns = result.makespan_ns
            compute_end = gate + result.makespan_ns
            busy = result.busy_ns
        return self._close(spec, txn, epoch_start, reconfig_ns, reconfig_end,
                           compute_ns, compute_end, busy)

    def _close(
        self, spec: EpochSpec, txn, start: float, reconfig_ns: float,
        reconfig_end: float, compute_ns: float, compute_end: float, busy: dict,
    ) -> EpochReport:
        """End an epoch when its compute and reconfiguration have, and
        advance ``now_ns`` (``max`` unrolled: every warm epoch ends here)."""
        end = reconfig_end if reconfig_end > compute_end else compute_end
        end = start if start > end else end
        # reconfiguration is "overlapped" (hidden) as far as the ICAP
        # finished before the compute critical path did
        exposed = reconfig_end - compute_end
        overlapped = reconfig_ns - (exposed if exposed > 0.0 else 0.0)
        overlapped = overlapped if overlapped > 0.0 else 0.0
        if end > self.now_ns:
            self.now_ns = end
        return EpochReport(spec.name, start, end, reconfig_ns, compute_ns,
                           overlapped, txn.link_changes, txn.total_bytes, busy)


# ----------------------------------------------------------------------
# epoch functions (DESIGN §16 "Lowered plans")
# ----------------------------------------------------------------------

#: Compiled epoch-function factories by source text, process-wide.  The
#: source holds no constant of the plan (those are bound when a factory
#: is called), so epochs of one shape share one compile.
_EPOCH_CODE: dict[str, Callable] = {}
_CODE_MAX = 4096
_EPOCH_GLOBALS = {"_COUNTERS": _pd.COUNTERS}


def _derived_decoded(tiles: list[Tile], runs: tuple) -> list | None:
    """Each run tile's derived ``(decoded program, base)`` while every tile
    still runs that program, uncorrupted, from a pc inside it (``None``:
    the phase decodes live, as ``run_concurrent`` does)."""
    for tile, run in zip(tiles, runs):
        if (
            run is None or tile.program is not run[0] or tile.halted
            or tile.imem._corrupted or not 0 <= tile.pc - run[2] < run[1].n
        ):
            return None
    return [(dec, base) for _, dec, base in runs]


def _epoch_functions(plan, rtms: "RuntimeManager", resident: bool) -> tuple:
    """One generated function per epoch of ``plan``'s resident or cold
    start (generated once per plan and start, into ``plan.code``), bound
    to ``rtms``'s mesh; each takes the manager per call, so none closes a
    cycle."""
    if resident not in plan.code:
        started = time.perf_counter()
        state, epochs = plan.resident if resident else plan.cold
        links = {coord: tile[2] for coord, tile in zip(plan.coords, state)}
        code = []
        for spec, epoch in zip(plan.specs, epochs):
            consts: list = []
            lines = _epoch_source(rtms.mesh, spec, epoch, links, consts)
            source = "def _make(rt, mesh, K):\n    " + "\n    ".join(lines)
            make = _EPOCH_CODE.get(source)
            if make is None:
                if len(_EPOCH_CODE) >= _CODE_MAX:
                    _EPOCH_CODE.clear()
                namespace: dict[str, object] = {}
                exec(compile(source, "<epoch>", "exec"), _EPOCH_GLOBALS, namespace)
                make = _EPOCH_CODE[source] = namespace["_make"]
                _pd.COUNTERS.statements += len(lines)
            code.append((make, consts))
        plan.code[resident] = code
        _pd.COUNTERS.lowering_s += time.perf_counter() - started
    code = plan.code[resident]
    return tuple(make(rtms, rtms.mesh, consts) for make, consts in code)


def _lowered_runs(mesh: Mesh, spec: EpochSpec, runs: tuple, links: dict) -> list | None:
    """``(tile, footprint, base, program, neighbour coord)`` per run tile of
    a derived epoch proven on the footprints profiled so far from each
    program's start (``None``: the phase runs through the engine)."""
    if not runs or None in runs:
        return None
    tiles = [mesh.tile(coord) for coord in spec.run]
    decoded = [(dec, base) for _, dec, base in runs]
    footprints = [dec.__dict__.get("_footprints", {}).get(0) for dec, _ in decoded]
    if not _proven(tiles, decoded, footprints):
        return None
    out = []
    for tile, (program, dec, base), fp in zip(tiles, runs, footprints):
        neighbour = None
        if fp.remote:
            direction = fp.direction
            if direction is None or links.get(tile.coord) is not direction:
                return None
            dr, dc = direction.delta
            neighbour = (tile.coord[0] + dr, tile.coord[1] + dc)
        if fp.chunks is None:
            _pd._compile_trace(fp, dec.name)
        out.append((tile, fp, base, program, neighbour))
    return out


def _epoch_source(
    mesh: Mesh, spec: EpochSpec, txn, links: dict, consts: list
) -> list[str]:
    """Source of the factory of derived epoch ``txn``'s function: what
    :meth:`RuntimeManager._execute_epoch` does for it, in the same order
    — pokes, the one :meth:`ReconfigPlanner.apply` call, tile starts,
    per-run checks guarding the trace chunks and statistics (a failed one
    runs the phase through the engine), the one :meth:`RuntimeManager._close`
    call.  What the plan fixes goes to ``consts`` (``k<i>`` in the source);
    ``links`` (coord -> direction) is advanced past the epoch, as the
    lowered phase's remote stores need."""
    bound: dict[Coord, int] = {}  # coord -> suffix of its tile's names

    def tile(coord: Coord) -> int:
        return bound.setdefault(coord, len(bound))

    def k(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    body: list[str] = ["s = rt._epoch_start(spec)"]
    emit = body.append
    emit("for c, image in spec.pokes.items():")
    emit("    DM[c].load_image(image)")

    emit(f"rn, re = planner.apply({k(txn.ops)}, R, s)")
    for kind, coord, _, _, target in txn.ops:
        if kind is ReconfigKind.LINK:
            links[coord] = target

    compute = "0.0, s, {}"
    if spec.run:
        for coord in spec.run:
            i = tile(coord)
            program = spec.programs.get(coord)
            if program is not None:
                emit(f"t{i}.start({k(program)})")
            elif spec.restart:
                emit(f"if t{i}.halted:")
                emit(f"    t{i}.restart()")
        emit("g = s")
        for coord in list(spec.run) + list(spec.depends_on):
            emit(f"a = R.get(c{tile(coord)}, s)")
            emit("g = a if a > g else g")
        run_tiles = ", ".join(f"t{tile(coord)}" for coord in spec.run)
        generic = [
            f"r = rt._compute([{run_tiles}], g, s)",
            "cn = r.makespan_ns",
            "busy = r.busy_ns",
        ]
        lowered = _lowered_runs(mesh, spec, txn.runs, links)
        if lowered is None:
            body.extend(generic)
        else:
            body.extend(_lowered_source(lowered, generic, tile, k))
        compute = "cn, g + cn, busy"
    emit(f"return rt._close(spec, {k(txn)}, s, rn, re, {compute})")
    prologue = [
        "R = rt.tile_ready_ns",
        "planner = rt.planner",
        "DM = {t.coord: t.dmem for t in mesh}",
    ]
    for coord, i in bound.items():
        prologue += [
            f"c{i} = {k(coord)}",
            f"t{i} = mesh.tile(c{i})",
            f"d{i} = t{i}.dmem",
            f"S{i} = t{i}.stats",
            f"C{i} = t{i}.imem._corrupted",
        ]
    names = [f"k{i}" for i in range(len(consts))]
    # bound as defaults, not closure cells: 8 bytes a name, not 48
    params = [line.split(" = ")[0] for line in prologue] + names
    defaults = "".join(f", {name}={name}" for name in params)
    return [", ".join(names) + ", = K"] + prologue + [
        f"def _epoch(rt, spec{defaults}):"
    ] + [f"    {line}" for line in body] + ["return _epoch"]


def _lowered_source(runs: list, generic: list[str], tile, k) -> list[str]:
    """A proven phase: the per-run checks, then each tile's trace chunks
    and literal statistics (``FastPhase.run`` of a proven phase)."""
    lines = [f"w{tile(t.coord)} = d{tile(t.coord)}._words" for t, *_ in runs]
    longest = max(fp.cycles for _, fp, *_ in runs)
    checks = [f"rt.max_cycles_per_tile < {k(longest)}"]
    for t, fp, base, program, _ in runs:
        i = tile(t.coord)
        checks += [
            f"t{i}.program is not {k(program)}", f"t{i}.halted",
            f"t{i}.pc != {k(base)}", f"C{i}",
        ]
        checks += [
            f"w{i}[{k(addr)}] != {k(value)}" for addr, value in fp.fingerprint
        ]
    lines.append(f"if {' or '.join(checks)}:")
    lines += [f"    {line}" for line in generic]
    lines.append("else:")
    fast = []
    # the event loop pops the phase's elapsed-0 events in coordinate order
    for t, fp, base, _program, neighbour in sorted(runs, key=lambda r: r[0].coord):
        i = tile(t.coord)
        words = "None"
        if neighbour is not None:
            j = tile(neighbour)
            words = "nw"
            fast += [f"nw = d{j}._words", f"d{j}.writes += {k(fp.neighbour_stores)}"]
        fast += [f"{k(chunk)}(w{i}, {words})" for chunk in fp.chunks]
        fast += [f"t{i}.pc = {k(base + fp.final_pc)}", f"t{i}.halted = True"]
        fast += [
            f"{owner}{i}.{counter} += {k(count)}"
            for owner, counter, count in (
                ("S", "instructions", fp.instructions),
                ("S", "cycles", fp.cycles),
                ("S", "branches_taken", fp.branches),
                ("S", "neighbour_stores", fp.neighbour_stores),
                ("S", "halts", 1),
                ("d", "reads", fp.reads),
                ("d", "writes", fp.writes),
            )
            if count
        ]
    busy = [(tile(t.coord), fp.cycles * CYCLE_NS) for t, fp, *_ in runs]
    fast += [
        f"_COUNTERS.lowered_runs += {len(runs)}",
        f"cn = {k(longest * CYCLE_NS)}",
        "busy = {" + ", ".join(f"c{i}: {k(b)}" for i, b in busy) + "}",
    ]
    for i, tile_busy in busy:
        fast += [
            f"a = R.get(c{i}, s)",
            f"x = g + {k(tile_busy)}",
            f"R[c{i}] = x if x > a else a",
        ]
    return lines + [f"    {line}" for line in fast]
