"""Vector-batched execution of compiled artifacts over a lane axis.

K pending work items that share one :class:`~repro.compile.ir.CompiledArtifact`
execute the *same* instruction trace — the footprint profiler
(:func:`repro.fabric.predecode.footprint_for`) proves per program that
control flow, addresses and shift amounts are functions of a small
fingerprinted control slice, never of the payload data.  This module
exploits that proof: instead of K sequential interpreter runs, the data
memory of every tile becomes a ``(512, K)`` ``int64`` array (one column
per lane) and each tile run executes its *lowered trace* once for all
lanes: the same statements the scalar engine runs, emitted a second time
over lane rows (:func:`repro.fabric.predecode.lane_source`).  The control
slice is already folded away, so only the data plane costs numpy calls,
and a re-rolled loop whose iterations are independent runs as one array
statement per body line over all its iterations and lanes at once.

Execution is **pilot-driven**: lane 0 runs through the ordinary engine
on the real mesh (exact timing, statistics, ICAP charges) while a phase
hook installed on the :class:`~repro.fabric.rtms.RuntimeManager`
advances all K columns through each epoch's compute phase just before
the pilot does.  Safety nets, in order:

* a phase is batched only when every tile decodes, every footprint
  validates, and the concurrent simulator's phase analysis proves the
  exchange conflict-free (``FastPhase.proven``);
* a per-lane *fingerprint mask* compares each lane's control words
  against the profiled fingerprint — a diverging lane is degraded to the
  scalar path (checkpoint/rollback replay) without poisoning the batch,
  because every vector operation is lane-wise and every address is a
  literal of the trace;
* after the artifact completes, lane 0's column is cross-checked
  word-for-word against the pilot's real memory; any mismatch (or any
  exception inside the vector tier) degrades **all** non-pilot lanes to
  scalar replay.  The vector tier can therefore be slow, never wrong.

Lane code compiles in milliseconds from the footprint's statements and
is cached on the decoded program, per entry pc and fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.fabric import predecode as _pd
from repro.fabric.predecode import DecodedProgram, Footprint

__all__ = [
    "BatchDegrade",
    "BatchError",
    "BatchResult",
    "LaneResult",
    "lane_trace",
    "execute_artifact_batch",
]

#: Below this lane count the vector tier costs more than it saves: numpy
#: per-op dispatch overhead is flat in K, so a dispatch has a fixed wall
#: cost that only amortises past a number of lanes, and smaller batches
#: run their lanes scalar (as lowered traces) instead.  The break-even
#: depends on how much per-epoch orchestration a kernel has for the
#: lanes to share — measured against the lowered scalar path: fft(64,8,2)
#: 8 lanes, gemm 14, dsp 20, conv2d 24, jpeg 38 blocks.  16 bounds the
#: loss on either side at about 2x (fft forfeits 2.1x at 15 lanes, jpeg
#: loses 2.0x at 16 blocks).  Callers that know better (tests) pass
#: ``min_vector_lanes``.
DEFAULT_MIN_VECTOR_LANES = 16

_M24 = (1 << 24) - 1


class BatchError(ReproError):
    """A caller error of the batched execution tier (bad lane shapes,
    lane count mismatch)."""


class BatchDegrade(Exception):
    """Internal: this phase (or batch) cannot be executed vectorized.

    Never propagates out of :func:`execute_artifact_batch` — it demotes
    lanes to the scalar replay path, which is always available.
    """


# ---------------------------------------------------------------------------
# the lowered trace over lanes
# ---------------------------------------------------------------------------


def _mulq(x, y, aux: int):
    """MULQ over int64 lanes, bit-exact: bits [aux, aux+48) of the 96-bit
    product from 24-bit limbs.  With x = xh*2^24+xl (xl unsigned), the
    rounded x*y + rnd is hi*2^48 + md*2^24 + lo2 with every term in int64,
    and the shift splits exactly as lo2 is in [0, 2^24); ``(v * 2**16)
    >> 16`` sign-extends bit 47 through int64's modular overflow."""
    xl, xh, yl, yh = x & _M24, x >> 24, y & _M24, y >> 24
    lo = xl * yl + (1 << (aux - 1))
    md = xh * yl + xl * yh + (lo >> 24)
    if aux >= 24:
        r = xh * yh * (1 << (48 - aux)) + (md >> (aux - 24))
    else:
        r = (
            xh * yh * (1 << (48 - aux)) + md * (1 << (24 - aux))
            + ((lo & _M24) >> aux)
        )
    return (r * 65536) >> 16


def _last(value):
    """A loop local after its last iteration (one row per iteration)."""
    return value[-1] if getattr(value, "ndim", 0) == 2 else value


def lane_trace(
    dec: DecodedProgram,
    footprint: Footprint,
    entry: int,
    words: list[int],
) -> tuple[Callable, ...]:
    """The run's lowered trace as ``(w, n)`` functions over lane arrays.

    Cached on the decode per ``(entry, fingerprint)``; ``words`` is a
    memory the fingerprint matches (a compiled trace has dropped its
    statements, so they are profiled again from it).
    """
    cache = dec.__dict__.setdefault("_batch_code", {})
    code = cache.get((entry, footprint.fingerprint))
    if code is not None:
        return code
    rows = footprint.statements or _pd._profile_footprint(
        dec, entry, words
    ).statements
    namespace = {"np": np, "_mulq": _mulq, "_last": _last}
    exec(compile(_pd.lane_source(rows), f"<lanes:{dec.name}>", "exec"), namespace)
    count = sum(1 for name in namespace if name.startswith("_t"))
    code = tuple(namespace[f"_t{index}"] for index in range(count))
    cache[(entry, footprint.fingerprint)] = code
    return code


# ---------------------------------------------------------------------------
# lane state + result views
# ---------------------------------------------------------------------------


class BatchState:
    """Per-coordinate ``(512, K)`` lane memories plus the lane mask."""

    def __init__(self, mesh, k: int) -> None:
        self.k = k
        self.arrays: dict[tuple[int, int], np.ndarray] = {}
        for row in range(mesh.rows):
            for col in range(mesh.cols):
                tile = mesh.tile((row, col))
                arr = np.empty((tile.dmem.size, k), dtype=np.int64)
                arr[:] = np.asarray(tile.dmem._words, dtype=np.int64)[:, None]
                self.arrays[(row, col)] = arr
        #: Per-lane validity: False once a lane's fingerprint diverged.
        self.lane_ok = np.ones(k, dtype=bool)


class _MeshView:
    """Immutable word snapshot of a whole mesh (pilot / fallback lanes)."""

    __slots__ = ("mem",)

    def __init__(self, mesh) -> None:
        self.mem = {
            (r, c): list(mesh.tile((r, c)).dmem._words)
            for r in range(mesh.rows)
            for c in range(mesh.cols)
        }

    def words(self, coord, base: int, count: int) -> list[int]:
        return self.mem[coord][base:base + count]


class _LaneView:
    """One lane's column of the batched state."""

    __slots__ = ("state", "lane")

    def __init__(self, state: BatchState, lane: int) -> None:
        self.state = state
        self.lane = lane

    def words(self, coord, base: int, count: int) -> list[int]:
        return self.state.arrays[coord][base:base + count, self.lane].tolist()


@dataclass
class LaneResult:
    """Outcome of one lane of a batched artifact execution."""

    index: int
    #: True when this lane's outputs come from the vector tier; False for
    #: the pilot and for lanes replayed on the scalar path.
    batched: bool
    #: True when the lane's control fingerprint diverged (it then took the
    #: checkpoint/rollback scalar path; its outputs are still exact).
    diverged: bool
    #: Simulated fabric time of this lane (batched lanes replicate the
    #: pilot's delta — identical control trace, identical cycles).
    sim_ns: float
    #: Configuration-port busy time attributed to this lane (ditto).
    reconfig_ns: float
    _view: object = field(repr=False, default=None)

    def words(self, coord, base: int, count: int) -> list[int]:
        """Read ``count`` data-memory words of this lane's final state."""
        return self._view.words(coord, base, count)


@dataclass
class BatchResult:
    """Outcome of :func:`execute_artifact_batch`."""

    lanes: list[LaneResult]
    #: True when the whole vector tier was abandoned (structural
    #: ineligibility, cross-check mismatch, or ``K < min_vector_lanes``).
    degraded: bool
    degrade_reason: str = ""
    pilot_sim_ns: float = 0.0


# ---------------------------------------------------------------------------
# per-epoch configuration mirroring
# ---------------------------------------------------------------------------


def _wrap_rows(values: list) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    return (arr * 65536) >> 16


def _mirror_epoch_config(state: BatchState, mesh, lane_specs) -> None:
    """Apply one epoch's host pokes and ICAP data images to every lane.

    Mirrors :meth:`RuntimeManager._execute_epoch` + the reconfiguration
    planner's apply order exactly: pokes first, then (sorted) data images
    of programs being loaded, then the epoch's own (sorted) data images.
    Link changes carry no data-memory payload.  Body epochs share their
    image dicts across lanes by identity (``CompiledArtifact.bind``),
    so only pokes are genuinely per-lane.
    """
    spec0 = lane_specs[0]
    k = state.k
    # -- host pokes (the per-lane payload) -----------------------------
    for coord, image0 in spec0.pokes.items():
        arr = state.arrays[coord]
        addrs = list(image0)
        if all(spec is spec0 for spec in lane_specs):
            matrix = [[image0[a]] * k for a in addrs]
        else:
            columns = []
            for spec in lane_specs:
                image = spec.pokes.get(coord)
                if image is None or set(image) != set(image0):
                    raise BatchDegrade(
                        f"lane poke address sets differ at {coord}"
                    )
                columns.append(image)
            matrix = [[col[a] for col in columns] for a in addrs]
        arr[np.asarray(addrs, dtype=np.int64)] = _wrap_rows(matrix)
    for spec in lane_specs[1:]:
        extra = set(spec.pokes) - set(spec0.pokes)
        if extra:
            raise BatchDegrade(f"lane pokes touch extra tiles {sorted(extra)}")
        if spec.programs is not spec0.programs and spec.programs != spec0.programs:
            raise BatchDegrade("lane program maps differ")
        if (
            spec.data_images is not spec0.data_images
            and spec.data_images != spec0.data_images
        ):
            raise BatchDegrade("lane data images differ")
    # -- program data images (only for programs the planner will load) --
    for coord, program in sorted(spec0.programs.items()):
        if mesh.tile(coord).resident_base(program) is not None:
            continue  # pinned: the planner skips it, so do we
        if program.data_image:
            _broadcast_image(state.arrays[coord], program.data_image)
    # -- epoch data images ---------------------------------------------
    for coord, image in sorted(spec0.data_images.items()):
        if image:
            _broadcast_image(state.arrays[coord], image)


def _broadcast_image(arr: np.ndarray, image: dict) -> None:
    addrs = np.fromiter(image.keys(), dtype=np.int64, count=len(image))
    vals = _wrap_rows(list(image.values()))
    arr[addrs] = vals[:, None]


# ---------------------------------------------------------------------------
# the pilot-driven executor
# ---------------------------------------------------------------------------


def _fingerprint_mask(fp: Footprint, arr: np.ndarray) -> np.ndarray:
    """(K,) bool: which lanes match the profiled control fingerprint."""
    if not fp.fingerprint:
        return np.ones(arr.shape[1], dtype=bool)
    cached = fp.__dict__.get("_fp_arrays")
    if cached is None:
        addrs = np.fromiter((a for a, _v in fp.fingerprint), np.int64)
        vals = np.fromiter((v for _a, v in fp.fingerprint), np.int64)
        cached = fp.__dict__["_fp_arrays"] = (addrs, vals)
    addrs, vals = cached
    return (arr[addrs] == vals[:, None]).all(axis=0)


class _PhaseDriver:
    """The ``RuntimeManager.phase_hook`` advancing all lanes per phase."""

    def __init__(self, rtms, state: BatchState) -> None:
        self.rtms = rtms
        self.state = state
        self.degraded = False
        self.reason = ""

    def degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.reason = reason

    def on_phase(self, spec, tiles) -> None:
        """Called by ``_execute_epoch`` after tile starts, before compute."""
        if self.degraded or not tiles:
            return
        try:
            from repro.fabric.simulator import FastPhase

            phase = FastPhase.analyse(tiles)
            if phase is None:
                raise BatchDegrade("a tile of the phase is not decodable")
            decoded, footprints = phase.decoded, phase.footprints
            for tile, fp in zip(tiles, footprints):
                if fp is None:
                    raise BatchDegrade(f"no footprint for tile {tile.coord}")
            if not phase.proven:
                raise BatchDegrade("phase not proven conflict-free")
            # -- per-lane divergence masks (sticky) ---------------------
            for tile, fp in zip(tiles, footprints):
                self.state.lane_ok &= _fingerprint_mask(
                    fp, self.state.arrays[tile.coord]
                )
            # -- advance every lane through the phase: the phase proof makes
            # the tiles' runs commute, so each runs whole, in any order
            mesh, arrays = self.rtms.mesh, self.state.arrays
            for tile, (dec, base), fp in zip(tiles, decoded, footprints):
                chunks = lane_trace(dec, fp, tile.pc - base, tile.dmem._words)
                neighbour = None
                if fp.remote:
                    direction = fp.direction
                    if direction is None or mesh.active_link(tile.coord) is not direction:
                        raise BatchDegrade(f"link mismatch at {tile.coord}")
                    neighbour = arrays[mesh.neighbour_coord(tile.coord, direction)]
                for chunk in chunks:
                    chunk(arrays[tile.coord], neighbour)
        except BatchDegrade as exc:
            self.degrade(str(exc))
        except Exception as exc:  # defensive: never poison the pilot
            self.degrade(f"unexpected {exc!r}")


def execute_artifact_batch(
    rtms,
    artifact,
    payloads: Sequence,
    *,
    tag: str = "",
    on_slice: Callable[[int], None] | None = None,
    min_vector_lanes: int | None = None,
) -> BatchResult:
    """Execute ``artifact`` once per payload, vectorized across lanes.

    Lane 0 is the *pilot*: it runs through the ordinary engine on the
    real mesh (exact timing/ICAP accounting).  The remaining lanes
    advance as columns of batched numpy state; any lane whose control
    fingerprint diverges — and every lane, if the vector tier degrades —
    is replayed bit-exactly on the scalar path from a pre-batch
    checkpoint.  Outputs are therefore always identical to K sequential
    :meth:`~repro.fabric.rtms.RuntimeManager.execute_artifact` calls.

    ``on_slice(i)`` fires before epoch ``i`` (the cancellation poll
    site).  Lane timing: batched
    lanes replicate the pilot's simulated-time/ICAP deltas (identical
    control trace => identical cycles) and the manager clock advances as
    if the lanes had run sequentially.
    """
    if not payloads:
        raise BatchError("execute_artifact_batch needs at least one payload")
    rtms._check_artifact(artifact)
    k = len(payloads)
    if min_vector_lanes is None:
        min_vector_lanes = DEFAULT_MIN_VECTOR_LANES

    def _scalar_lane(index: int, payload) -> LaneResult:
        start_ns = rtms.now_ns
        busy = rtms.icap.total_busy_ns
        rtms.execute_artifact(artifact, payload, tag=f"{tag}l{index}_")
        return LaneResult(
            index=index,
            batched=False,
            diverged=False,
            sim_ns=rtms.now_ns - start_ns,
            reconfig_ns=rtms.icap.total_busy_ns - busy,
            _view=_MeshView(rtms.mesh),
        )

    vector_viable = (
        k >= min_vector_lanes
        and not getattr(rtms, "dataflow", False)
        and _pd.resolve_engine(rtms.engine) == "fast"
    )
    if not vector_viable:
        lanes = [_scalar_lane(i, p) for i, p in enumerate(payloads)]
        return BatchResult(
            lanes=lanes,
            degraded=True,
            degrade_reason="vector tier disabled"
            if k < min_vector_lanes
            else "reference engine / dataflow manager",
        )

    # Bind the pilot fully; other lanes only need their *input* epoch
    # (the per-lane pokes) — body epochs share every payload dict across
    # lanes by construction (``CompiledArtifact.bind``), so retagging
    # them per lane would only burn time on identical copies.  Binding
    # the input port up front still validates each lane's payload shape
    # before anything runs (mismatched shapes are rejected cleanly).
    pilot_epochs = artifact.bind(payloads[0], f"{tag}l0_")
    port = artifact.plan.input_port
    lane_inputs = None
    if port is not None:
        lane_inputs = [pilot_epochs[0]] + [
            port.bind(payload, f"{tag}l{index}_")
            for index, payload in enumerate(payloads[1:], start=1)
        ]
    state = BatchState(rtms.mesh, k)
    driver = _PhaseDriver(rtms, state)
    checkpoint = rtms.checkpoint()
    start_ns = rtms.now_ns
    busy_before = rtms.icap.total_busy_ns
    previous_hook = getattr(rtms, "phase_hook", None)
    rtms.phase_hook = driver.on_phase
    try:
        for index, epoch in enumerate(pilot_epochs):
            if on_slice is not None:
                on_slice(index)
            if not driver.degraded:
                if index == 0 and lane_inputs is not None:
                    lane_specs = lane_inputs  # the one per-lane epoch
                else:
                    lane_specs = [epoch]  # body: shared across lanes
                try:
                    _mirror_epoch_config(state, rtms.mesh, lane_specs)
                except BatchDegrade as exc:
                    driver.degrade(str(exc))
            rtms.execute([epoch])
    finally:
        rtms.phase_hook = previous_hook
    pilot_sim = rtms.now_ns - start_ns
    pilot_reconfig = rtms.icap.total_busy_ns - busy_before

    # -- lane-0 cross-check: the vector tier must have tracked the pilot
    if not driver.degraded:
        for coord, arr in state.arrays.items():
            live = np.asarray(rtms.mesh.tile(coord).dmem._words, dtype=np.int64)
            if not np.array_equal(arr[:, 0], live):
                driver.degrade(f"pilot cross-check mismatch at {coord}")
                break

    lane_ok = state.lane_ok.copy()
    if driver.degraded:
        lane_ok[:] = False
    pilot_view = _MeshView(rtms.mesh)
    lanes: list[LaneResult] = [
        LaneResult(
            index=0,
            batched=False,
            diverged=False,
            sim_ns=pilot_sim,
            reconfig_ns=pilot_reconfig,
            _view=pilot_view,
        )
    ]
    fallback = [i for i in range(1, k) if not lane_ok[i]]
    batched = [i for i in range(1, k) if lane_ok[i]]
    for index in batched:
        lanes.append(
            LaneResult(
                index=index,
                batched=True,
                diverged=False,
                sim_ns=pilot_sim,
                reconfig_ns=pilot_reconfig,
                _view=_LaneView(state, index),
            )
        )
    if fallback:
        resume = rtms.checkpoint()
        for index in fallback:
            rtms.restore(checkpoint)
            start = rtms.now_ns
            busy = rtms.icap.total_busy_ns
            rtms.execute(artifact.bind(payloads[index], f"{tag}l{index}_"))
            lanes.append(
                LaneResult(
                    index=index,
                    batched=False,
                    diverged=not driver.degraded,
                    sim_ns=rtms.now_ns - start,
                    reconfig_ns=rtms.icap.total_busy_ns - busy,
                    _view=_MeshView(rtms.mesh),
                )
            )
        rtms.restore(resume)
    # Sequential-equivalent clock: replicated lanes occupied the fabric
    # for the pilot's duration each (the fallback replays already charged
    # their real time above).
    rtms.now_ns += len(batched) * pilot_sim
    lanes.sort(key=lambda lane: lane.index)
    return BatchResult(
        lanes=lanes,
        degraded=driver.degraded,
        degrade_reason=driver.reason,
        pilot_sim_ns=pilot_sim,
    )
