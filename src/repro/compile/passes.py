"""The pass manager and the individual compiler passes.

A compile is a linear pipeline over a :class:`CompileUnit`: ``lower``
(frontend) → ``validate-links`` → ``validate-memory`` →
``validate-schedule`` → ``predecode`` → ``validate-routes`` →
``switch-table`` → ``cold-deltas`` → ``hash``.  The eight passes are
shares of one :class:`ShadowWalk` of the plan's setup + body epochs,
each timed on its part of every epoch.  A pass is still a named function
``(CompileUnit) -> None`` that runs alone; :class:`PassManager` runs
adjacent shares as one walk, any other pass on its own, and wraps
failures in :class:`~repro.errors.CompileError` carrying the pass name.
Errors come in epoch order, an epoch's checks in pass order.

The fabric laws checked (the legacy runners only met them at run time):
**link legality** — a tile's one write port attaches to an in-mesh
principal neighbour (Sec. 2); **memory budgets** — data/poke addresses
inside the 512-word data memory (a
:class:`~repro.compile.ir.FrozenImage` was checked when built), programs
inside the 512-word instruction memory; **schedule sanity** — in-mesh
coordinates, unique epoch names, run tiles holding a program; **route
coverage** — an ``SNB``-storing program runs only where the tile's link,
tracked across the schedule, points its way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

from repro.errors import CompileError
from repro.fabric.bitstream import DMEM_BYTES_PER_WORD, program_icap_bytes
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.predecode import predecode
from repro.fabric.rtms import EpochSpec
from repro.units import DATA_MEM_WORDS, INSTR_MEM_WORDS

from repro.compile.hashing import plan_hash
from repro.compile.ir import (
    CompiledArtifact,
    Coord,
    DerivedPlan,
    EpochPlan,
    FrozenImage,
    KernelGraph,
    PassTiming,
    SwitchPieces,
    _sorted_items,
    _Walk,
)

__all__ = [
    "CompileUnit",
    "PassManager",
    "ShadowWalk",
    "default_passes",
    "validate_links_pass",
    "validate_memory_pass",
    "validate_schedule_pass",
    "predecode_pass",
    "validate_routes_pass",
    "switch_table_pass",
    "cold_deltas_pass",
    "hash_pass",
    "finish",
]

@dataclass
class CompileUnit:
    """Mutable state threaded through the pass pipeline."""

    graph: KernelGraph
    plan: EpochPlan
    programs: list = field(default_factory=list)
    decoded: list = field(default_factory=list)
    epoch_names: tuple[str, ...] = ()
    switch_pieces: tuple[SwitchPieces, ...] = ()
    cold_bytes: tuple[int, ...] = ()
    cold_link_changes: tuple[int, ...] = ()
    epoch_plan: DerivedPlan | None = None
    artifact_hash: str = ""
    timings: list[PassTiming] = field(default_factory=list)


Pass = Callable[[CompileUnit], None]


class ShadowWalk:
    """One walk of a unit's setup + body epochs, each pass a share of it:
    ``SHARES[name]`` names its per-epoch method; ``<method>_end`` ends it."""

    SHARES = {"validate-links": "links", "validate-memory": "memory",
              "validate-schedule": "schedule", "predecode": "predecode",
              "validate-routes": "routes", "switch-table": "switch",
              "cold-deltas": "deltas", "hash": "hash"}

    def __init__(self, unit: CompileUnit) -> None:
        plan = self.plan = unit.plan
        self.unit = unit
        self.tiles = {(r, c) for r in range(plan.rows) for c in range(plan.cols)}
        self.names = set() if plan.input_port is None else {plan.input_port.name}
        self.installed: set[Coord] = set()
        self.checked: set[int] = set()  # programs validate-memory passed
        self.link_state: dict[Coord, Direction | None] = {}
        self.decoded: dict[int, tuple] = {}  # in first-use order
        self.transfer_ns = IcapPort().transfer_ns
        self.loads: dict[tuple, tuple] = {}
        self.pieces: list[SwitchPieces] = []
        self.walk, self.txns, self.job, self.cold = _Walk(), [], [], None
        self.viewed: EpochSpec | None = None

    def run(self, shares) -> list[float]:
        """Walk once doing ``shares`` (pass names); the seconds of each."""
        methods = [self.SHARES[share] for share in shares]
        steps = [(i, getattr(self, m)) for i, m in enumerate(methods)
                 if hasattr(self, m)]
        seconds, clock, i = [0.0] * len(shares), time.perf_counter, 0
        try:
            for self.index, spec in enumerate(self.plan.epochs):
                begin = clock()
                for i, step in steps:  # one clock read between shares
                    step(spec)
                    end = clock()
                    seconds[i] += end - begin
                    begin = end
            for i, method in enumerate(methods):
                if hasattr(self, method + "_end"):
                    begin = clock()
                    getattr(self, method + "_end")()
                    seconds[i] += clock() - begin
        except CompileError:
            raise
        except Exception as exc:  # diagnostic context for pass bugs
            raise CompileError(f"pass crashed: {exc}", pass_name=shares[i]) from exc
        return seconds

    def view(self, spec: EpochSpec) -> tuple[list, list, list]:
        """The epoch's programs, data images and links as sorted items,
        sorted once for every share that reads them."""
        if self.viewed is not spec:
            self.viewed, self.items = spec, _sorted_items(spec)
        return self.items

    def _check(self, coord: Coord, spec: EpochSpec, what: str, name: str) -> None:
        if coord not in self.tiles:
            raise CompileError(
                f"{what} coordinate {coord} outside the "
                f"{self.plan.rows}x{self.plan.cols} mesh",
                pass_name=name, epoch=spec.name, coord=coord,
            )

    def links(self, spec: EpochSpec) -> None:
        """Every link attaches to an in-mesh principal neighbour."""
        for coord, direction in spec.links.items():
            self._check(coord, spec, "link", "validate-links")
            if direction is None:
                continue  # detach is always legal
            if not isinstance(direction, Direction):
                raise CompileError(
                    f"link at {coord} is not a principal direction: "
                    f"{direction!r}",
                    pass_name="validate-links", epoch=spec.name, coord=coord,
                )
            dr, dc = direction.delta
            neighbour = (coord[0] + dr, coord[1] + dc)
            if neighbour not in self.tiles:
                raise CompileError(
                    f"tile {coord} links {direction.name} off the mesh "
                    f"(neighbour {neighbour} outside "
                    f"{self.plan.rows}x{self.plan.cols})",
                    pass_name="validate-links", epoch=spec.name, coord=coord,
                )

    def memory(self, spec: EpochSpec) -> None:
        """All addresses inside the 512-word memories; programs fit IMEM."""
        tiles, data_images, pokes = self.tiles, spec.data_images, spec.pokes
        if (tiles.issuperset(data_images) and tiles.issuperset(pokes)
                and tiles.issuperset(spec.programs)
                and {*map(type, data_images.values()),
                     *map(type, pokes.values())} <= {FrozenImage}
                and self.checked.issuperset(map(id, spec.programs.values()))):
            return  # frozen images were checked when built, programs before
        for kind, found in (("data image", spec.data_images), ("poke", spec.pokes)):
            for coord, image in found.items():
                self._check(coord, spec, kind, "validate-memory")
                if type(image) is not FrozenImage:
                    self._words(spec, coord, image, f"{kind} address", f" at {coord}")
        for coord, program in spec.programs.items():
            self._check(coord, spec, "program", "validate-memory")
            if id(program) in self.checked:
                continue
            if program.imem_words > INSTR_MEM_WORDS:
                raise CompileError(
                    f"program {program.name!r} ({program.imem_words} words) "
                    f"exceeds the {INSTR_MEM_WORDS}-word instruction memory",
                    pass_name="validate-memory", epoch=spec.name, coord=coord,
                )
            self._words(spec, coord, program.data_image,
                        f"program {program.name!r} data image address", "")
            self.checked.add(id(program))

    def _words(self, spec: EpochSpec, coord: Coord, image, what: str,
               where: str) -> None:
        for addr in image:
            if not 0 <= addr < DATA_MEM_WORDS:
                raise CompileError(
                    f"{what} {addr}{where} outside the {DATA_MEM_WORDS}-word "
                    f"data memory",
                    pass_name="validate-memory", epoch=spec.name, coord=coord,
                )

    def schedule(self, spec: EpochSpec) -> None:
        """Epoch names unique; run/depends coordinates legal; runs runnable."""
        if spec.name in self.names:
            raise CompileError(
                "duplicate epoch name (the switch-table index needs unique "
                "names)", pass_name="validate-schedule", epoch=spec.name,
            )
        self.names.add(spec.name)
        self.installed.update(spec.programs)
        for coord in spec.run:
            self._check(coord, spec, "run", "validate-schedule")
            if coord not in self.installed:
                raise CompileError(
                    f"tile {coord} runs before any epoch installed a program "
                    f"on it", pass_name="validate-schedule", epoch=spec.name,
                    coord=coord,
                )
        if len(set(spec.run)) != len(spec.run):
            raise CompileError("duplicate coordinates in the run set",
                               pass_name="validate-schedule", epoch=spec.name)
        for coord in spec.depends_on:
            self._check(coord, spec, "depends_on", "validate-schedule")

    def routes(self, spec: EpochSpec) -> None:
        """SNB stores only over a matching link: each tile's write port,
        tracked across the schedule, against each run program's store
        directions (the mesh's runtime ``LinkError``, at compile time)."""
        self.link_state.update(spec.links)
        for coord in spec.run:
            program = spec.programs.get(coord)
            if program is None:
                continue  # resident re-run: direction proven when installed
            active = self.link_state.get(coord)
            for direction in predecode(program).snb_dirs:
                if direction != active:
                    raise CompileError(
                        f"program {program.name!r} at {coord} stores "
                        f"{direction.name} but the active link is "
                        f"{active.name if active else 'detached'}",
                        pass_name="validate-routes", epoch=spec.name,
                        coord=coord,
                    )

    def predecode(self, spec: EpochSpec) -> None:
        """Eagerly predecode every distinct program (first-use order), so
        the first work item of a warm artifact runs on the fast tier."""
        for _, program in self.view(spec)[0]:
            if id(program) not in self.decoded:
                self.decoded[id(program)] = (program, predecode(program))

    def predecode_end(self) -> None:
        self.unit.programs = [program for program, _ in self.decoded.values()]
        self.unit.decoded = [table for _, table in self.decoded.values()]

    def switch(self, spec: EpochSpec) -> None:
        """What the epoch transfers whatever ran before it: program loads
        ``(coord, program, ns)`` in coordinate order, the charged data
        images' durations, its links.  ``artifact.switch_cost_ns(i, j)``
        prices a pair from them; no E² table is built."""
        transfer_ns, memo = self.transfer_ns, self.loads
        programs, images, _ = self.view(spec)
        loads = []
        for coord, program in programs:  # one tuple per tile and program
            load = memo.get((coord, id(program)))
            if load is None:
                ns = transfer_ns(program_icap_bytes(program))
                load = memo[coord, id(program)] = (coord, program, ns)
            loads.append(load)
        images = tuple(transfer_ns(len(image) * DMEM_BYTES_PER_WORD)
                       for _, image in images if image)
        self.pieces.append((tuple(loads), images, spec.links))

    def switch_end(self) -> None:
        self.unit.epoch_names = tuple(spec.name for spec in self.plan.epochs)
        self.unit.switch_pieces = tuple(self.pieces)

    def deltas(self, spec: EpochSpec) -> None:
        """The epoch's step of the :class:`DerivedPlan`: its delta over the
        shadow of a fresh fabric, byte-for-byte what ``ReconfigPlanner``
        emits on a fresh mesh, capacity eviction included."""
        if self.index == len(self.plan.setup):
            self._enter_body()
        txn = self.walk.epoch(spec, self.view(spec))
        self.txns.append(txn)
        if self.cold is not None:
            self.job.append(txn)

    def _enter_body(self) -> None:
        """Past the setup prologue: the cold state, then the input port's
        epoch (no pokes at compile time)."""
        plan, port = self.plan, self.plan.input_port
        self.coords = tuple(sorted(
            {c for spec in plan.epochs for c in (*spec.programs, *spec.links)}
        ))
        self.cold = self.walk.shadow.state(self.coords)
        self.specs = plan.body
        if port is not None:
            self.specs = (EpochSpec(port.name, depends_on=list(port.depends_on)),
                          *plan.body)
            self.job.append(self.walk.epoch(self.specs[0]))

    def deltas_end(self) -> None:
        """The plan, and ``cold_bytes``/``cold_link_changes``: the totals,
        per epoch, of setup + body on a fresh fabric."""
        if self.cold is None:
            self._enter_body()
        end = self.walk.shadow.state(self.coords)
        self.unit.epoch_plan = DerivedPlan(self.plan, self.specs, self.coords,
                                           (self.cold, tuple(self.job)), end)
        self.unit.cold_bytes = tuple(txn.total_bytes for txn in self.txns)
        self.unit.cold_link_changes = tuple(t.link_changes for t in self.txns)

    def hash_end(self) -> None:
        """Content-address the plan (the cache key and artifact identity)."""
        self.unit.artifact_hash = plan_hash(self.plan)


def _share(name: str) -> Pass:
    def run(unit: CompileUnit) -> None:
        ShadowWalk(unit).run((name,))

    method = ShadowWalk.SHARES[name]
    run.share = name
    run.__doc__ = (getattr(ShadowWalk, method, None)
                   or getattr(ShadowWalk, method + "_end")).__doc__
    run.__name__ = run.__qualname__ = name.replace("-", "_") + "_pass"
    return run


validate_links_pass = _share("validate-links")
validate_memory_pass = _share("validate-memory")
validate_schedule_pass = _share("validate-schedule")
predecode_pass = _share("predecode")
validate_routes_pass = _share("validate-routes")
switch_table_pass = _share("switch-table")
cold_deltas_pass = _share("cold-deltas")
hash_pass = _share("hash")

DEFAULT_PASSES: tuple[tuple[str, Pass], ...] = (
    ("validate-links", validate_links_pass),
    ("validate-memory", validate_memory_pass),
    ("validate-schedule", validate_schedule_pass),
    ("predecode", predecode_pass),
    ("validate-routes", validate_routes_pass),
    ("switch-table", switch_table_pass),
    ("cold-deltas", cold_deltas_pass),
    ("hash", hash_pass),
)


def default_passes() -> list[tuple[str, Pass]]:
    """A fresh copy of the default pipeline (callers may splice)."""
    return list(DEFAULT_PASSES)


def finish(unit: CompileUnit) -> CompiledArtifact:
    """Assemble the immutable artifact from a fully-passed unit."""
    return CompiledArtifact(
        plan=unit.plan, graph=unit.graph, programs=tuple(unit.programs),
        decoded=tuple(unit.decoded), epoch_names=unit.epoch_names,
        switch_pieces=unit.switch_pieces, cold_bytes=unit.cold_bytes,
        cold_link_changes=unit.cold_link_changes, epoch_plan=unit.epoch_plan,
        artifact_hash=unit.artifact_hash, pass_timings=tuple(unit.timings),
    )


class PassManager:
    """Runs a pass pipeline over a unit, timing each pass."""

    def __init__(self, passes: list[tuple[str, Pass]] | None = None) -> None:
        self.passes = default_passes() if passes is None else list(passes)

    def run(self, unit: CompileUnit) -> CompiledArtifact:
        for walked, group in groupby(self.passes, lambda p: hasattr(p[1], "share")):
            group = list(group)
            if walked:  # adjacent shares: one walk
                seconds = ShadowWalk(unit).run([fn.share for _, fn in group])
            else:
                seconds = [_timed(name, fn, unit) for name, fn in group]
            unit.timings += [
                PassTiming(name, s * 1e9) for (name, _), s in zip(group, seconds)
            ]
        return finish(unit)


def _timed(name: str, fn: Pass, unit: CompileUnit) -> float:
    begin = time.perf_counter()
    try:
        fn(unit)
    except CompileError:
        raise
    except Exception as exc:  # diagnostic context for pass bugs
        raise CompileError(f"pass crashed: {exc}", pass_name=name) from exc
    return time.perf_counter() - begin
