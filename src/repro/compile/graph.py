"""The user-facing dataflow frontend: kernels as process networks.

A :class:`DataflowGraph` holds :class:`Process` nodes (each one epoch's
worth of tile programs / link plan / memory images, annotated with a
cycle cost and a memory footprint) and explicit edges, and
:meth:`DataflowGraph.lower` replays them through
:class:`~repro.compile.ir.IRBuilder` into the ``(KernelGraph,
EpochPlan)`` pair the 8-pass pipeline compiles.

* **Byte stability.**  A process' :class:`~repro.fabric.rtms.EpochSpec`
  flows into the plan untouched, in insertion order, so a kernel
  re-expressed here keeps its :func:`~repro.compile.hashing.plan_hash`
  (the pinned-hash tests enforce this).
* **Validated order.**  An edge whose head fires before its tail is a
  schedule bug and raises :class:`~repro.errors.CompileError` at
  :meth:`lower` time (pass name ``"frontend"``).

Edges also feed the static cost model
(:meth:`DataflowGraph.critical_path_cycles`,
:meth:`DataflowGraph.memory_words`) a user consults before compiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import CompileError
from repro.fabric.links import Direction
from repro.fabric.rtms import EpochSpec
from repro.compile.ir import (
    Coord,
    EpochPlan,
    InputPort,
    IRBuilder,
    KernelGraph,
    rebuild_port_encoder,
)

__all__ = ["Process", "DataflowGraph"]


@dataclass(frozen=True)
class Process:
    """One node of the network: a named firing with its tile payload.

    ``spec`` is the epoch the process contributes to the plan; ``cycles``
    is the caller's per-firing cycle estimate (0 = derive one from the
    instruction words, see :meth:`DataflowGraph.process_cycles`);
    ``setup`` marks one-time cold-prologue firings (charged through the
    ICAP once per fabric, not per work item).
    """

    name: str
    spec: EpochSpec
    index: int
    cycles: int = 0
    setup: bool = False

    @property
    def coords(self) -> tuple[Coord, ...]:
        """Every tile this process touches."""
        touched: set[Coord] = set()
        touched.update(self.spec.programs)
        touched.update(self.spec.data_images)
        touched.update(self.spec.pokes)
        touched.update(self.spec.links)
        return tuple(sorted(touched))


class DataflowGraph:
    """A kernel as data: processes, edges, one optional input port.

    Add processes in firing order (the insertion order *is* the schedule;
    edges validate it, never derive it), then :meth:`lower`.
    """

    def __init__(
        self,
        kind: str,
        params: Mapping[str, Any],
        rows: int,
        cols: int,
        link_cost_ns: float = 0.0,
    ) -> None:
        if rows < 1 or cols < 1:
            raise CompileError(
                f"mesh must be at least 1x1, got {rows}x{cols}",
                pass_name="frontend",
            )
        self.kind = kind
        self.params = dict(params)
        self.rows = rows
        self.cols = cols
        self.link_cost_ns = float(link_cost_ns)
        self._tiles = {(r, c) for r in range(rows) for c in range(cols)}
        self._processes: list[Process] = []
        self._by_name: dict[str, Process] = {}
        self._edges: list[tuple[str, str]] = []
        self._input: InputPort | None = None

    # -- construction ----------------------------------------------------

    def add_process(
        self,
        name: str,
        *,
        spec: EpochSpec | None = None,
        programs: Mapping[Coord, Any] | None = None,
        links: Mapping[Coord, Direction] | None = None,
        data_images: Mapping[Coord, Mapping[int, int]] | None = None,
        pokes: Mapping[Coord, Mapping[int, int]] | None = None,
        run: Iterable[Coord] | None = None,
        depends_on: Iterable[Coord] | None = None,
        cycles: int = 0,
        setup: bool = False,
        after: Iterable[Process | str] | Process | str | None = None,
    ) -> Process:
        """Add one process (one epoch's worth of fabric work).

        Either pass a prebuilt ``spec`` (its name must match) or the
        epoch fields directly.  ``after`` declares dataflow edges from
        earlier processes; edges never reorder anything — they are
        checked against the insertion order at :meth:`lower` time.
        """
        if name in self._by_name:
            raise CompileError(
                f"duplicate process name {name!r}", pass_name="frontend"
            )
        if spec is not None:
            if spec.name != name:
                raise CompileError(
                    f"process {name!r} wraps an epoch named {spec.name!r}",
                    pass_name="frontend",
                )
            if any(
                x is not None
                for x in (programs, links, data_images, pokes, run, depends_on)
            ):
                raise CompileError(
                    f"process {name!r}: pass either spec= or epoch fields, "
                    f"not both",
                    pass_name="frontend",
                )
        else:
            spec = EpochSpec(
                name=name,
                links=dict(links) if links else {},
                programs=dict(programs) if programs else {},
                data_images={c: dict(i) for c, i in data_images.items()}
                if data_images
                else {},
                pokes={c: dict(i) for c, i in pokes.items()} if pokes else {},
                run=list(run) if run else [],
                depends_on=list(depends_on) if depends_on else [],
            )
        process = Process(
            name=name,
            spec=spec,
            index=len(self._processes),
            cycles=int(cycles),
            setup=bool(setup),
        )
        self._check_coords(process)
        self._processes.append(process)
        self._by_name[name] = process
        if after is not None:
            if isinstance(after, (Process, str)):
                after = [after]
            for upstream in after:
                self.connect(upstream, process)
        return process

    def connect(
        self, src: Process | str, dst: Process | str
    ) -> tuple[str, str]:
        """Declare a dataflow edge ``src -> dst`` (data produced by
        ``src`` is consumed by ``dst``)."""
        edge = (self._name_of(src), self._name_of(dst))
        self._edges.append(edge)
        return edge

    def set_input(
        self,
        name: str,
        signature: tuple,
        depends_on: Iterable[Coord] = (),
    ) -> InputPort:
        """Declare the late-bound payload port.

        The encoder is rebuilt from ``signature`` through the factory
        registered for ``signature[0]`` (see
        :func:`repro.compile.ir.register_port_encoder`) — the same path
        the artifact cache's disk tier uses, so a graph-built port and a
        disk-restored one are literally the same encoder.
        """
        if self._input is not None:
            raise CompileError(
                f"graph {self.kind!r} already has input port "
                f"{self._input.name!r}",
                pass_name="frontend",
            )
        port = InputPort(
            name=name,
            encoder=rebuild_port_encoder(signature),
            depends_on=tuple(depends_on),
            signature=signature,
        )
        self._input = port
        return port

    # -- inspection ------------------------------------------------------

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._edges)

    @property
    def input_port(self) -> InputPort | None:
        return self._input

    def process_cycles(self, process: Process | str) -> int:
        """Per-firing cycle estimate of one process.

        The caller-provided ``cycles`` when given; otherwise the summed
        instruction words of the firing's programs (every instruction is
        one 2.5 ns tile cycle, so a straight-line program's word count
        *is* its cycle count and a looped program's is a floor).
        """
        process = self._resolve(process)
        if process.cycles:
            return process.cycles
        return sum(
            program.imem_words for program in process.spec.programs.values()
        )

    def memory_words(self, process: Process | str) -> dict[Coord, int]:
        """Data-memory words this process writes, per tile (charged
        images, host pokes and program ``.var`` footprints alike)."""
        process = self._resolve(process)
        words: dict[Coord, int] = {}
        spec = process.spec
        for coord, image in spec.data_images.items():
            words[coord] = words.get(coord, 0) + len(image)
        for coord, image in spec.pokes.items():
            words[coord] = words.get(coord, 0) + len(image)
        for coord, program in spec.programs.items():
            if program.data_image:
                words[coord] = words.get(coord, 0) + len(program.data_image)
        return words

    def critical_path_cycles(self) -> int:
        """Longest cycle-weighted path through the edge DAG.

        Processes nobody connected count as their own single-node paths,
        so a graph without edges degrades to ``max`` over processes.
        """
        longest: dict[str, int] = {}
        for process in self._processes:  # insertion order = topo order
            cost = self.process_cycles(process)
            longest[process.name] = cost
        for src, dst in self._sorted_edges():
            candidate = longest[src] + self.process_cycles(dst)
            if candidate > longest[dst]:
                longest[dst] = candidate
        return max(longest.values(), default=0)

    def total_cycles(self) -> int:
        """Summed cycle estimate over every process (sequential bound)."""
        return sum(self.process_cycles(p) for p in self._processes)

    # -- lowering --------------------------------------------------------

    def validate(self) -> None:
        """Frontend-level checks, before the pass pipeline's own.

        * every edge endpoint names a known process;
        * every edge runs forward in firing order (the insertion order is
          the schedule; a backward or self edge would be a cycle).

        Tile coordinates were checked by :meth:`add_process`, and the
        pass pipeline checks every one again.
        """
        for src, dst in self._edges:
            for endpoint in (src, dst):
                if endpoint not in self._by_name:
                    raise CompileError(
                        f"edge ({src!r} -> {dst!r}) references unknown "
                        f"process {endpoint!r}",
                        pass_name="frontend",
                    )
            if self._by_name[src].index >= self._by_name[dst].index:
                raise CompileError(
                    f"edge ({src!r} -> {dst!r}) runs against the firing "
                    f"order — processes fire in insertion order",
                    pass_name="frontend",
                )

    def lower(self) -> tuple[KernelGraph, EpochPlan]:
        """Replay the network through :class:`IRBuilder`.

        Setup processes become the plan's cold prologue (in insertion
        order), everything else the per-work-item body (ditto); the
        input port carries over as-is.  The emitted epochs are the
        processes' own :class:`EpochSpec` objects — untouched, which is
        the byte-stability guarantee the pinned-hash tests pin.
        """
        self.validate()
        builder = IRBuilder(
            kind=self.kind,
            params=self.params,
            rows=self.rows,
            cols=self.cols,
            link_cost_ns=self.link_cost_ns,
        )
        if self._input is not None:
            builder.set_input(self._input)
        for process in self._processes:
            if process.setup:
                builder.emit_setup(process.spec)
            else:
                builder.emit(process.spec)
        return builder.graph(), builder.plan()

    # -- internals -------------------------------------------------------

    def _name_of(self, process: Process | str) -> str:
        return process.name if isinstance(process, Process) else process

    def _resolve(self, process: Process | str) -> Process:
        name = self._name_of(process)
        found = self._by_name.get(name)
        if found is None:
            raise CompileError(
                f"unknown process {name!r}", pass_name="frontend"
            )
        return found

    def _sorted_edges(self) -> list[tuple[str, str]]:
        """Edges in tail-firing order (safe for one-pass relaxation)."""
        return sorted(self._edges, key=lambda e: self._by_name[e[0]].index)

    def _check_coords(self, process: Process) -> None:
        spec = process.spec
        if all(map(self._tiles.issuperset, (spec.programs, spec.data_images,
                                             spec.pokes, spec.links))):
            return
        for coord in process.coords:
            row, col = coord
            if not (0 <= row < self.rows and 0 <= col < self.cols):
                raise CompileError(
                    f"tile {coord} outside the {self.rows}x{self.cols} mesh",
                    pass_name="frontend",
                    epoch=process.name,
                    coord=coord,
                )
