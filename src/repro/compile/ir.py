"""Typed IR of the configuration compiler.

The pipeline mirrors what a CGRA toolchain calls its mid-end
(cf. "Evaluation of CGRA Toolchains", Walter et al. 2025):

1. :class:`KernelGraph` — *what* the kernel needs: the processes
   (tile programs) it fires, the inter-tile link demands its copy
   processes rely on, and the memory demands (charged ICAP images vs.
   free host pokes) per tile.  Frontends record these demands while
   lowering, so the graph is a faithful summary of the plan it ships
   with — validation passes consume it to prove fabric-rule compliance
   before anything executes.
2. :class:`EpochPlan` — *where and when*: the placed, ordered epoch
   schedule (placement, link plan, memory images, copy insertions),
   split into a one-time ``setup`` prologue, an :class:`InputPort` that
   binds per-work-item payloads late, and the structural per-item
   ``body``.  The plan is the unit of content addressing: two plans
   with the same :func:`repro.compile.hashing.plan_hash` are
   interchangeable.
3. :class:`CompiledArtifact` — the executable product: eagerly
   predecoded tile programs, per-epoch cold bitstream deltas, and the
   per-epoch transfer pieces the pairwise switch-cost table (Eq. 1's
   term-B oracle) is priced from on demand, plus the content hash and
   per-pass timings.

Epoch *templates* in a plan are tagless; :meth:`CompiledArtifact.bind`
prefixes a per-work-item tag (the streaming/serving discipline the FFT
runner and kernel sessions already used) and attaches the payload's
input pokes.  Binding never mutates the template, so one artifact serves
any number of concurrent consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CompileError
from repro.fabric.links import Direction
from repro.fabric.rtms import BoundEpoch, EpochSpec

__all__ = [
    "Coord",
    "ProcessNode",
    "LinkDemand",
    "MemoryDemand",
    "KernelGraph",
    "InputPort",
    "EpochPlan",
    "PassTiming",
    "SwitchPieces",
    "CompiledArtifact",
    "IRBuilder",
    "register_port_encoder",
    "rebuild_port_encoder",
]

Coord = tuple[int, int]


# ---------------------------------------------------------------------------
# the demand graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessNode:
    """One process firing: a tile program placed on a set of tiles.

    ``epoch`` names the epoch the firing belongs to; ``imem_words`` is
    the instruction-memory demand the budget pass checks.
    """

    program: str
    epoch: str
    coords: tuple[Coord, ...]
    imem_words: int


@dataclass(frozen=True)
class LinkDemand:
    """A copy process' demand for one tile's outgoing write port."""

    coord: Coord
    direction: Direction | None
    epoch: str


@dataclass(frozen=True)
class MemoryDemand:
    """Data words an epoch writes into one tile.

    ``charged`` distinguishes ICAP-billed images (``data_images`` and
    program ``.var`` images) from free host pokes.
    """

    coord: Coord
    words: int
    epoch: str
    charged: bool


@dataclass(frozen=True)
class KernelGraph:
    """Processes plus data/link demands of one kernel configuration."""

    kind: str
    params: tuple[tuple[str, Any], ...]
    rows: int
    cols: int
    processes: tuple[ProcessNode, ...] = ()
    links: tuple[LinkDemand, ...] = ()
    memory: tuple[MemoryDemand, ...] = ()

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def programs(self) -> dict[str, int]:
        """Distinct program names -> instruction-memory words."""
        out: dict[str, int] = {}
        for node in self.processes:
            out[node.program] = node.imem_words
        return out

    def charged_words(self) -> dict[Coord, int]:
        """Total ICAP-charged data words per tile (budget analysis)."""
        out: dict[Coord, int] = {}
        for demand in self.memory:
            if demand.charged:
                out[demand.coord] = out.get(demand.coord, 0) + demand.words
        return out

    def imem_pressure(self) -> dict[Coord, int]:
        """Distinct resident instruction words per tile.

        Exceeding the 512-word instruction memory is *legal* (the tile
        evicts wholesale) but defeats pinning; the demo surfaces this as
        a diagnostic rather than an error.
        """
        seen: dict[Coord, set[str]] = {}
        words: dict[Coord, int] = {}
        for node in self.processes:
            for coord in node.coords:
                names = seen.setdefault(coord, set())
                if node.program not in names:
                    names.add(node.program)
                    words[coord] = words.get(coord, 0) + node.imem_words
        return words


# ---------------------------------------------------------------------------
# the placed plan
# ---------------------------------------------------------------------------

#: signature tag -> factory rebuilding the encoder from the signature.
_PORT_ENCODERS: dict[str, Callable[[tuple], Callable]] = {}


def register_port_encoder(
    tag: str, factory: Callable[[tuple], Callable]
) -> None:
    """Register an encoder factory for one input-port signature tag.

    Encoders are closures and therefore unpicklable; the disk tier of
    the artifact cache instead persists the port's static *signature*
    and rebuilds the encoder on load through the factory registered for
    ``signature[0]``.  Kernel lowerings register their factories at
    import time and construct their live encoders through the same
    factory, so there is exactly one encoding implementation per tag.
    """
    _PORT_ENCODERS[tag] = factory


def rebuild_port_encoder(signature: tuple) -> Callable:
    """The encoder for ``signature``, importing kernel frontends if needed.

    Raises a typed ``CompileError(pass_name="frontend")`` when no
    registered frontend provides the tag — the error a disk-cached
    artifact surfaces when it references a kernel this process never
    registered (e.g. a cache directory shared with a build that carried
    an out-of-tree kernel).
    """
    if not signature:
        raise CompileError(
            "cannot rebuild an input-port encoder without a signature",
            pass_name="frontend",
        )
    tag = signature[0]
    if tag not in _PORT_ENCODERS:
        # The factories live with the kernel lowerings; a disk load in a
        # fresh process may reach here before any frontend ran.  The
        # registry knows every built-in lowering module, so new kernels
        # need no edit here.
        from repro.compile.frontends import import_all_frontends

        import_all_frontends()
    factory = _PORT_ENCODERS.get(tag)
    if factory is None:
        raise CompileError(
            f"no registered input-port encoder for signature tag {tag!r} "
            f"(registered: {sorted(_PORT_ENCODERS) or 'none'}); register "
            f"the kernel frontend that owns it before loading this "
            f"artifact",
            pass_name="frontend",
        )
    return factory(signature)


@dataclass(frozen=True)
class InputPort:
    """Late-bound payload entry of a plan.

    ``encoder`` validates one payload and returns the host-poke image
    (``{coord: {addr: word}}``) of the input epoch; ``signature`` is the
    static description hashed in place of the (uncallable) encoder —
    and, via :func:`register_port_encoder`, the recipe the disk store
    rebuilds the encoder from.
    """

    name: str
    encoder: Callable[[Any], dict[Coord, dict[int, int]]]
    depends_on: tuple[Coord, ...] = ()
    signature: tuple = ()

    def bind(self, payload: Any, tag: str = "") -> EpochSpec:
        return EpochSpec(
            name=f"{tag}{self.name}",
            pokes=self.encoder(payload),
            depends_on=list(self.depends_on),
        )

    # -- pickling (the optional on-disk store) ---------------------------

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "encoder": None,  # closures don't pickle; see signature
            "depends_on": self.depends_on,
            "signature": self.signature,
        }

    def __setstate__(self, state: dict) -> None:
        if state.get("encoder") is None:
            state = dict(state)
            state["encoder"] = rebuild_port_encoder(state["signature"])
        for key, value in state.items():
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class EpochPlan:
    """A placed configuration: setup prologue, input port, epoch body.

    ``params`` are the semantic compile parameters (sorted key/value
    pairs) — together with the lowered epochs they define the plan's
    content hash.  ``link_cost_ns`` is part of the identity because the
    switch-cost table depends on it.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]
    rows: int
    cols: int
    link_cost_ns: float
    setup: tuple[EpochSpec, ...] = ()
    input_port: InputPort | None = None
    body: tuple[EpochSpec, ...] = ()

    @property
    def epochs(self) -> tuple[EpochSpec, ...]:
        """Every compile-time epoch (setup then body; input is late-bound)."""
        return self.setup + self.body

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


# ---------------------------------------------------------------------------
# the artifact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one compiler pass (demo / bench diagnostics)."""

    name: str
    wall_ns: float


#: What one epoch transfers when it runs: its program loads ``(coord,
#: program, ns)`` and link targets ``(coord, direction)`` in coordinate
#: order, and the durations of its charged data images.
SwitchPieces = tuple[
    tuple[tuple[Coord, Any, float], ...],
    tuple[float, ...],
    tuple[tuple[Coord, Direction | None], ...],
]


@dataclass
class CompiledArtifact:
    """The executable product of one compile.

    ``programs``/``decoded`` hold every distinct tile program of the
    plan in first-use order with its eagerly predecoded fast-path table
    (no lazy per-tile decode on the first work item).
    ``switch_pieces`` records, per entry of ``epoch_names``, what that
    epoch transfers (see :func:`repro.compile.passes.switch_table_pass`);
    :meth:`switch_cost_ns` prices one pair of the reconfiguration-cost
    oracle from them.  ``cold_bytes``/``cold_link_changes`` are the
    per-epoch bitstream deltas a cold fabric streams.  ``artifact_hash``
    is the content address.
    """

    plan: EpochPlan
    graph: KernelGraph
    programs: tuple = ()  # tuple[Program, ...] (kept loose for pickling)
    decoded: tuple = ()  # parallel tuple[DecodedProgram, ...]
    epoch_names: tuple[str, ...] = ()
    switch_pieces: tuple[SwitchPieces, ...] = ()
    cold_bytes: tuple[int, ...] = ()
    cold_link_changes: tuple[int, ...] = ()
    artifact_hash: str = ""
    pass_timings: tuple[PassTiming, ...] = ()

    # -- execution-facing API -------------------------------------------

    @property
    def kind(self) -> str:
        return self.plan.kind

    @property
    def rows(self) -> int:
        return self.plan.rows

    @property
    def cols(self) -> int:
        return self.plan.cols

    def setup_epochs(self) -> list[EpochSpec]:
        """The one-time cold prologue (static data / program pinning)."""
        return list(self.plan.setup)

    def bind(self, payload: Any = None, tag: str = "") -> list[EpochSpec]:
        """The concrete epoch list of one work item.

        A plan with an :class:`InputPort` requires a payload (its encoder
        validates shape/headroom exactly as the legacy runners did); a
        plan without one rejects payloads.  ``tag`` prefixes every epoch
        name — the per-job/per-transform labelling the streaming and
        serving layers use.  The epochs are :class:`BoundEpoch` s: they
        share every dict and list with the plan's templates, and carry
        the job identity a runtime manager replays its lowered plan by.
        """
        port = self.plan.input_port
        body = self.plan.body
        if port is not None:
            if payload is None:
                raise CompileError(
                    f"plan {self.plan.kind!r} has input port {port.name!r}; "
                    f"bind() needs a payload"
                )
            job = (self, len(body) + 1)
            first = port.bind(payload, tag)
            epochs = [BoundEpoch.of(first, first.name, job, 0)]
        elif payload is not None:
            raise CompileError(
                f"plan {self.plan.kind!r} has no input port; "
                f"bind() got an unexpected payload"
            )
        else:
            job = (self, len(body))
            epochs = []
        epochs += [
            BoundEpoch.of(spec, tag + spec.name, job, index)
            for index, spec in enumerate(body, len(epochs))
        ]
        return epochs

    def pin_epochs(self) -> list[EpochSpec]:
        """Program-residency epochs: the body's loads stripped of
        data/links/run — what a warm switch-cost probe prices."""
        return [
            EpochSpec(name=spec.name, programs=dict(spec.programs))
            for spec in self.plan.epochs
            if spec.programs
        ]

    def switch_cost_ns(self, i: int, j: int) -> float:
        """Marginal cost of epoch ``j`` right after epoch ``i``.

        A fresh fabric right after ``i`` holds one program per tile and
        the links ``i`` configured; ``j``'s pieces are charged against
        that state in the order the planner charges them (loads, images,
        links), so the float is bit-identical to the runtime's.
        """
        previous = self.plan.epochs[i]
        resident, links = previous.programs, previous.links
        loads, images, targets = self.switch_pieces[j]
        link_cost_ns = self.plan.link_cost_ns
        total = 0.0
        for coord, program, ns in loads:
            if resident.get(coord) is not program:
                total += ns
        for ns in images:
            total += ns
        for coord, direction in targets:
            if links.get(coord) != direction:
                total += link_cost_ns
        return total

    @property
    def switch_table(self) -> tuple[tuple[float, ...], ...]:
        """Every pair of :meth:`switch_cost_ns`: ``table[i][j]``.

        Built on each access (E² entries) for callers that want the
        whole table; a scheduler prices only the pairs it needs.
        """
        n = len(self.switch_pieces)
        return tuple(
            tuple(self.switch_cost_ns(i, j) for j in range(n))
            for i in range(n)
        )

    @property
    def total_cold_bytes(self) -> int:
        """Bitstream bytes a cold fabric streams for setup + one item."""
        return sum(self.cold_bytes)

    def decoded_for(self, program) -> Any:
        """The predecoded table of one of the artifact's programs."""
        for candidate, decoded in zip(self.programs, self.decoded):
            if candidate is program:
                return decoded
        raise CompileError(
            f"program {getattr(program, 'name', program)!r} is not part of "
            f"this artifact"
        )

    # -- pickling (the optional on-disk store) ---------------------------

    def __getstate__(self) -> dict:
        """Drop the unpicklable predecoded closures and the derived
        switch pieces; the disk loader re-runs the predecode and
        switch-table passes (see ``ArtifactCache._disk_load``)."""
        state = dict(self.__dict__)
        state["decoded"] = ()
        state["switch_pieces"] = ()
        return state

    def __setstate__(self, state: dict) -> None:
        # Disk entries written before the table was priced on demand
        # carry an eager ``switch_table``; the loader re-derives the
        # pieces instead.
        state = dict(state)
        state.pop("switch_table", None)
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# the builder frontends record demands through
# ---------------------------------------------------------------------------


class IRBuilder:
    """Collects epochs *and* their demand graph from one emission stream.

    Frontends call :meth:`emit` per epoch; the builder records the
    process/link/memory demands of each emission so the resulting
    :class:`KernelGraph` is exactly the demand summary of the plan —
    one source of truth, no drift between graph and schedule.
    """

    def __init__(self, kind: str, params: dict[str, Any], rows: int, cols: int,
                 link_cost_ns: float) -> None:
        self.kind = kind
        self.params = tuple(sorted(params.items()))
        self.rows = rows
        self.cols = cols
        self.link_cost_ns = link_cost_ns
        self._setup: list[EpochSpec] = []
        self._body: list[EpochSpec] = []
        self._input: InputPort | None = None
        self._processes: list[ProcessNode] = []
        self._links: list[LinkDemand] = []
        self._memory: list[MemoryDemand] = []

    # -- recording -------------------------------------------------------

    def _record(self, spec: EpochSpec) -> None:
        by_program: dict[int, tuple[Any, list[Coord]]] = {}
        for coord, program in spec.programs.items():
            entry = by_program.setdefault(id(program), (program, []))
            entry[1].append(coord)
        for program, coords in by_program.values():
            self._processes.append(
                ProcessNode(
                    program=program.name,
                    epoch=spec.name,
                    coords=tuple(sorted(coords)),
                    imem_words=program.imem_words,
                )
            )
            if program.data_image:
                for coord in coords:
                    self._memory.append(
                        MemoryDemand(coord, len(program.data_image),
                                     spec.name, charged=True)
                    )
        for coord, direction in spec.links.items():
            self._links.append(LinkDemand(coord, direction, spec.name))
        for coord, image in spec.data_images.items():
            self._memory.append(
                MemoryDemand(coord, len(image), spec.name, charged=True)
            )
        for coord, image in spec.pokes.items():
            self._memory.append(
                MemoryDemand(coord, len(image), spec.name, charged=False)
            )

    def emit(self, spec: EpochSpec) -> None:
        """Append one body epoch and record its demands."""
        self._record(spec)
        self._body.append(spec)

    def emit_setup(self, spec: EpochSpec) -> None:
        """Append one setup (cold prologue) epoch and record its demands."""
        self._record(spec)
        self._setup.append(spec)

    def set_input(self, port: InputPort) -> None:
        if self._input is not None:
            raise CompileError(f"plan {self.kind!r} already has an input port")
        self._input = port

    # -- products --------------------------------------------------------

    def graph(self) -> KernelGraph:
        return KernelGraph(
            kind=self.kind,
            params=self.params,
            rows=self.rows,
            cols=self.cols,
            processes=tuple(self._processes),
            links=tuple(self._links),
            memory=tuple(self._memory),
        )

    def plan(self) -> EpochPlan:
        return EpochPlan(
            kind=self.kind,
            params=self.params,
            rows=self.rows,
            cols=self.cols,
            link_cost_ns=self.link_cost_ns,
            setup=tuple(self._setup),
            input_port=self._input,
            body=tuple(self._body),
        )
