"""Typed IR of the configuration compiler (a CGRA toolchain's mid-end,
cf. "Evaluation of CGRA Toolchains", Walter et al. 2025):

1. :class:`KernelGraph` — *what* the kernel needs: the processes (tile
   programs) it fires and its link and memory demands (charged ICAP
   images vs. free host pokes) per tile, read from the plan's epochs.
2. :class:`EpochPlan` — *where and when*: the placed, ordered epoch
   schedule, split into a one-time ``setup`` prologue, an
   :class:`InputPort` binding per-work-item payloads late, and the
   per-item ``body``.  Two plans with the same
   :func:`repro.compile.hashing.plan_hash` are interchangeable.
3. :class:`CompiledArtifact` — the executable product: predecoded tile
   programs, per-epoch cold bitstream deltas and switch pieces (Eq. 1's
   term-B oracle, priced on demand), the derived epoch plan, the content
   hash and per-pass timings.

Epoch *templates* are tagless; :meth:`CompiledArtifact.bind` prefixes a
per-work-item tag and attaches the payload's input pokes without
mutating them, so one artifact serves any number of consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Any, Callable

from repro.errors import CompileError
from repro.fabric.bitstream import ReconfigKind
from repro.fabric.links import Direction
from repro.fabric.predecode import predecode
from repro.fabric.reconfig import FabricShadow, ReconfigTransaction, plan_delta
from repro.fabric.rtms import BoundEpoch, EpochSpec
from repro.units import DATA_MEM_WORDS

__all__ = [
    "Coord",
    "ProcessNode",
    "LinkDemand",
    "MemoryDemand",
    "KernelGraph",
    "FrozenImage",
    "InputPort",
    "EpochPlan",
    "PassTiming",
    "SwitchPieces",
    "DerivedEpoch",
    "DerivedPlan",
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


def _by_program(spec: EpochSpec) -> list[tuple[Any, list[Coord]]]:
    """An epoch's programs with the coordinates each is placed on."""
    groups: dict[int, tuple[Any, list[Coord]]] = {}
    for coord, program in spec.programs.items():
        groups.setdefault(id(program), (program, []))[1].append(coord)
    return list(groups.values())


@dataclass(frozen=True)
class KernelGraph:
    """Processes plus data/link demands of one kernel configuration.

    The demands are read from the plan's own epochs (``epochs``, in
    emission order) when first asked for, so a cold compile that never
    looks at them does not build them; a pickled graph carries them
    instead of the epochs.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]
    rows: int
    cols: int
    epochs: tuple[EpochSpec, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def processes(self) -> tuple[ProcessNode, ...]:
        return tuple(
            ProcessNode(program.name, spec.name, tuple(sorted(coords)),
                        program.imem_words)
            for spec in self.epochs for program, coords in _by_program(spec)
        )

    @cached_property
    def links(self) -> tuple[LinkDemand, ...]:
        return tuple(LinkDemand(coord, direction, spec.name)
                     for spec in self.epochs
                     for coord, direction in spec.links.items())

    @cached_property
    def memory(self) -> tuple[MemoryDemand, ...]:
        out: list[MemoryDemand] = []
        for spec in self.epochs:
            for program, coords in _by_program(spec):
                if program.data_image:
                    words = len(program.data_image)
                    out += [MemoryDemand(c, words, spec.name, True) for c in coords]
            for images, charged in ((spec.data_images, True), (spec.pokes, False)):
                out += [MemoryDemand(c, len(image), spec.name, charged)
                        for c, image in images.items()]
        return tuple(out)

    def __getstate__(self) -> dict:
        return {"kind": self.kind, "params": self.params, "rows": self.rows,
                "cols": self.cols, "processes": self.processes,
                "links": self.links, "memory": self.memory}

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

def _frozen(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is immutable")


class FrozenImage(dict):
    """A data or poke image (``{addr: word}``) in canonical form, built
    once by a lowering.  Construction checks exact ``int`` addresses
    inside the data memory and exact ``int`` words (``bool`` and numpy
    integers are a :class:`CompileError`) and orders the items by
    address, so ``validate-memory`` trusts it and the hash splices
    :meth:`canonical`.  It equals, and in a pickled plan is, a ``dict``.
    """

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen

    def __init__(self, items=()) -> None:
        dict.__init__(self, items)
        if not set(map(type, self)).union(map(type, self.values())) <= {int}:
            raise CompileError("a FrozenImage maps int addresses to int words")
        addrs = sorted(self)
        if addrs and not (addrs[0] >= 0 and addrs[-1] < DATA_MEM_WORDS):
            raise CompileError(f"FrozenImage address outside the "
                               f"{DATA_MEM_WORDS}-word data memory")
        if addrs != list(self):
            items = sorted(self.items())
            dict.clear(self)
            dict.update(self, items)

    def __reduce__(self):
        return FrozenImage, (tuple(self.items()),)

    def canonical(self) -> bytes:
        """The image's canonical hash encoding (that of the equal
        ``dict``), built on each call: it is not kept on the plan."""
        return b"m%d:" % len(self) + (b"i%d;i%d;" * len(self)) % tuple(
            chain.from_iterable(self.items()))


def _plain(spec: EpochSpec) -> EpochSpec:
    """``spec`` with each frozen image as a plain dict of its own."""
    def plain(images: dict) -> dict:
        return {c: dict(i) if type(i) is FrozenImage else i
                for c, i in images.items()}
    if not any(type(i) is FrozenImage
               for i in chain(spec.data_images.values(), spec.pokes.values())):
        return spec
    return replace(spec, data_images=plain(spec.data_images), pokes=plain(spec.pokes))


#: signature tag -> factory rebuilding the encoder from the signature.
_PORT_ENCODERS: dict[str, Callable[[tuple], Callable]] = {}


def register_port_encoder(
    tag: str, factory: Callable[[tuple], Callable]
) -> None:
    """Register an encoder factory for one input-port signature tag.

    Encoders are unpicklable closures; the disk tier persists the port's
    static *signature* and rebuilds the encoder through the factory
    registered for ``signature[0]``.  Lowerings build their live encoders
    through the same factory: one encoding implementation per tag.
    """
    _PORT_ENCODERS[tag] = factory


def rebuild_port_encoder(signature: tuple) -> Callable:
    """The encoder for ``signature``, importing kernel frontends if needed;
    a ``CompileError(pass_name="frontend")`` when no registered frontend
    provides the tag (a disk-cached artifact of an unknown kernel).
    """
    if not signature:
        raise CompileError(
            "cannot rebuild an input-port encoder without a signature",
            pass_name="frontend",
        )
    tag = signature[0]
    if tag not in _PORT_ENCODERS:
        # A disk load in a fresh process may get here before any
        # lowering module registered its factory.
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

    def __getstate__(self) -> dict:
        """Frozen images pickle as plain dicts, one per use (a lowering
        shares equal ones): the bytes do not depend on the image type."""
        state = dict(self.__dict__)
        for key in ("setup", "body"):
            state[key] = tuple(map(_plain, state[key]))
        return state


# ---------------------------------------------------------------------------
# the artifact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one compiler pass (demo / bench diagnostics)."""

    name: str
    wall_ns: float


#: What one epoch transfers when it runs: its program loads ``(coord,
#: program, ns)`` in coordinate order, the durations of its charged data
#: images, and its link targets (the epoch's own ``links``; each charges
#: the same ``L``, so their order does not matter).
SwitchPieces = tuple[
    tuple[tuple[Coord, Any, float], ...],
    tuple[float, ...],
    dict[Coord, Direction | None],
]


@dataclass(slots=True)
class DerivedEpoch(ReconfigTransaction):
    """One bound epoch of a :class:`DerivedPlan`: the transaction the
    planner would emit, and each run tile's ``(program, decoded, base)``
    (``None``: no program selected)."""

    runs: tuple = ()


def _sorted_items(spec: EpochSpec) -> tuple[list, list, list]:
    return (sorted(spec.programs.items()), sorted(spec.data_images.items()),
            sorted(spec.links.items()))


class _Walk:
    """Epochs walked over a :class:`~repro.fabric.reconfig.FabricShadow`,
    with each tile's selected program and the run facts made so far (one
    tuple per program and base, shared by every epoch that runs it)."""

    def __init__(self) -> None:
        self.shadow = FabricShadow()
        self.selected: dict[Coord, Any] = {}
        self.facts: dict[tuple, tuple] = {}

    def epoch(self, spec: EpochSpec, items: tuple | None = None) -> DerivedEpoch:
        """``items``: :func:`_sorted_items` of ``spec``, if already made."""
        shadow, selected, facts = self.shadow, self.selected, self.facts
        ops = plan_delta(shadow, *(items or _sorted_items(spec)))
        shadow.apply(ops)
        for kind, coord, _, _, target in ops:
            if kind is ReconfigKind.IMEM:
                selected[coord] = target  # a fresh install selects its program
        runs = []
        for coord in spec.run:
            program = spec.programs.get(coord)
            if program is None:
                program = selected.get(coord)
            else:
                selected[coord] = program  # the epoch starts it
            entry = shadow.resident.get(coord)
            entry = None if entry is None else entry.get(id(program))
            if entry is None:
                runs.append(None)
                continue
            key = (id(program), entry[1])
            fact = facts.get(key)
            if fact is None:
                fact = facts[key] = (program, predecode(program), entry[1])
            runs.append(fact)
        return DerivedEpoch(ops, tuple(runs))


@dataclass(eq=False)
class DerivedPlan:
    """What each job of an artifact does to a fabric, derived from its
    :class:`EpochPlan` alone (DESIGN §16 "Lowered plans") by the
    ``cold-deltas`` share of the compile's shadow walk: each transaction
    is the one ``ReconfigPlanner.plan`` emits on a live mesh.

    ``specs`` are a job's epoch templates by bound index (the input
    port's as an epoch without pokes); ``coords`` the tiles whose
    programs or links the plan sets.  ``cold`` starts where the setup
    prologue leaves the fabric, ``resident`` where one job leaves it
    (``end``; derived at first use, ``None`` unless a second job ends
    there too).  Each is ``(state, epochs)``: the guard,
    ``FabricShadow.state(coords)``, and a :class:`DerivedEpoch` per bound
    epoch.  ``code`` caches ``RuntimeManager``'s epoch functions, one
    code list per start (``True``: resident).
    """

    plan: "EpochPlan"
    specs: tuple
    coords: tuple
    cold: tuple
    end: tuple
    code: dict = field(default_factory=dict)

    @cached_property
    def resident(self) -> tuple | None:
        walk = _Walk()
        for spec in (*self.plan.setup, *self.specs):
            walk.epoch(spec)
        epochs = tuple(map(walk.epoch, self.specs))
        if walk.shadow.state(self.coords) != self.end:
            return None
        return self.end, epochs


@dataclass
class CompiledArtifact:
    """The executable product of one compile.

    ``programs``/``decoded``: every distinct tile program in first-use
    order with its predecoded table.  ``switch_pieces``: per entry of
    ``epoch_names``, what that epoch transfers (:meth:`switch_cost_ns`
    prices a pair from them).  ``cold_bytes``/``cold_link_changes``: the
    per-epoch bitstream deltas a cold fabric streams.  ``epoch_plan``:
    the :class:`DerivedPlan` a runtime manager runs jobs from.
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
    epoch_plan: DerivedPlan | None = field(default=None, repr=False, compare=False)

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
        validates it); a plan without one rejects payloads.  ``tag``
        prefixes every epoch name.  The :class:`BoundEpoch` s share every
        dict and list with the plan's templates and carry the job
        identity a runtime manager runs the derived plan by.
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
        for coord, direction in targets.items():
            if links.get(coord) != direction:
                total += link_cost_ns
        return total

    @property
    def switch_table(self) -> tuple[tuple[float, ...], ...]:
        """Every pair of :meth:`switch_cost_ns` (``table[i][j]``), built on
        each access; a scheduler prices only the pairs it needs."""
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
        """Drop the decoded tables (their trace functions do not pickle),
        the switch pieces and the epoch plan (its key too); the disk
        loader re-derives them (``ArtifactCache._disk_load``)."""
        state = dict(self.__dict__)
        state["decoded"] = ()
        state["switch_pieces"] = ()
        state.pop("epoch_plan", None)
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
    """Collects the epochs of one emission stream.

    Frontends call :meth:`emit` per epoch; the :class:`KernelGraph` reads
    its demands from the emitted epochs themselves — one source of truth,
    no drift between graph and schedule.
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
        self._emitted: list[EpochSpec] = []
        self._input: InputPort | None = None

    def emit(self, spec: EpochSpec) -> None:
        """Append one body epoch."""
        self._emitted.append(spec)
        self._body.append(spec)

    def emit_setup(self, spec: EpochSpec) -> None:
        """Append one setup (cold prologue) epoch."""
        self._emitted.append(spec)
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
            epochs=tuple(self._emitted),
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
