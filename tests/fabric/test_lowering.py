"""Trace lowering: a proven tile run as straight-line Python.

``predecode.footprint_for`` proves a run's control flow, addresses and
shift amounts independent of payload data and lowers the pinned trace;
``predecode.run_lowered`` executes it.  These tests hold the lowering to
the only oracle, ``Tile.step``:

* a hypothesis differential over random legal programs (counted loops,
  pointer walks, every ALU/unary op, neighbour stores, 48-bit wrap edges);
* the per-run eligibility checks — each fallback must leave the *same
  exception at the same pc with the same partial stats* as the reference;
* coverage: every registered kernel serves warm jobs with every tile run
  lowered and none fallen back;
* the chunk bound of the generated code.
"""

from __future__ import annotations

import dis
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, FaultError, LinkError
from repro.fabric import predecode as pd
from repro.fabric.assembler import assemble
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.simulator import run_concurrent
from repro.fabric.tile import Tile

# ---------------------------------------------------------------------------
# (a) hypothesis differential
# ---------------------------------------------------------------------------

DATA = 16  # dmem[0..16) is the payload window
_EDGES = (0, 1, -1, 2**47 - 1, -(2**47), 2**46, -(2**46) - 1)
VALS = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(min_value=-(2**47), max_value=2**47 - 1),
)
_BINARY = ("ADD", "SUB", "MUL", "AND", "OR", "XOR", "MIN", "MAX")
_SHIFTS = ("SHL", "SHR", "SRA")
_UNARY = ("MOV", "ABS", "NEG", "NOT")

_HEADER = """
.org 16
.var cnt
.var p
.var q
"""


@st.composite
def _operation(draw, sources):
    """One ALU/unary instruction; ``sources`` are the readable operands."""
    dst = draw(st.sampled_from([str(r) for r in range(DATA)] + ["@q"]))
    a = draw(st.sampled_from(sources))
    kind = draw(st.sampled_from(["bin", "un", "imm", "shift", "mulq"]))
    if kind == "bin":
        b = draw(st.sampled_from(sources))
        return f"{draw(st.sampled_from(_BINARY))} {dst}, {a}, {b}"
    if kind == "un":
        return f"{draw(st.sampled_from(_UNARY))} {dst}, {a}"
    if kind == "imm":
        return f"MOV {dst}, #{draw(VALS)}"
    if kind == "shift":
        amount = draw(st.integers(0, 47))
        return f"{draw(st.sampled_from(_SHIFTS))} {dst}, {a}, #{amount}"
    b = draw(st.sampled_from(sources))
    return f"MULQ {dst}, {a}, {b}, {draw(st.integers(1, 47))}"


@st.composite
def provable_programs(draw):
    """(initial payload, assembly): control never depends on the payload.

    Loop counters and pointers are set from immediates; payload words are
    only ever operands and destinations (directly or through a pointer).
    Control words may be *read* as data — the lowering folds them.
    """
    initial = draw(st.lists(VALS, min_size=DATA, max_size=DATA))
    direct = [str(r) for r in range(DATA)]
    lines = [_HEADER, "MOV p, #0", "MOV q, #0"]
    for index in range(draw(st.integers(1, 6))):
        segment = draw(st.sampled_from(["ops", "loop", "snb", "retarget"]))
        if segment == "ops":
            for _ in range(draw(st.integers(1, 5))):
                lines.append(draw(_operation(direct + ["cnt", "p", "@p"])))
        elif segment == "retarget":
            lines.append(f"MOV p, #{draw(st.integers(0, DATA - 1))}")
            lines.append(f"MOV q, #{draw(st.integers(0, DATA - 1))}")
        elif segment == "snb":
            lines.append(f"SNB.E {draw(st.integers(0, 511))}, "
                         f"{draw(st.sampled_from(direct + ['#7', 'cnt']))}")
        else:
            # long loops re-roll into a compiled loop, short ones unroll
            trips = draw(st.one_of(st.integers(1, 5), st.just(DATA)))
            lines.append(f"MOV cnt, #{trips}")
            lines.append(f"MOV p, #{draw(st.integers(0, DATA - trips))}")
            lines.append(f"MOV q, #{draw(st.integers(0, DATA - trips))}")
            lines.append(f"loop{index}:")
            for _ in range(draw(st.integers(1, 3))):
                lines.append(draw(_operation(direct + ["@p", "cnt"])))
            if draw(st.booleans()):
                lines.append("SNB.E @q, @p")
            lines += ["ADD p, p, #1", "ADD q, q, #1", "SUB cnt, cnt, #1",
                      f"BNZ cnt, loop{index}"]
    lines.append("HALT")
    return initial, "\n".join(lines)


def _pair_mesh(initial, program, link=Direction.EAST):
    mesh = Mesh(1, 2)
    mesh.configure_link((0, 0), link)
    west = mesh.tile((0, 0))
    for addr, value in enumerate(initial):
        west.dmem.poke(addr, value)
    west.load_program(program)
    for tile in mesh:
        tile.dmem.reset_counters()
    return mesh, west


def _state(mesh):
    return [
        (tile.dmem.dump_block(0, 512), tile.stats, tile.dmem.reads,
         tile.dmem.writes, tile.pc, tile.halted)
        for tile in mesh
    ]


class TestDifferential:
    @given(provable_programs(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_lowered_run_matches_the_interpreter(self, case, concurrent):
        initial, source = case
        program = assemble(source, name="lowerfuzz")
        results = {}
        lowered_before = pd.COUNTERS.lowered_runs
        for engine in ("fast", "reference"):
            mesh, west = _pair_mesh(initial, program)
            if concurrent:
                run = run_concurrent([west], engine=engine)
                cycles = (run.makespan_ns, run.busy_ns, run.instructions)
            else:
                cycles = west.run(engine=engine)
            results[engine] = (cycles, _state(mesh))
        assert results["fast"] == results["reference"]
        # by construction every generated program is provable: the fast
        # run above must have executed the lowered trace, not fallen back
        assert pd.COUNTERS.lowered_runs == lowered_before + 1


# ---------------------------------------------------------------------------
# (a') register-allocated traces: locals, unwrapped add chains, aliasing
# ---------------------------------------------------------------------------

#: Words within 2**16 of the 48-bit extremes: any add chain overflows.
_NEAR = st.one_of(
    st.integers(2**47 - 2**16, 2**47 - 1),
    st.integers(-(2**47), -(2**47) + 2**16),
)
#: ADD/SUB twice as likely, so most results feed further adds.
_CHAIN_OPS = ("ADD", "ADD", "SUB", "SUB", "NEG", "MULQ", "SRA", "MIN", "SNB")
_WINDOW = 48  # dmem[0..48) is the payload; the loop walks [8, 48)


@st.composite
def _chain_op(draw, sources, targets):
    op = draw(st.sampled_from(_CHAIN_OPS))
    dst = draw(st.sampled_from(targets))
    a, b = draw(st.sampled_from(sources)), draw(st.sampled_from(sources))
    if op == "NEG":
        return f"NEG {dst}, {a}"
    if op == "MULQ":
        return f"MULQ {dst}, {a}, {b}, {draw(st.integers(1, 47))}"
    if op == "SRA":
        return f"SRA {dst}, {a}, #{draw(st.integers(0, 47))}"
    if op == "SNB":
        return f"SNB.E {draw(st.integers(0, 511))}, {a}"
    return f"{op} {dst}, {a}, {b}"


@st.composite
def chain_programs(draw):
    """(initial payload, assembly): straight-line runs and counted loops
    of add chains over a few busy words, operands near +-2**47."""
    initial = draw(st.lists(_NEAR, min_size=_WINDOW, max_size=_WINDOW))
    busy = [str(r) for r in range(6)]
    lines = [".org 100", ".var cnt", ".var p", "MOV p, #8"]
    for index in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            for _ in range(draw(st.integers(1, 40))):
                lines.append(draw(_chain_op(busy, busy)))
            continue
        trips = draw(st.sampled_from([3, 24, 40]))
        lines += ["MOV p, #8", f"MOV cnt, #{trips}", f"loop{index}:"]
        for _ in range(draw(st.integers(1, 4))):
            lines.append(draw(_chain_op(busy + ["@p"], busy + ["@p"])))
        lines += ["ADD p, p, #1", "SUB cnt, cnt, #1", f"BNZ cnt, loop{index}"]
    lines.append("HALT")
    return initial, "\n".join(lines)


def _lowered_equals_the_interpreter(initial, source):
    """Run ``source`` on both engines; returns the lowered footprint."""
    program = assemble(source)
    results = {}
    lowered = pd.COUNTERS.lowered_runs
    for engine in ("fast", "reference"):
        mesh, west = _pair_mesh(initial, program)
        west.run(engine=engine)
        results[engine] = _state(mesh)
    assert results["fast"] == results["reference"]  # both tiles, all of it
    assert pd.COUNTERS.lowered_runs == lowered + 1
    return pd.predecode(program).__dict__["_footprints"][0]


class TestRegisterAllocation:
    @given(chain_programs())
    @settings(max_examples=80, deadline=None)
    def test_chains_near_the_word_limits_match_the_interpreter(self, case):
        _lowered_equals_the_interpreter(*case)

    def test_a_word_a_loop_column_can_address_stays_in_memory(self):
        """``@p`` walks over word 10 while the loop also names it: 10 is
        aliased, so it is read and written in memory; word 5 is not."""
        source = """
        .org 100
        .var cnt
        .var p
        MOV p, #8
        MOV cnt, #40
        loop:
        ADD 10, 10, @p
        ADD 5, 5, 10
        MULQ @p, @p, 5, 20
        ADD p, p, #1
        SUB cnt, cnt, #1
        BNZ cnt, loop
        HALT
        """
        footprint = _lowered_equals_the_interpreter(
            [2**47 - 1 - i for i in range(_WINDOW)], source
        )
        [chunk] = footprint.chunks
        assert "r5" in chunk.__code__.co_varnames
        assert "r10" not in chunk.__code__.co_varnames


# ---------------------------------------------------------------------------
# (b) fallback edges: same exception, same pc, same partial stats
# ---------------------------------------------------------------------------

#: A silent, provable counted loop.
_COUNT_LOOP = """
.org 16
.var cnt
MOV cnt, #4
loop:
ADD 8, 8, 0
SUB cnt, cnt, #1
BNZ cnt, loop
HALT
"""

#: A branch on payload word 0: never provable.
_DATA_BRANCH = """
SUB 2, 0, #7
BZ 2, skip
ADD 1, 1, #5
skip:
HALT
"""

#: Stores ``count`` payload words to the neighbour's words 300.. (off its
#: footprint, so two of these facing each other are a proven exchange).
_EXCHANGE = """
.org 16
.var cnt
.var p
.var q
MOV cnt, #{count}
MOV p, #0
MOV q, #300
loop:
SNB.{direction} @q, @p
ADD p, p, #1
ADD q, q, #1
SUB cnt, cnt, #1
BNZ cnt, loop
HALT
"""

_COPY_EAST = """
.org 16
.var cnt
.var p
MOV cnt, #4
MOV p, #0
ADD 8, 0, 1
loop:
SNB.E @p, @p
ADD p, p, #1
SUB cnt, cnt, #1
BNZ cnt, loop
HALT
"""


def _run_both(build, run, error):
    """Run ``run(tile)`` on a fresh ``build()`` per engine; both must raise
    ``error`` (or neither, when ``error`` is None) and end in one state."""
    outcomes = {}
    for engine in ("fast", "reference"):
        mesh, tile = build()
        if error is None:
            result = run(tile, engine)
        else:
            with pytest.raises(error) as caught:
                run(tile, engine)
            result = str(caught.value).replace(repr(tile), "<tile>")
        outcomes[engine] = (result, _state(mesh))
    assert outcomes["fast"] == outcomes["reference"]
    return outcomes["fast"]


class TestFallbackEdges:
    def _copy_mesh(self, link=Direction.EAST):
        return _pair_mesh(range(1, DATA + 1), assemble(_COPY_EAST), link)

    def test_exact_budget_runs_lowered_and_one_cycle_short_faults(self):
        exact = self._copy_mesh()[1].run(engine="reference")
        before = pd.COUNTERS.lowered_runs
        cycles, _ = _run_both(
            self._copy_mesh,
            lambda tile, engine: tile.run(max_cycles=exact, engine=engine),
            None,
        )
        assert cycles == exact
        assert pd.COUNTERS.lowered_runs == before + 1
        # One cycle short: the trace must not run at all; the interpreter
        # path trips on the crossing instruction with its stats flushed.
        fallbacks = pd.COUNTERS.fallback_runs
        message, _ = _run_both(
            self._copy_mesh,
            lambda tile, engine: tile.run(max_cycles=exact - 1, engine=engine),
            ExecutionError,
        )
        assert "exceeded" in message
        assert pd.COUNTERS.lowered_runs == before + 1
        assert pd.COUNTERS.fallback_runs == fallbacks + 1
        # and the same holds through the concurrent simulator
        _run_both(
            self._copy_mesh,
            lambda tile, engine: run_concurrent(
                [tile], max_cycles_per_tile=exact - 1, engine=engine
            ),
            ExecutionError,
        )

    @pytest.mark.parametrize("link", [None, Direction.SOUTH])
    def test_inactive_link_faults_at_the_first_snb(self, link):
        def build():
            mesh = Mesh(2, 2)
            mesh.configure_link((0, 0), link)
            tile = mesh.tile((0, 0))
            tile.dmem.load_block(0, range(1, DATA + 1))
            tile.load_program(assemble(_COPY_EAST))
            for t in mesh:
                t.dmem.reset_counters()
            return mesh, tile

        fallbacks = pd.COUNTERS.fallback_runs
        message, state = _run_both(
            build, lambda tile, engine: tile.run(engine=engine), LinkError
        )
        assert "stored toward EAST" in message
        west = state[0]
        assert west[0][8] == 3  # the ADD before the loop did execute
        assert west[1].neighbour_stores == 0
        assert pd.COUNTERS.fallback_runs == fallbacks + 1

    def test_changed_fingerprint_word_demotes_that_run_only(self):
        # ``p`` comes from the data image and is only ever a pointer: read
        # before written, so it is in the fingerprint, and a different
        # value is a different trace.
        source = """
        .org 16
        .var p
        .word p, 2
        ADD 8, @p, #1
        SNB.E @p, 8
        HALT
        """
        program = assemble(source)

        def build(pointer):
            def inner():
                mesh, tile = _pair_mesh(range(DATA), program)
                tile.dmem.poke(16, pointer)
                return mesh, tile
            return inner

        run = lambda tile, engine: tile.run(engine=engine)  # noqa: E731
        lowered, fallbacks = pd.COUNTERS.lowered_runs, pd.COUNTERS.fallback_runs
        _run_both(build(2), run, None)  # profiles + lowers with p=2
        assert pd.COUNTERS.lowered_runs == lowered + 1
        _, state = _run_both(build(5), run, None)  # fingerprint mismatch
        assert state[0][0][8] == 6 and state[1][0][5] == 6
        assert pd.COUNTERS.lowered_runs == lowered + 1
        assert pd.COUNTERS.fallback_runs == fallbacks + 1
        _run_both(build(2), run, None)  # matching memory lowers again
        assert pd.COUNTERS.lowered_runs == lowered + 2

    def test_data_dependent_branch_is_never_lowered(self):
        program = assemble(_DATA_BRANCH)
        lowered = pd.COUNTERS.lowered_runs
        for payload in (0, 7):
            _run_both(
                lambda: _pair_mesh([payload, 1], program),
                lambda tile, engine: tile.run(engine=engine),
                None,
            )
        assert pd.COUNTERS.lowered_runs == lowered
        assert pd.predecode(program).__dict__["_footprints"] == {0: None}

    def test_corrupted_instruction_word_faults_on_the_oracle(self):
        program = assemble(_COPY_EAST)
        _run_both(  # lower the trace first: corruption must still win
            self._copy_mesh, lambda t, engine: t.run(engine=engine), None
        )

        def build():
            mesh, tile = self._copy_mesh()
            tile.load_program(program)
            tile.imem.corrupt_slot(4)  # the ADD inside the loop
            return mesh, tile

        lowered, fallbacks = pd.COUNTERS.lowered_runs, pd.COUNTERS.fallback_runs
        message, state = _run_both(
            build, lambda tile, engine: tile.run(engine=engine), FaultError
        )
        assert "SEU-corrupted" in message
        assert state[0][4] == 4  # stopped at the corrupted word
        assert state[0][1].neighbour_stores == 1
        assert pd.COUNTERS.lowered_runs == lowered
        assert pd.COUNTERS.fallback_runs == fallbacks + 1

    def test_mixed_phase_runs_whole_on_the_oracle(self):
        """A proven tile beside a data-dependent one: neither runs its
        trace, and the phase ends exactly where the reference leaves it."""
        proven = assemble(_COUNT_LOOP)
        branchy = assemble(_DATA_BRANCH)
        meshes = []

        def build():
            mesh = Mesh(1, 2)
            west, east = mesh.tile((0, 0)), mesh.tile((0, 1))
            west.dmem.load_block(0, range(1, DATA + 1))
            east.dmem.load_block(0, [7, 1])
            west.load_program(proven)
            east.load_program(branchy)
            for tile in mesh:
                tile.dmem.reset_counters()
            meshes.append(mesh)
            return mesh, west

        lowered, fallbacks = pd.COUNTERS.lowered_runs, pd.COUNTERS.fallback_runs
        _, state = _run_both(
            build,
            lambda tile, engine: run_concurrent(list(meshes[-1]), engine=engine),
            None,
        )
        assert state[0][5] and state[1][5]  # both halted
        assert pd.COUNTERS.lowered_runs == lowered
        assert pd.COUNTERS.fallback_runs == fallbacks + 2

    def test_refused_exchange_faults_on_the_oracle(self):
        """A proven exchange one cycle short of its longer trace: no trace
        runs, and the oracle raises with both tiles where it leaves them."""
        west_program = assemble(_EXCHANGE.format(direction="E", count=4))
        east_program = assemble(_EXCHANGE.format(direction="W", count=6))
        meshes = []

        def build():
            mesh = Mesh(1, 2)
            mesh.configure_link((0, 0), Direction.EAST)
            mesh.configure_link((0, 1), Direction.WEST)
            west, east = mesh.tile((0, 0)), mesh.tile((0, 1))
            west.dmem.load_block(0, range(1, DATA + 1))
            east.dmem.load_block(0, range(-DATA, 0))
            west.load_program(west_program)
            east.load_program(east_program)
            for tile in mesh:
                tile.dmem.reset_counters()
            meshes.append(mesh)
            return mesh, east

        def run(budget):
            return lambda tile, engine: run_concurrent(
                list(meshes[-1]), max_cycles_per_tile=budget, engine=engine
            )

        lowered = pd.COUNTERS.lowered_runs
        _, state = _run_both(build, run(10_000_000), None)
        assert state[1][0][300:304] == [1, 2, 3, 4]  # both stores landed
        assert state[0][0][300:306] == list(range(-DATA, -DATA + 6))
        assert pd.COUNTERS.lowered_runs == lowered + 2  # the phase is proven
        short = max(stats.cycles for _, stats, *_ in state) - 1
        fallbacks = pd.COUNTERS.fallback_runs
        message, state = _run_both(build, run(short), ExecutionError)
        assert message == f"<tile> exceeded {short} cycles without halting"
        assert state[1][1].cycles == short + 1  # its HALT crossed the budget
        assert pd.COUNTERS.lowered_runs == lowered + 2
        assert pd.COUNTERS.fallback_runs == fallbacks + 2

    def test_hand_installed_resolver_is_honoured(self):
        """A resolver without the mesh's port takes the slow path."""
        seen = []
        tile = Tile()
        tile.neighbour_resolver = lambda d, addr, value: seen.append(
            (d, addr, value)
        )
        tile.dmem.load_block(0, range(1, DATA + 1))
        tile.load_program(assemble(_COPY_EAST))
        tile.run(engine="fast")
        assert seen == [(Direction.EAST, i, i + 1) for i in range(4)]


# ---------------------------------------------------------------------------
# (c) coverage: registered kernels run lowered
# ---------------------------------------------------------------------------


def test_every_registered_kernel_serves_warm_jobs_lowered(monkeypatch):
    """Cold and warm jobs of every kernel, and fresh sweep-sized FFT runs,
    never fall back: the benchmarked paths need no engine but the traces."""
    from repro.compile.frontends import frontend_names, get_frontend
    from repro.kernels.fft import FabricFFT, FFTPlan
    from repro.serve.jobs import spec_for
    from repro.serve.sessions import CancelToken, default_session_factory

    monkeypatch.delenv(pd.REFERENCE_ENV, raising=False)
    fallbacks = pd.COUNTERS.fallback_runs
    for kind in frontend_names():
        frontend = get_frontend(kind)
        params = frontend.canonicalize(None)
        rng = np.random.default_rng(3)
        session = default_session_factory(spec_for(kind))
        session.run(frontend.example_payload(params, rng), CancelToken())
        lowered = pd.COUNTERS.lowered_runs
        for _ in range(10):
            payload = frontend.example_payload(params, rng)
            stats = session.run(payload, CancelToken())
            frontend.check_output(params, payload, stats.output)
        assert pd.COUNTERS.lowered_runs > lowered, kind
        assert pd.COUNTERS.fallback_runs == fallbacks, kind
    rng = np.random.default_rng(4)
    for n, m, cols in ((64, 8, 2), (64, 8, 3), (1024, 64, 1)):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.01
        lowered = pd.COUNTERS.lowered_runs
        FabricFFT(FFTPlan(n, m, cols), link_cost_ns=100.0).run(x)
        assert pd.COUNTERS.lowered_runs > lowered, (n, m, cols)
        assert pd.COUNTERS.fallback_runs == fallbacks, (n, m, cols)


# ---------------------------------------------------------------------------
# (d) bounded code objects
# ---------------------------------------------------------------------------


def _both_engines(program, payload):
    results = {}
    for engine in ("fast", "reference"):
        tile = Tile()
        tile.dmem.load_block(0, payload)
        tile.load_program(program)
        tile.run(engine=engine)
        results[engine] = (tile.dmem.dump_block(0, 32), tile.stats)
    assert results["fast"] == results["reference"]
    return pd.predecode(program).__dict__["_footprints"][0]


def _source_lines(chunk) -> int:
    """Statement lines of a generated function (its ``def`` excluded)."""
    return len({line for _, line in dis.findlinestarts(chunk.__code__)}) - 1


def test_long_trace_compiles_into_bounded_chunks():
    """No code object holds more than the chunk bound of statements (one
    600-statement function leaves megabytes of compiler arena behind)."""
    import random

    rng = random.Random(5)
    ops = ("ADD", "SUB", "MUL", "XOR", "MAX", "MIN", "AND", "OR")
    body = "\n".join(
        f"{rng.choice(ops)} {rng.randrange(6)}, {rng.randrange(6)}, "
        f"{rng.randrange(6)}"
        for _ in range(500)
    )
    compiled = pd.COUNTERS.statements
    footprint = _both_engines(
        assemble(body + "\nHALT"), [3, -5, 7, 11, -13, 2**40]
    )
    # every chunk loads its six busy words into locals and stores them back
    assert pd.COUNTERS.statements == compiled + 500 + 2 * len(footprint.chunks)
    assert len(footprint.chunks) == math.ceil(500 / pd._CHUNK_STATEMENTS)
    assert all(
        0 < _source_lines(chunk) <= pd._CHUNK_STATEMENTS
        for chunk in footprint.chunks
    )


def test_counted_loop_body_is_compiled_once():
    """The data-plane statements of a counted loop are one body repeated
    with other addresses; they compile as a loop over an address table."""
    source = """
    .org 200
    .var cnt
    .var p
    MOV cnt, #100
    MOV p, #8
    loop:
    ADD 0, 0, @p
    SUB 1, 1, 2
    MUL 2, 2, @p
    XOR 3, 3, 4
    MAX 4, 4, 5
    MULQ 5, 5, 0, 20
    ADD p, p, #1
    SUB cnt, cnt, #1
    BNZ cnt, loop
    HALT
    """
    compiled = pd.COUNTERS.statements
    footprint = _both_engines(
        assemble(source), [3, -5, 7, 11, -13, 2**40, 0, 0, *range(1, 25)]
    )
    assert footprint.instructions > 600
    # register loads + loop header + body + two control stores + register
    # stores: words 0-5 stay in locals across the 100 iterations
    [chunk] = footprint.chunks
    assert _source_lines(chunk) == 1 + 1 + 6 + 2 + 1
    assert pd.COUNTERS.statements == compiled + 1 + 1 + 6 + 2 + 1


def test_rolled_loop_with_neighbour_stores():
    source = """
    .org 200
    .var cnt
    .var p
    .var q
    MOV cnt, #64
    MOV p, #0
    MOV q, #300
    loop:
    ADD @p, @p, cnt
    SNB.E @q, @p
    ADD p, p, #1
    ADD q, q, #1
    SUB cnt, cnt, #1
    BNZ cnt, loop
    HALT
    """
    program = assemble(source)
    _, state = _run_both(
        lambda: _pair_mesh(range(100, 164), program),
        lambda tile, engine: tile.run(engine=engine),
        None,
    )
    assert state[1][0][300:364] == [100 + i + 64 - i for i in range(64)]
    footprint = pd.predecode(program).__dict__["_footprints"][0]
    [chunk] = footprint.chunks
    assert _source_lines(chunk) == 2 + 1 + 3
