"""Cycle-budget semantics: identical across engines and entry points.

The reference interpreter checks ``consumed > max_cycles`` *after* each
instruction, so a run that halts at exactly ``max_cycles`` is legal and
one cycle less raises.  The fast path batches whole superblocks and runs
proven traces lowered, so these tests pin the boundary behaviour for
``Tile.run`` and ``run_concurrent`` under both tiers — including the
re-run of an already lowered trace, which must honour the budget rather
than execute a trace that would not have fit.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.fabric.assembler import assemble
from repro.fabric.simulator import run_concurrent
from repro.fabric.tile import Tile

# Straightline body (fuses into one superblock) followed by a short loop
# (exercises the branch path), then HALT.
_SOURCE = """
.var a
.var i
MOV a, #0
ADD a, a, #3
ADD a, a, #4
SUB a, a, #2
MOV i, #3
loop:
ADD a, a, #1
SUB i, i, #1
BNZ i, loop
HALT
"""

ENGINES = ("fast", "reference")


def _fresh_tile() -> tuple[Tile, object]:
    program = assemble(_SOURCE)
    tile = Tile()
    tile.load_program(program)
    return tile, program


def _reference_cycles() -> int:
    tile, _ = _fresh_tile()
    return tile.run(engine="reference")


@pytest.fixture(scope="module")
def exact_cycles() -> int:
    return _reference_cycles()


@pytest.mark.parametrize("engine", ENGINES)
def test_exact_budget_is_legal(engine, exact_cycles):
    tile, _ = _fresh_tile()
    assert tile.run(max_cycles=exact_cycles, engine=engine) == exact_cycles
    assert tile.halted
    assert tile.dmem.peek(0) == 8


@pytest.mark.parametrize("engine", ENGINES)
def test_one_cycle_short_raises(engine, exact_cycles):
    tile, _ = _fresh_tile()
    with pytest.raises(ExecutionError, match="exceeded"):
        tile.run(max_cycles=exact_cycles - 1, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_exact_budget_is_legal(engine, exact_cycles):
    tile, _ = _fresh_tile()
    run = run_concurrent([tile], max_cycles_per_tile=exact_cycles, engine=engine)
    assert run.makespan_ns == pytest.approx(exact_cycles * 2.5)
    assert tile.dmem.peek(0) == 8


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_one_cycle_short_raises(engine, exact_cycles):
    tile, _ = _fresh_tile()
    with pytest.raises(ExecutionError, match="exceeded"):
        run_concurrent([tile], max_cycles_per_tile=exact_cycles - 1, engine=engine)


def test_lowered_rerun_respects_budget(exact_cycles):
    """A lowered trace must not run into a budget it would overflow: one
    cycle short, the interpreter path faults on the crossing instruction
    and leaves exactly the reference's partial state."""
    from repro.fabric.predecode import COUNTERS

    program = assemble(_SOURCE)
    # Lower the trace with an unconstrained fast run.
    tile = Tile()
    tile.load_program(program)
    tile.run(engine="fast")
    # Exact budget: the lowered re-run must succeed...
    lowered = COUNTERS.lowered_runs
    tile2 = Tile()
    tile2.load_program(program)
    assert tile2.run(max_cycles=exact_cycles, engine="fast") == exact_cycles
    assert COUNTERS.lowered_runs == lowered + 1
    # ...one cycle less must raise exactly like the reference tier.
    states = []
    for engine in ENGINES:
        tile3 = Tile()
        tile3.load_program(program)
        with pytest.raises(ExecutionError, match="exceeded"):
            tile3.run(max_cycles=exact_cycles - 1, engine=engine)
        states.append((tile3.pc, tile3.halted, tile3.stats,
                       tile3.dmem.dump_block(0, 8), tile3.dmem.reads,
                       tile3.dmem.writes))
    assert states[0] == states[1]
    assert COUNTERS.lowered_runs == lowered + 1


def test_engines_agree_on_cycle_count(exact_cycles):
    tile, _ = _fresh_tile()
    assert tile.run(engine="fast") == exact_cycles
