"""Every public top-level name in ``src/repro`` has a caller outside the tests.

A public ``def`` or ``class`` counts as reached when code in ``src/``,
``benchmarks/`` or ``examples/`` names it (a call, an attribute, an
annotation, an import outside a package ``__init__.py``) or when
``repro.__all__`` lists it.  Its own body, ``__all__`` lists, a package
``__init__.py`` re-exporting it, docstrings and comments do not count,
and neither does a reference from inside a name that is itself
unreached: the check iterates to a fixed point, so deleting one dead
name shows the names only it kept alive.  Names are matched by
identifier, so a dead ``def run`` hides behind any live ``.run``: the
check errs towards calling a name reached.

A name that stays unreached needs an entry in :data:`ALLOWLIST` with the
reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``module:name`` -> why the name stays although no program path reaches it.
ALLOWLIST = {
    # -- paper artefacts the tests execute ------------------------------
    "repro.kernels.fft.programs:twiddle_gather_program":
        "Fig. 8 twiddle schedule: on-tile GREEN/BLUE derivation, executed "
        "per (tile, stage) by tests/fft/test_twiddle_generation.py",
    "repro.kernels.fft.programs:twiddle_square_program":
        "Fig. 8 twiddle schedule: on-tile GREEN squaring (Sec. 3.1)",
    "repro.kernels.fft.twiddle:derivation_operations":
        "Fig. 8 twiddle schedule: the per-entry plan twiddle_gather_program runs",
    "repro.kernels.fft.programs:local_copy_program":
        "Table 3's CP copy process as a tile program; the engine-equivalence "
        "and lint suites run it",
    "repro.kernels.jpeg.dct:dct_quarter":
        "Table 4: the quarter-DCT process p10 that two manual mappings spread "
        "over four tiles",
    "repro.kernels.jpeg.dct:dct_quarters":
        "Table 4: the four quarter processes reassemble the full DCT",
    "repro.kernels.jpeg.huffman:encode_block_stages":
        "Table 3: Hman1..5 as five composed stages, equal to the one-shot coder",
    "repro.mapping.linkplan:LinkPlan":
        "Table 4's reLink flag: the link plan of a placed mapping",
    "repro.mapping.linkplan:plan_links":
        "Table 4's reLink flag: per-block relinks of replicated stages",
    "repro.mapping.epochs:spatial_epochs":
        "Eq. 1's space-mapping extreme (terms B and C zero), the baseline "
        "temporal folding is compared with",
    "repro.kernels.fft.reference:fft_dit":
        "reference FFT the radix-2 tests compare the DIF kernel against",
    # -- test and CI oracles --------------------------------------------
    "repro.chaos.crashpoints:registered_crashpoints":
        "parametrizes the chaos matrices over every self-registered crash point",
    "repro.cluster.harness:lost_reply_scenario":
        "CI's subprocess lost-reply chaos matrix builds its cases with it",
    "repro.cluster.proc.wire:decode_frame":
        "strict one-frame decoder, the wire tests' reference for FrameDecoder",
    # -- library surface with tests but no caller (ROADMAP item 10) -----
    "repro.fabric.isa:imm": "tile-ISA operand constructor, repro.fabric API",
    "repro.fabric.isa:direct": "tile-ISA operand constructor, repro.fabric API",
    "repro.fabric.isa:indirect": "tile-ISA operand constructor, repro.fabric API",
    "repro.dse.objectives:Objective":
        "single-objective pick over DSE points; retire with its tests",
    "repro.io.images:gradient": "synthetic JPEG test frame",
    "repro.io.images:checkerboard": "synthetic JPEG test frame",
    "repro.io.images:band_limited_noise": "synthetic JPEG test frame",
    "repro.io.images:test_image": "synthetic JPEG test frame by name",
    "repro.kernels.fft.fft2d:FabricFFT2D":
        "row-column 2-D FFT extension (DESIGN §3); retire with its tests",
    "repro.kernels.fft.fft2d:FabricFFT2DResult": "result of FabricFFT2D",
    "repro.kernels.fft.fft2d:fft2d_reference": "oracle of FabricFFT2D",
    "repro.kernels.jpeg.color:ColorJPEGEncoder":
        "colour JPEG extension (DESIGN §3); retire with its tests",
    "repro.kernels.jpeg.color:encode_color_image": "colour JPEG extension",
    "repro.kernels.jpeg.color:rgb_to_ycbcr": "colour JPEG extension",
    "repro.kernels.jpeg.color:subsample_420": "colour JPEG extension",
    "repro.kernels.jpeg.color:upsample_420": "colour JPEG extension",
}


def _references(tree: ast.AST, init: bool):
    """``(line, identifier)`` of every name ``tree``'s code uses: strings
    (docstrings, ``__all__`` entries) and comments name nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and not init:
            for alias in node.names:
                yield node.lineno, alias.name


def unreached(root: Path) -> dict[str, int]:
    """``module:name`` -> line count of every public top-level def or class
    under ``root/src/repro`` that no program path reaches."""
    src = root / "src"
    defs = {}  # (file, name) -> ("module:name", first line, last line)
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[path, node.name] = (
                    f"{module}:{node.name}", node.lineno, node.end_lineno
                )
    # (identifier, (file, top-level def the reference sits in) or None)
    refs = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            spans = [(first, last, name) for (file, name), (_, first, last)
                     in defs.items() if file == path]
            tree = ast.parse(path.read_text())
            for line, name in _references(tree, path.name == "__init__.py"):
                owner = next((n for first, last, n in spans
                              if first <= line <= last), None)
                if owner != name:  # a name's own body does not reach it
                    refs.append((name, owner and (path, owner)))
    exported = set()
    for node in ast.parse((src / "repro" / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    dead: set = set()
    while True:  # a dead name's body reaches nothing
        live = exported | {name for name, owner in refs if owner not in dead}
        now = {key for key in defs if key[1] not in live}
        if now == dead:
            break
        dead = now
    return {defs[key][0]: defs[key][2] - defs[key][1] + 1 for key in dead}


@pytest.fixture(scope="module")
def found() -> dict[str, int]:
    return unreached(ROOT)


def test_every_public_name_has_a_caller(found):
    assert sorted(set(found) - set(ALLOWLIST)) == []


def test_every_allowlist_entry_is_unreached_and_has_a_reason(found):
    assert sorted(set(ALLOWLIST) - set(found)) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_a_dead_def_is_flagged(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "sub").mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (package / "__init__.py").write_text('__all__ = ["exported"]\n')
    (package / "sub" / "__init__.py").write_text(
        "from repro.sub.mod import reexported\n"
        '__all__ = ["reexported"]\n'
    )
    (package / "sub" / "mod.py").write_text(
        '"""Mentions documented() in a docstring."""\n'
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def dead():\n"
        "    return orphan()  # kept alive only by a dead name\n"
        "def orphan():\n"
        "    return 2\n"
        "def documented():\n"
        "    return 3\n"
        "def reexported():\n"
        "    return 4\n"
        "def used_by_example():\n"
        "    return 5\n"
        "def _private():\n"
        "    return 6\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.sub.mod import used_by_example\n"
        "used_by_example()\n"
    )
    assert sorted(unreached(tmp_path)) == [
        "repro.sub.mod:dead",
        "repro.sub.mod:documented",
        "repro.sub.mod:orphan",
        "repro.sub.mod:recursive",
        "repro.sub.mod:reexported",
    ]
