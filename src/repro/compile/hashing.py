"""Stable content hashing of epoch plans.

The cache key of the compilation pipeline is a SHA-256 over a *canonical
serialization* of the plan: every dictionary is emitted in sorted key
order, every value is tagged with its type, floats are serialized with
``repr`` (shortest round-trip form, stable across processes), and
programs are fingerprinted by their encoded instruction words plus data
image — never by object identity.  Two consequences the property tests
pin down:

* **order insensitivity** — building the same pokes/links/images dicts
  in a different insertion order yields the same hash;
* **semantic sensitivity** — flipping one link direction, one memory
  word, or one instruction word yields a different hash.

Python's built-in ``hash`` is salted per process and is never used.

:func:`canonical_bytes` over :func:`epoch_fingerprint` is the reference
encoding of an epoch.  :func:`plan_hash` emits the same bytes through
:func:`epoch_bytes`, a flat encoder that writes coordinates, link
targets and word images straight from the :class:`EpochSpec` instead of
building and walking a fingerprint; any value outside the exact types it
handles sends the epoch through the reference encoder.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Any

from repro.errors import CompileError
from repro.fabric.links import Direction
from repro.fabric.rtms import EpochSpec

__all__ = [
    "canonical_bytes",
    "plan_hash",
    "plan_hash_prefix",
    "program_fingerprint",
    "epoch_fingerprint",
    "epoch_bytes",
]


class _Canonical(bytes):
    """Bytes that already are a canonical encoding: ``_emit`` is a pure
    concatenation, so emitting a value and splicing its encoding are the
    same thing."""


def _emit(value: Any, out: list[bytes]) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Supports the closed set of types a plan contains; anything else is a
    compile error (better loud than a silently unstable ``repr``).
    """
    if value is None:
        out.append(b"n;")
    elif isinstance(value, _Canonical):
        out.append(value)
    elif value is True or value is False:
        out.append(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s%d:" % len(raw))
        out.append(raw)
    elif isinstance(value, Direction):
        out.append(b"d" + value.name.encode("ascii") + b";")
    elif isinstance(value, (tuple, list)):
        out.append(b"t%d:" % len(value))
        for item in value:
            _emit(item, out)
    elif isinstance(value, dict):
        items = sorted(value.items())
        out.append(b"m%d:" % len(items))
        for key, item in items:
            _emit(key, out)
            _emit(item, out)
    else:
        raise CompileError(
            f"cannot canonically hash a {type(value).__name__}: {value!r}"
        )


def canonical_bytes(value: Any) -> bytes:
    """The canonical byte serialization used for hashing."""
    out: list[bytes] = []
    _emit(value, out)
    return b"".join(out)


def program_fingerprint(program) -> tuple:
    """Identity-free fingerprint of a tile program.

    Encoded 72-bit words capture opcode, operands, addressing modes and
    branch targets; the data image captures ``.var`` initializers — the
    full semantic content the ICAP would stream.
    """
    return (
        "program",
        program.name,
        tuple(program.encoded()),
        dict(program.data_image),
    )


def _program_canonical(program) -> _Canonical:
    """``program_fingerprint`` serialised once per program object.

    A plan names the same few stage programs from every epoch and
    coordinate that runs them; programs are immutable, so the encoding is
    cached on the object (as ``_predecoded`` is) and spliced.
    """
    cached = program.__dict__.get("_canonical")
    if cached is None:
        cached = program.__dict__["_canonical"] = _Canonical(
            canonical_bytes(program_fingerprint(program))
        )
    return cached


def epoch_fingerprint(spec: EpochSpec) -> tuple:
    """Canonical description of one epoch template."""
    return (
        "epoch",
        spec.name,
        {coord: direction for coord, direction in spec.links.items()},
        {coord: _program_canonical(program)
         for coord, program in spec.programs.items()},
        {coord: dict(image) for coord, image in spec.data_images.items()},
        {coord: dict(image) for coord, image in spec.pokes.items()},
        tuple(spec.run),
        bool(spec.restart),
        tuple(spec.depends_on),
    )


#: ``_emit`` of a link target: a principal direction or ``None``.
_LINK_BYTES = {d: b"d" + d.name.encode("ascii") + b";" for d in Direction}
_LINK_BYTES[None] = b"n;"
#: ``_emit`` of an ``(int, int)`` coordinate and of one ``int: int`` word.
_COORD = b"t2:i%d;i%d;"
_WORD = b"i%d;i%d;"
_LINK_TYPES = {Direction, type(None)}
_SEQUENCE_TYPES = (list, tuple)


def _flat_epoch(spec: EpochSpec) -> bytes | None:
    """``canonical_bytes(epoch_fingerprint(spec))`` emitted straight from
    the spec, or ``None`` when some piece is not of the exact type this
    encoder handles (``(int, int)`` coordinates, ``Direction``/``None``
    links, ``dict`` images of ``int`` to ``int``, list or tuple runs).

    Exact ``type`` tests keep ``bool`` and numpy integers, which ``%d``
    would format as plain numbers, on the reference path.  Keys sort as
    ints and int pairs, so the bytes do not depend on the hash seed.
    """
    name, links, programs = spec.name, spec.links, spec.programs
    data_images, pokes = spec.data_images, spec.pokes
    run, depends_on = spec.run, spec.depends_on
    if (type(name) is not str or type(run) not in _SEQUENCE_TYPES
            or type(depends_on) not in _SEQUENCE_TYPES):
        return None
    coords = [*links, *programs, *data_images, *pokes, *run, *depends_on]
    if not (set(map(type, coords)) <= {tuple} and set(map(len, coords)) <= {2}
            and set(map(type, chain.from_iterable(coords))) <= {int}
            and set(map(type, links.values())) <= _LINK_TYPES):
        return None
    raw = name.encode("utf-8")
    out = [b"t9:s5:epochs%d:" % len(raw), raw, b"m%d:" % len(links)]
    for coord in sorted(links):
        out.append(_COORD % coord)
        out.append(_LINK_BYTES[links[coord]])
    out.append(b"m%d:" % len(programs))
    for coord in sorted(programs):
        out.append(_COORD % coord)
        out.append(_program_canonical(programs[coord]))
    for images in (data_images, pokes):
        out.append(b"m%d:" % len(images))
        for coord in sorted(images):
            image = images[coord]
            if type(image) is not dict:
                return None
            types = set(map(type, image))
            types.update(map(type, image.values()))
            if not types <= {int}:
                return None
            out.append(_COORD % coord)
            out.append(b"m%d:" % len(image))
            out.append((_WORD * len(image))
                       % tuple(chain.from_iterable(sorted(image.items()))))
    out.append(b"t%d:" % len(run))
    out.extend(map(_COORD.__mod__, run))
    out.append(b"b1;" if spec.restart else b"b0;")
    out.append(b"t%d:" % len(depends_on))
    out.extend(map(_COORD.__mod__, depends_on))
    return b"".join(out)


def epoch_bytes(spec: EpochSpec) -> bytes:
    """``canonical_bytes(epoch_fingerprint(spec))``, encoded flat when
    the spec allows (see :func:`_flat_epoch`)."""
    flat = _flat_epoch(spec)
    if flat is None:
        flat = canonical_bytes(epoch_fingerprint(spec))
    return _Canonical(flat)


def plan_hash_prefix(artifact, bits: int = 64) -> int:
    """Routing key: the top ``bits`` bits of a plan's content address.

    ``artifact`` may be a :class:`~repro.compile.ir.CompiledArtifact`
    (its ``artifact_hash`` is used), anything else exposing an
    ``artifact_hash`` attribute, or a raw 64-hex-digit SHA-256 string.
    The result is an integer in ``[0, 2**bits)`` — uniformly distributed
    because SHA-256 prefixes are, which is what consistent-hash routing
    relies on.  Deriving routing keys here (rather than slicing hash
    strings ad hoc at call sites) keeps every router, bench and test on
    the same key space.
    """
    if not 1 <= bits <= 256:
        raise CompileError(
            f"plan_hash_prefix bits must be in 1..256, got {bits}"
        )
    digest = getattr(artifact, "artifact_hash", artifact)
    if not isinstance(digest, str):
        raise CompileError(
            f"plan_hash_prefix wants an artifact or hex digest, "
            f"got {type(artifact).__name__}"
        )
    if len(digest) != 64:
        raise CompileError(
            f"plan_hash_prefix wants a 64-hex-digit SHA-256, "
            f"got {len(digest)} characters"
        )
    try:
        value = int(digest, 16)
    except ValueError:
        raise CompileError(
            f"plan_hash_prefix got a non-hex digest: {digest[:16]!r}..."
        ) from None
    return value >> (256 - bits)


def plan_hash(plan) -> str:
    """SHA-256 content address of an :class:`~repro.compile.ir.EpochPlan`."""
    port = plan.input_port
    doc = (
        "epoch-plan-v1",
        plan.kind,
        tuple(plan.params),
        plan.rows,
        plan.cols,
        float(plan.link_cost_ns),
        tuple(epoch_bytes(spec) for spec in plan.setup),
        None if port is None else (
            "input", port.name, tuple(port.depends_on), tuple(port.signature)
        ),
        tuple(epoch_bytes(spec) for spec in plan.body),
    )
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()
