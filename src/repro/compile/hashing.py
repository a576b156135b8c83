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
"""

from __future__ import annotations

import hashlib
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
        tuple(epoch_fingerprint(spec) for spec in plan.setup),
        None if port is None else (
            "input", port.name, tuple(port.depends_on), tuple(port.signature)
        ),
        tuple(epoch_fingerprint(spec) for spec in plan.body),
    )
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()
