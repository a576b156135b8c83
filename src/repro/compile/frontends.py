"""Kernel frontends: parameters in, cached :class:`CompiledArtifact` out.

Every kernel registers one :class:`KernelFrontend`: how to canonicalize
its parameters, lower them (almost always through
:class:`repro.compile.graph.DataflowGraph`), fabricate a sample payload
and verify fabric output against its reference oracle.
:func:`compile_kernel` is the single entry point every consumer goes
through; it runs the lowering and the default pass pipeline under the
process-wide artifact cache, so a repeated request never lowers again.
``compile_fft`` / ``compile_jpeg`` are typed conveniences building the
same cache request keys.

Kernel lowerings are imported on first use of their kind: they import
:mod:`repro.compile.ir`, so importing them here would be a cycle.
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.compile.cache import ArtifactCache, get_cache
from repro.compile.ir import CompiledArtifact, EpochPlan, KernelGraph
from repro.compile.passes import CompileUnit, PassManager
from repro.errors import CompileError, KernelError

__all__ = [
    "KernelFrontend",
    "register_frontend",
    "get_frontend",
    "frontend_names",
    "kernel_suggestions",
    "import_all_frontends",
    "compile_kernel",
    "compile_fft",
    "compile_jpeg",
    "compile_plan",
]


def compile_plan(graph, plan) -> CompiledArtifact:
    """Run the default pass pipeline over an already-lowered plan.

    The uncached building block — useful for hand-built plans and for
    tests that exercise individual passes around it.
    """
    return PassManager().run(CompileUnit(graph=graph, plan=plan))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFrontend:
    """Everything the toolchain needs to treat one kernel generically.

    ``param_names`` is the positional order of
    :class:`~repro.serve.jobs.KernelSpec` params; ``defaults`` the full
    canonical parameter set, whose value types drive coercion (a JSON
    round trip canonicalizes back to the same cache key).  ``lower`` maps
    canonical parameters to the ``(KernelGraph, EpochPlan)`` pair.

    ``example_payload(params, rng)`` fabricates a valid payload,
    ``reference(params, payload)`` the fabric-independent output, and
    ``verify(params, payload, output)`` raises
    :class:`~repro.errors.KernelError` unless the fabric output matches
    it — bit-identically by default, or by the kernel's own tolerance
    (FFT's ``atol``, JPEG's quantization bound).
    """

    kind: str
    description: str
    param_names: tuple[str, ...]
    defaults: tuple[tuple[str, Any], ...]
    lower: Callable[[dict[str, Any]], tuple[KernelGraph, EpochPlan]]
    example_payload: Callable[[dict[str, Any], Any], Any] | None = None
    reference: Callable[[dict[str, Any], Any], Any] | None = None
    verify: Callable[[dict[str, Any], Any, Any], None] | None = None
    #: True when ``verify`` asserts bit-identity with ``reference``.
    exact: bool = True

    def canonicalize(self, params: dict[str, Any] | None) -> dict[str, Any]:
        """Fill defaults and coerce value types onto one canonical dict.

        The result is the artifact cache's request key, so two spellings
        of the same configuration (ints vs floats, JSON round trips)
        share one cache entry.
        """
        canonical = dict(self.defaults)
        overrides = dict(params or {})
        for key, value in overrides.items():
            if key not in canonical:
                raise CompileError(
                    f"kernel {self.kind!r} has no parameter {key!r} "
                    f"(expected {sorted(canonical)})",
                    pass_name="frontend",
                )
            default = canonical[key]
            if isinstance(default, bool):
                canonical[key] = bool(value)
            elif isinstance(default, int):
                canonical[key] = int(value)
            elif isinstance(default, float):
                canonical[key] = float(value)
            else:
                canonical[key] = type(default)(value)
        return canonical

    def params_from_spec(self, spec_params: tuple) -> dict[str, Any]:
        """Canonical parameters from a spec's positional tuple."""
        if len(spec_params) != len(self.param_names):
            raise CompileError(
                f"kernel {self.kind!r} spec wants params "
                f"{self.param_names}, got {len(spec_params)} values",
                pass_name="frontend",
            )
        return self.canonicalize(dict(zip(self.param_names, spec_params)))

    def spec_params(self, params: dict[str, Any] | None = None) -> tuple:
        """The positional spec tuple of one canonical parameter dict."""
        canonical = self.canonicalize(params)
        return tuple(canonical[name] for name in self.param_names)

    def check_output(
        self, params: dict[str, Any], payload: Any, output: Any
    ) -> None:
        """Run the oracle check (default: bit-identical to reference)."""
        if self.verify is not None:
            self.verify(params, payload, output)
            return
        if self.reference is None:
            raise KernelError(
                f"kernel {self.kind!r} registered no reference oracle"
            )
        import numpy as np

        expected = self.reference(params, payload)
        if not np.array_equal(
            np.asarray(output), np.asarray(expected)
        ):
            raise KernelError(
                f"kernel {self.kind!r} output diverged from its "
                f"reference oracle"
            )


_FRONTENDS: dict[str, KernelFrontend] = {}

#: kind -> module whose import registers the frontend (and its input-port
#: encoder factories).  Third-party kernels call
#: :func:`register_frontend` themselves.
_BUILTIN_FRONTENDS: dict[str, str] = {
    "fft": "repro.kernels.fft.lowering",
    "jpeg": "repro.kernels.jpeg.lowering",
    "conv2d": "repro.kernels.conv2d.lowering",
    "gemm": "repro.kernels.gemm.lowering",
    "dsp": "repro.kernels.dsp.lowering",
}


def register_frontend(frontend: KernelFrontend) -> KernelFrontend:
    """Register (or idempotently re-register) one kernel frontend."""
    _FRONTENDS[frontend.kind] = frontend
    return frontend


def import_all_frontends() -> None:
    """Import every built-in kernel lowering (registers frontends and
    input-port encoder factories as an import side effect)."""
    for module in _BUILTIN_FRONTENDS.values():
        importlib.import_module(module)


def get_frontend(kind: str) -> KernelFrontend:
    """The registered frontend for ``kind``, importing it if needed."""
    frontend = _FRONTENDS.get(kind)
    if frontend is None and kind in _BUILTIN_FRONTENDS:
        importlib.import_module(_BUILTIN_FRONTENDS[kind])
        frontend = _FRONTENDS.get(kind)
    if frontend is None:
        hint = ""
        close = kernel_suggestions(kind)
        if close:
            hint = f" (did you mean {', '.join(close)}?)"
        raise CompileError(
            f"no registered kernel frontend for kind {kind!r}{hint}",
            pass_name="frontend",
        )
    return frontend


def frontend_names() -> tuple[str, ...]:
    """Every registered kernel kind, built-ins included, sorted."""
    import_all_frontends()
    return tuple(sorted(_FRONTENDS))


def kernel_suggestions(name: str) -> list[str]:
    """Close kernel-kind matches for a typo'd request."""
    known = set(_FRONTENDS) | set(_BUILTIN_FRONTENDS)
    return difflib.get_close_matches(name, sorted(known), n=3, cutoff=0.5)


# ---------------------------------------------------------------------------
# compilation entry points
# ---------------------------------------------------------------------------


def _get_or_compile(
    cache: ArtifactCache | None,
    kind: str,
    params: dict[str, Any],
    lower,
) -> CompiledArtifact:
    if cache is None:
        cache = get_cache()

    def build() -> CompiledArtifact:
        graph, plan = lower()
        return compile_plan(graph, plan)

    return cache.get_or_compile(kind, params, build)


def compile_kernel(
    kind: str,
    params: dict[str, Any] | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> CompiledArtifact:
    """Compile any registered kernel by kind and parameters.

    The generic frontend entry point: canonicalizes ``params`` against
    the kernel's registered defaults (so the cache request key is
    spelling-independent), then runs the registered lowering through the
    pass pipeline under the artifact cache.
    """
    frontend = get_frontend(kind)
    canonical = frontend.canonicalize(params)
    return _get_or_compile(
        cache, kind, canonical, lambda: frontend.lower(canonical)
    )


def compile_fft(
    plan,
    link_cost_ns: float = 0.0,
    *,
    cache: ArtifactCache | None = None,
) -> CompiledArtifact:
    """Compile the fabric FFT for one :class:`~repro.kernels.fft.decompose.FFTPlan`.

    ``link_cost_ns`` is part of the cache key (the switch-cost table
    depends on it).
    """
    return compile_kernel(
        "fft",
        {
            "n": plan.n,
            "m": plan.m,
            "cols": plan.cols,
            "link_cost_ns": float(link_cost_ns),
        },
        cache=cache,
    )


def compile_jpeg(
    quality: int = 75,
    chroma: bool = False,
    *,
    cache: ArtifactCache | None = None,
) -> CompiledArtifact:
    """Compile the single-tile JPEG block pipeline for one quantizer setup."""
    return compile_kernel(
        "jpeg",
        {"quality": int(quality), "chroma": bool(chroma)},
        cache=cache,
    )
