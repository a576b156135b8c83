"""The kernel-frontend registry and the byte-stability contract.

``TestPinnedHashes`` is the acceptance gate of the dataflow-frontend
refactor: FFT and JPEG re-expressed through :class:`DataflowGraph` must
produce byte-for-byte the artifact hashes the hand lowerings produced,
so every warm :class:`~repro.compile.cache.ArtifactCache` entry (memory
and disk tier alike) stays valid.  The hex strings below were captured
from the pre-refactor lowerings; changing any of them invalidates every
deployed cache and MUST NOT happen silently.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.compile import ArtifactCache, clear_cache
from repro.compile.frontends import (
    compile_fft,
    compile_jpeg,
    compile_kernel,
    frontend_names,
    frontend_summaries,
    get_frontend,
    kernel_suggestions,
)
from repro.compile.hashing import plan_hash_prefix
from repro.errors import CompileError
from repro.kernels.fft.decompose import FFTPlan

#: (kind, params) -> pre-refactor artifact hash.  Captured from the
#: hand lowerings at the commit introducing the dataflow frontend.
PINNED_HASHES = {
    ("fft", (("cols", 2), ("link_cost_ns", 100.0), ("m", 8), ("n", 64))):
        "4e62172f921d3cd1b1af81890c952c1d5aa96d1f8214828a1825f82038c8e1a1",
    ("fft", (("cols", 2), ("link_cost_ns", 0.0), ("m", 8), ("n", 64))):
        "7e8b1e87fec945ccc549a92c68a2449ebf29a9c9c63cf1879bae061f5f6d8fbb",
    ("fft", (("cols", 1), ("link_cost_ns", 100.0), ("m", 16), ("n", 16))):
        "958ab87a5dae5ebc4eaafac646f371729a2843249e23227f76f23327ad0c11b9",
    ("fft", (("cols", 4), ("link_cost_ns", 100.0), ("m", 16), ("n", 256))):
        "aeb0c699d1223c958bc215828f6f3aa78aad01d022ecd585fc7df9b787f4cb88",
    ("jpeg", (("chroma", False), ("quality", 75))):
        "4df4e16cf3633bd1c4b8d6557e2e410f2e5c947199abb3327ed80ff63caf0b2a",
    ("jpeg", (("chroma", True), ("quality", 90))):
        "95e786f8db2c7bb7809f6ad437cf94325421d5dd11bb4934d9b969a0f39811b9",
    ("jpeg", (("chroma", False), ("quality", 50))):
        "6b46023ea2a1ade01bb5f2983cf113c942091005ded8598e960cdc5ed06a67c3",
}

#: SHA-256 over the sorted ``(n, m, cols, L, artifact_hash, cold_bytes,
#: cold_link_changes, plan_hash_prefix)`` rows of the 204 design-space
#: sweep plans (Figs. 10-12: three sizes, the first four divisor column
#: counts of each, 17 link costs).  Captured before the one-walk compile
#: (frozen images, shadow-walk passes) replaced the per-pass walks.
SWEEP_PLANS_SHA = (
    "102d53d7bf75fc133981f1745950d9198c34c340bceadcec9188413693bdcb58"
)


def _sweep_shapes():
    for n, m in ((1024, 64), (256, 32), (64, 8)):
        stages = int(math.log2(n))
        divisors = [c for c in range(1, stages + 1) if stages % c == 0]
        yield from ((n, m, cols) for cols in divisors[:4])


class TestPinnedHashes:
    @pytest.mark.parametrize(
        "kind,params,want",
        [(k, dict(p), h) for (k, p), h in PINNED_HASHES.items()],
    )
    def test_graph_lowering_is_byte_stable(self, kind, params, want):
        assert compile_kernel(kind, params).artifact_hash == want

    def test_every_sweep_plan_keeps_its_identity(self):
        cache = ArtifactCache(capacity=1)
        rows = []
        for n, m, cols in _sweep_shapes():
            for cost in range(0, 4801, 300):
                artifact = compile_fft(FFTPlan(n, m, cols), float(cost),
                                       cache=cache)
                rows.append((
                    n, m, cols, float(cost), artifact.artifact_hash,
                    tuple(artifact.cold_bytes),
                    tuple(artifact.cold_link_changes),
                    plan_hash_prefix(artifact),
                ))
        assert len(rows) == 204
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert digest == SWEEP_PLANS_SHA

    def test_typed_conveniences_hit_the_same_cache_entries(self):
        clear_cache()
        a = compile_fft(FFTPlan(64, 8, 2), link_cost_ns=100.0)
        b = compile_kernel(
            "fft", {"n": 64, "m": 8, "cols": 2, "link_cost_ns": 100.0}
        )
        assert a is b
        c = compile_jpeg(75, False)
        d = compile_kernel("jpeg", {"quality": 75, "chroma": False})
        assert c is d


class TestRegistry:
    def test_all_five_builtins_register(self):
        assert frontend_names() == ("conv2d", "dsp", "fft", "gemm", "jpeg")

    def test_summaries_cover_every_kind(self):
        summaries = frontend_summaries()
        assert sorted(summaries) == sorted(frontend_names())
        assert all(summaries.values())

    def test_unknown_kind_is_a_typed_frontend_error(self):
        with pytest.raises(CompileError) as excinfo:
            get_frontend("fft2d")
        assert excinfo.value.pass_name == "frontend"
        assert "did you mean" in str(excinfo.value)

    def test_kernel_suggestions_catch_typos(self):
        assert "gemm" in kernel_suggestions("gem")
        assert "conv2d" in kernel_suggestions("conv")
        assert kernel_suggestions("zzzzzz") == []

    @pytest.mark.parametrize("kind", ["conv2d", "gemm", "dsp", "fft", "jpeg"])
    def test_oracle_contract_is_complete(self, kind):
        frontend = get_frontend(kind)
        assert frontend.example_payload is not None
        assert frontend.reference is not None
        assert frontend.description

    def test_canonicalize_coerces_by_default_type(self):
        frontend = get_frontend("fft")
        canonical = frontend.canonicalize({"n": 16.0, "link_cost_ns": 0})
        assert canonical == {
            "n": 16, "m": 8, "cols": 2, "link_cost_ns": 0.0
        }
        assert isinstance(canonical["n"], int)
        assert isinstance(canonical["link_cost_ns"], float)

    def test_canonicalize_rejects_unknown_parameters(self):
        with pytest.raises(CompileError, match="no parameter 'radix'"):
            get_frontend("fft").canonicalize({"radix": 4})

    def test_spellings_share_one_cache_entry(self):
        clear_cache()
        a = compile_kernel("gemm", {"n": 8, "block": 4})
        b = compile_kernel("gemm", {"n": 8.0, "block": 4.0})
        c = compile_kernel("gemm")
        assert a is b is c

    def test_spec_round_trip(self):
        for kind in frontend_names():
            frontend = get_frontend(kind)
            spec_params = frontend.spec_params(None)
            assert len(spec_params) == len(frontend.param_names)
            back = frontend.params_from_spec(spec_params)
            assert back == frontend.canonicalize(None)

    def test_params_from_spec_checks_arity(self):
        with pytest.raises(CompileError, match="spec wants params"):
            get_frontend("gemm").params_from_spec((8,))
