"""``repro.compile`` — the configuration-compilation pipeline: a typed
IR (:mod:`repro.compile.ir`), eight passes sharing one shadow walk
(:mod:`repro.compile.passes`), stable content addressing
(:mod:`repro.compile.hashing`), a content-addressed artifact cache
(:mod:`repro.compile.cache`) and kernel frontends
(:mod:`repro.compile.frontends`); ``python -m repro compile`` demos it.
"""

from repro.compile.cache import (
    ArtifactCache,
    CacheStats,
    cache_stats,
    clear_cache,
    get_cache,
)
from repro.compile.frontends import (
    KernelFrontend,
    compile_fft,
    compile_jpeg,
    compile_kernel,
    compile_plan,
    frontend_names,
    frontend_summaries,
    get_frontend,
    import_all_frontends,
    kernel_suggestions,
    register_frontend,
)
from repro.compile.graph import DataflowGraph, Process
from repro.compile.hashing import canonical_bytes, plan_hash, plan_hash_prefix
from repro.compile.ir import (
    CompiledArtifact,
    EpochPlan,
    InputPort,
    IRBuilder,
    KernelGraph,
    LinkDemand,
    MemoryDemand,
    PassTiming,
    ProcessNode,
    rebuild_port_encoder,
    register_port_encoder,
)
from repro.compile.passes import CompileUnit, PassManager, default_passes

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CompileUnit",
    "CompiledArtifact",
    "DataflowGraph",
    "EpochPlan",
    "IRBuilder",
    "InputPort",
    "KernelFrontend",
    "KernelGraph",
    "LinkDemand",
    "MemoryDemand",
    "PassManager",
    "PassTiming",
    "Process",
    "ProcessNode",
    "cache_stats",
    "canonical_bytes",
    "clear_cache",
    "compile_fft",
    "compile_jpeg",
    "compile_kernel",
    "compile_plan",
    "default_passes",
    "frontend_names",
    "frontend_summaries",
    "get_cache",
    "get_frontend",
    "import_all_frontends",
    "kernel_suggestions",
    "register_frontend",
    "plan_hash",
    "plan_hash_prefix",
    "rebuild_port_encoder",
    "register_port_encoder",
]
