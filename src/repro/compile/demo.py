"""``python -m repro compile`` — the configuration-compiler walkthrough.

Compiles every kernel in the frontend registry (default parameters)
through the full pipeline twice, printing per-pass wall times, the
artifact content hashes, the demand summary the validation passes work
from, a corner of the switch-cost table, and the cache counters proving
the second compile of each kernel is served without lowering.  The
kernel list comes from :func:`repro.compile.frontends.frontend_names` —
registering a new kernel adds it to this demo without touching this
file.  Deterministic apart from the wall-clock timings.
"""

from __future__ import annotations

from repro.compile.cache import ArtifactCache
from repro.compile.frontends import compile_kernel, frontend_names, get_frontend
from repro.compile.ir import CompiledArtifact

__all__ = ["main"]


def _describe(artifact: CompiledArtifact) -> list[str]:
    plan, graph = artifact.plan, artifact.graph
    params = ", ".join(f"{k}={v}" for k, v in plan.params)
    lines = [
        f"  plan                : {plan.kind} ({params}) on a "
        f"{plan.rows}x{plan.cols} mesh",
        f"  epochs              : {len(plan.setup)} setup + "
        f"{len(plan.body)} body"
        + (f" + input port {plan.input_port.name!r}"
           if plan.input_port else ""),
        f"  demand graph        : {len(graph.processes)} process firings, "
        f"{len(graph.links)} link demands, {len(graph.memory)} memory demands",
        f"  distinct programs   : {len(artifact.programs)} "
        f"({sum(p.imem_words for p in artifact.programs)} instruction words, "
        f"eagerly predecoded)",
        f"  cold bitstream      : {artifact.total_cold_bytes} bytes over "
        f"{sum(artifact.cold_link_changes)} link changes",
        f"  artifact hash       : {artifact.artifact_hash}",
        "  pass timings        :",
    ]
    for timing in artifact.pass_timings:
        lines.append(f"    {timing.name:<18} {timing.wall_ns / 1e6:10.3f} ms")
    k = min(3, len(artifact.epoch_names))
    if k:
        lines.append(
            f"  switch-cost table   : {len(artifact.epoch_names)}^2 entries; "
            f"top-left {k}x{k} corner (ns):"
        )
        for i in range(k):
            row = "  ".join(
                f"{artifact.switch_cost_ns(i, j):10.1f}" for j in range(k)
            )
            lines.append(f"    after {artifact.epoch_names[i]:<18} {row}")
    return lines


def main(argv: list[str] | None = None) -> int:
    del argv  # no options yet; kept for CLI symmetry
    cache = ArtifactCache()
    kinds = frontend_names()
    print("=== Configuration compiler demo: KernelGraph -> EpochPlan -> "
          "CompiledArtifact ===")
    print()
    artifacts: dict[str, CompiledArtifact] = {}
    for index, kind in enumerate(kinds, start=1):
        frontend = get_frontend(kind)
        defaults = ", ".join(f"{k}={v}" for k, v in frontend.defaults)
        print(f"[{index}] {kind}: {frontend.description} ({defaults})")
        artifacts[kind] = compile_kernel(kind, cache=cache)
        for line in _describe(artifacts[kind]):
            print(line)
        print()
    print(f"[{len(kinds) + 1}] recompiling all {len(kinds)} "
          "(the cache in action)")
    same = all(
        compile_kernel(kind, cache=cache) is artifacts[kind] for kind in kinds
    )
    stats = cache.stats
    print(f"  same artifacts      : {same}")
    print(f"  cache               : {stats.hits} hits / {stats.misses} misses "
          f"({stats.lowers} lowerings, hit rate {stats.hit_rate:.0%})")
    ok = same and stats.hits == len(kinds)
    print()
    print("cache check:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
