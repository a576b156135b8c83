"""Pre-wired explorations for the two kernels.

``explore_fft`` sweeps (columns x link cost) for an N-point FFT and
scores each point; ``explore_jpeg`` sweeps (tile budget x algorithm).
Both return lists of :class:`~repro.dse.objectives.DesignPoint` ready for
Pareto extraction or the report formatters; they are also the backing of
the Figs. 10-12 / 16-17 benches.
"""

from __future__ import annotations

from repro.dse.objectives import DesignPoint
from repro.errors import DSEError
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.perf_model import FFTPerformanceModel, StageProfile
from repro.kernels.jpeg.pipeline_model import rebalance_series
from repro.mapping.cost import TileCostModel

__all__ = ["explore_fft", "explore_jpeg", "fft_point"]


def fft_point(
    n: int,
    m: int,
    cols: int,
    link_cost_ns: float,
    profile: StageProfile | None = None,
) -> DesignPoint:
    """Score one FFT design point (module-level for process pools)."""
    plan = FFTPlan(n=n, m=m, cols=cols)
    if profile is None:
        profile = (
            StageProfile.table1()
            if plan.stages == 10 and m == 128
            else StageProfile.uniform(plan.stages)
        )
    model = FFTPerformanceModel(plan=plan, profile=profile)
    breakdown = model.evaluate(link_cost_ns)
    # Busy fraction: butterfly beats over the whole period.
    utilization = breakdown.tau[2] / breakdown.total_ns if breakdown.total_ns else 0.0

    # Power: each FFT executes every stage once per row; at the reference
    # 2.5 ns/instruction the butterfly runtimes convert to instruction
    # counts, plus the copy processes.  Static power scales with tiles.
    from repro.fabric.energy import EnergyModel
    from repro.units import CYCLE_NS

    instructions_per_fft = plan.rows * (
        sum(profile.bf_ns) + profile.vcp_ns + profile.hcp_ns
    ) / CYCLE_NS
    ffts_per_s = breakdown.throughput_per_s
    power_mw = EnergyModel().steady_state_mw(
        n_tiles=plan.n_tiles,
        instructions_per_s=instructions_per_fft * ffts_per_s,
        icap_bytes_per_s=(breakdown.tau[1] / 1e9) * ffts_per_s * 180e6,
        link_switches_per_s=(plan.cols + sum(plan.exchanges_per_beat()))
        * plan.rows * ffts_per_s,
    )
    return DesignPoint.make(
        params={"n": n, "m": m, "cols": cols, "link_cost_ns": link_cost_ns},
        throughput_per_s=breakdown.throughput_per_s,
        n_tiles=plan.n_tiles,
        utilization=utilization,
        power_mw=power_mw,
    )


def explore_fft(
    n: int = 1024,
    m: int = 128,
    cols_list: tuple[int, ...] = (1, 2, 5, 10),
    link_costs_ns: tuple[float, ...] = tuple(range(0, 5001, 100)),
    profile: StageProfile | None = None,
) -> list[DesignPoint]:
    """The Figs. 10-12 design space as scored points."""
    if not cols_list or not link_costs_ns:
        raise DSEError("cols_list and link_costs_ns must be non-empty")
    return [
        fft_point(n, m, cols, cost, profile)
        for cols in cols_list
        for cost in link_costs_ns
    ]


def explore_jpeg(
    max_tiles: int = 25,
    algorithms: tuple[str, ...] = ("one", "two", "opt"),
    model: TileCostModel | None = None,
) -> list[DesignPoint]:
    """The Figs. 16-17 design space as scored points."""
    points = []
    for algorithm, series in rebalance_series(
        max_tiles=max_tiles, algorithms=algorithms, model=model
    ).items():
        for entry in series:
            points.append(
                DesignPoint.make(
                    params={"algorithm": algorithm, "tiles": entry.n_tiles},
                    throughput_per_s=entry.images_per_s,
                    n_tiles=entry.n_tiles,
                    utilization=entry.utilization,
                )
            )
    return points
