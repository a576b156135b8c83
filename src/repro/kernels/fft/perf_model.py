"""The empirical FFT performance equation (Sec. 3.2, Eqs. 2-14).

Total per-FFT time in steady state is ``tau = sum_i tau_i``:

========  =====================================================
tau_0     receive input from the preprocessing circuit (t_hcp)
tau_1     reload twiddles of YELLOW tiles: events x (N/2) words
tau_2     butterfly beats: sum over pipeline beats of
          max(slowest column's BF, R_k x t_l) — vertical link
          reconfiguration overlaps butterfly execution, with the
          single configuration port serializing the R_k columns
          exchanging in the same beat
tau_3     reload vcp src/dst variables: events x t_d (or the
          Table-2 self-update cost when optimized)
tau_4     vertical copy executions: max-per-column x t_vcp
tau_5     horizontal link (re)configuration: cols x t_l
tau_6     hcp data-memory reload: 0 (same self-update trick)
tau_7     send results onward (t_hcp)
========  =====================================================

with ``t_l = rows x L`` (Eq. 4: configuring a column's links costs one
per-link reconfiguration L per tile in the column) and
``t_d = 2 x rows x 33.33 ns`` (Eq. 5: two copy variables per tile).

The published case tables fall out of the plan's structure:

* yellow events {3, 3, 2, 0} for cols {1, 2, 5, 10} = within-column
  stage transitions landing at stage <= X (Eq. 7);
* vcp reload events {2, 2, 1, 0} = sum over columns of
  (exchanges - 1)+ (Eq. 10, and exactly Table 2's "previous cost" when
  multiplied by t_d);
* vcp executions {3, 3, 2, 1} = max exchanges in any one column
  (Eq. 11; exchanges in different columns overlap in the pipeline);
* beat link bills: the ``3 x t_l`` of case D and the ``(2 - i)`` of
  case C are R_k, the columns exchanging in beat k (Eqs. 8-9).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import KernelError
from repro.kernels.fft.decompose import FFTPlan
from repro.pn.profiles import FFT1024_PROFILE
from repro.units import DMEM_WORD_RELOAD_NS, NS_PER_S

__all__ = [
    "StageProfile",
    "TauBreakdown",
    "FFTPerformanceModel",
    "CopyCostRow",
    "copy_cost_table",
]

#: Copy variables per tile that vcp must retarget (source + destination).
_REGCP = 2

#: Instructions (at 2.5 ns) for one in-place vcp variable update; with the
#: one-time setup below this reproduces Table 2's "new cost" column
#: (15 / 15 / 10 / 0 ns) exactly.
_VCP_UPDATE_NS = 5.0
_VCP_UPDATE_SETUP_NS = 5.0


@dataclass(frozen=True)
class StageProfile:
    """Measured process runtimes feeding the model.

    ``bf_ns[i]`` is stage i's butterfly time on one tile; ``vcp_ns`` and
    ``hcp_ns`` are the copy processes.  :meth:`table1` loads the paper's
    published 1024-point profile; :meth:`uniform` builds synthetic
    profiles for other sizes; the fabric runner can produce simulator-
    measured profiles via ``FabricFFT.measured_profile``.
    """

    bf_ns: tuple[float, ...]
    vcp_ns: float
    hcp_ns: float

    def __post_init__(self) -> None:
        if not self.bf_ns:
            raise KernelError("profile needs at least one stage runtime")
        if any(t < 0 for t in self.bf_ns) or self.vcp_ns < 0 or self.hcp_ns < 0:
            raise KernelError("profile runtimes must be non-negative")

    @classmethod
    def table1(cls) -> "StageProfile":
        """The published 1024-point profile (Table 1)."""
        bf = tuple(FFT1024_PROFILE[f"BF{i}"][0] for i in range(10))
        return cls(bf_ns=bf, vcp_ns=FFT1024_PROFILE["vcp"][0],
                   hcp_ns=FFT1024_PROFILE["hcp"][0])

    @classmethod
    def uniform(cls, stages: int, bf_ns: float = 3000.0,
                vcp_ns: float = 789.0, hcp_ns: float = 1557.0) -> "StageProfile":
        """A flat synthetic profile for arbitrary stage counts."""
        if stages < 1:
            raise KernelError("stages must be >= 1")
        return cls(bf_ns=(bf_ns,) * stages, vcp_ns=vcp_ns, hcp_ns=hcp_ns)

    @property
    def stages(self) -> int:
        return len(self.bf_ns)


@dataclass(frozen=True)
class TauBreakdown:
    """All eight tau terms plus the total (Eq. 2)."""

    tau: tuple[float, ...]  # tau_0 .. tau_7

    def __post_init__(self) -> None:
        if len(self.tau) != 8:
            raise KernelError("expected exactly eight tau terms")

    @property
    def total_ns(self) -> float:
        return sum(self.tau)

    @property
    def throughput_per_s(self) -> float:
        """FFTs per second (Figs. 10-12's y-axis)."""
        total = self.total_ns
        if total <= 0:
            raise KernelError("non-positive total time")
        return NS_PER_S / total

    def __str__(self) -> str:
        terms = "  ".join(f"t{i}={t:.0f}" for i, t in enumerate(self.tau))
        return f"{terms}  total={self.total_ns:.0f}ns"


@dataclass(frozen=True)
class FFTPerformanceModel:
    """Evaluator for one (plan, profile) pair with ablation switches.

    Parameters
    ----------
    plan / profile:
        The decomposition and the per-stage runtimes.
    optimize_twiddles:
        On (paper default): only YELLOW events reload, ``events x N/2``
        words.  Off: every within-column stage transition reloads N/2.
    optimize_vcp_update:
        On: vcp retargets its variables in place (Table 2 "new cost").
        Off: reload through the ICAP (Table 2 "previous cost").
    overlap_vertical_links:
        On: beat time is max(BF, links) — Fig. 9(b).  Off: BF + links
        serialize — Fig. 9(a).
    """

    plan: FFTPlan
    profile: StageProfile
    optimize_twiddles: bool = True
    optimize_vcp_update: bool = True
    overlap_vertical_links: bool = True

    def __post_init__(self) -> None:
        if self.profile.stages != self.plan.stages:
            raise KernelError(
                f"profile has {self.profile.stages} stage runtimes, "
                f"plan needs {self.plan.stages}"
            )

    # -- structural counts (see module docstring) -----------------------

    def yellow_events(self) -> int:
        """Within-column transitions landing at a stage <= X (Eq. 7)."""
        x = self.plan.exchange_stage_count
        events = 0
        for col in range(self.plan.cols):
            stages = self.plan.stages_of_column(col)
            events += sum(1 for s in stages if s != stages.start and s <= x)
        return events

    def naive_yellow_events(self) -> int:
        """Every within-column transition reloads (ablation baseline)."""
        return self.plan.stages - self.plan.cols

    def vcp_reload_events(self) -> int:
        """Columns' (exchanges - 1)+ summed (Eq. 10 / Table 2 factor)."""
        return sum(
            max(0, self.plan.exchanges_in_column(c) - 1)
            for c in range(self.plan.cols)
        )

    def vcp_executions(self) -> int:
        """Max exchanges in any single column (Eq. 11).

        Exchanges in different columns overlap in the pipeline; at least
        one vertical copy is always on the critical path when the plan
        has exchange stages at all.
        """
        per_col = [
            self.plan.exchanges_in_column(c) for c in range(self.plan.cols)
        ]
        return max(per_col) if per_col else 0

    # -- cost atoms ------------------------------------------------------

    def t_link_ns(self, link_cost_ns: float) -> float:
        """Eq. 4: configure one column's links = rows x L."""
        if not link_cost_ns >= 0:  # NaN too
            raise KernelError("link cost must be non-negative")
        return self.plan.rows * link_cost_ns

    def t_d_ns(self) -> float:
        """Eq. 5: reload one column's vcp variables via the ICAP."""
        return _REGCP * self.plan.rows * DMEM_WORD_RELOAD_NS

    # -- tau terms ---------------------------------------------------------

    def evaluate(self, link_cost_ns: float) -> TauBreakdown:
        """All eight tau terms for a given per-link cost L."""
        plan = self.plan
        t_l = self.t_link_ns(link_cost_ns)

        tau0 = self.profile.hcp_ns

        events = (
            self.yellow_events()
            if self.optimize_twiddles
            else self.naive_yellow_events()
        )
        tau1 = events * (plan.n / 2) * DMEM_WORD_RELOAD_NS

        g = plan.stages_per_col
        beats = plan.exchanges_per_beat()
        tau2 = 0.0
        for k in range(g):
            slowest_bf = max(
                self.profile.bf_ns[c * g + k] for c in range(plan.cols)
            )
            link_bill = beats[k] * t_l
            if self.overlap_vertical_links:
                tau2 += max(slowest_bf, link_bill)
            else:
                tau2 += slowest_bf + link_bill

        reloads = self.vcp_reload_events()
        if self.optimize_vcp_update:
            tau3 = reloads * _VCP_UPDATE_NS + (
                _VCP_UPDATE_SETUP_NS if reloads else 0.0
            )
        else:
            tau3 = reloads * self.t_d_ns()

        tau4 = self.vcp_executions() * self.profile.vcp_ns
        tau5 = plan.cols * t_l
        tau6 = 0.0
        tau7 = self.profile.hcp_ns
        return TauBreakdown((tau0, tau1, tau2, tau3, tau4, tau5, tau6, tau7))

    def throughput(self, link_cost_ns: float) -> float:
        """FFTs per second at link cost L."""
        return self.evaluate(link_cost_ns).throughput_per_s

    def sweep(self, link_costs_ns: list[float]) -> list[tuple[float, float]]:
        """(L, throughput) series — one curve of Fig. 10/11."""
        return [(L, self.throughput(L)) for L in link_costs_ns]

    def with_options(self, **kwargs) -> "FFTPerformanceModel":
        """Copy with ablation switches changed."""
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Table 2: optimized copy processes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CopyCostRow:
    """One row of Table 2."""

    cols: int
    prev_cost_ns: float
    new_cost_ns: float

    @property
    def improvement_ns(self) -> float:
        return self.prev_cost_ns - self.new_cost_ns


def copy_cost_table(
    n: int = 1024,
    m: int = 128,
    cols_list: tuple[int, ...] = (1, 2, 5, 10),
    profile: StageProfile | None = None,
) -> list[CopyCostRow]:
    """Regenerate Table 2: per-FFT vcp retargeting cost, old vs new.

    "Previous" reloads the copy variables through the ICAP
    (``events x t_d``); "new" updates them in place with a couple of
    instructions per event.  For the published 1024-point case this
    yields exactly 1066.6/1066.6/533.3/0 vs 15/15/10/0 ns.
    """
    rows = []
    for cols in cols_list:
        plan = FFTPlan(n=n, m=m, cols=cols)
        prof = profile if profile is not None else (
            StageProfile.table1()
            if plan.stages == 10
            else StageProfile.uniform(plan.stages)
        )
        model = FFTPerformanceModel(plan=plan, profile=prof)
        events = model.vcp_reload_events()
        prev = events * model.t_d_ns()
        new = events * _VCP_UPDATE_NS + (_VCP_UPDATE_SETUP_NS if events else 0.0)
        rows.append(CopyCostRow(cols=cols, prev_cost_ns=prev, new_cost_ns=new))
    return rows
