"""The per-link cost ``L`` of Eq. 1: checked once, and it moves only time.

* ``ReconfigPlanner`` refuses a NaN, infinite or negative ``L`` (the
  runtime manager delegates to it), the FFT lowering refuses it before
  anything is cached, and every other ``L`` check refuses NaN.
* On the twelve ``dse_sweep`` FFT shapes, three jobs on one manager
  (cold, resident, then generated epoch functions) at ``L`` in
  {0, 1500, 4800} compute the same outputs, per-epoch compute times,
  payload bytes and link counts as at ``L = 0``; each job takes its
  ``L = 0`` time plus ``link_changes x L``.  The third job runs every
  phase through its generated functions (no ``RuntimeManager._compute``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compile.cache import ArtifactCache
from repro.compile.frontends import compile_fft
from repro.errors import (
    CompileError,
    KernelError,
    MappingError,
    ProcessNetworkError,
    ReconfigError,
)
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.reconfig import ReconfigPlanner
from repro.fabric.rtms import RuntimeManager
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.perf_model import FFTPerformanceModel, StageProfile
from repro.kernels.fft.runner import FabricFFT
from repro.mapping.linkplan import LinkPlan
from repro.pn.epoch import Configuration, reconfig_cost_ns
from tests.compile.test_epoch_plan import _sweep_shapes

BAD = [math.nan, math.inf, -math.inf, -5.0]


@pytest.mark.parametrize("bad", BAD, ids=str)
def test_planner_and_manager_refuse(bad):
    with pytest.raises(ReconfigError):
        ReconfigPlanner(Mesh(1, 1), IcapPort(), link_cost_ns=bad)
    with pytest.raises(ReconfigError):
        RuntimeManager(Mesh(1, 1), link_cost_ns=bad)
    rtms = RuntimeManager(Mesh(1, 1), link_cost_ns=100.0)
    with pytest.raises(ReconfigError):
        rtms.link_cost_ns = bad
    assert rtms.link_cost_ns == rtms.planner.link_cost_ns == 100.0


@pytest.mark.parametrize("bad", BAD, ids=str)
def test_fft_lowering_refuses_before_caching(bad):
    cache = ArtifactCache()
    with pytest.raises(CompileError):
        compile_fft(FFTPlan(64, 8, 2), bad, cache=cache)
    assert len(cache) == 0
    with pytest.raises(CompileError):
        FabricFFT(FFTPlan(64, 8, 2), bad)


def test_other_link_cost_checks_refuse_nan():
    with pytest.raises(ReconfigError):
        IcapPort().schedule_fixed(math.nan)
    model = FFTPerformanceModel(FFTPlan(1024, 128, 2), StageProfile.table1())
    with pytest.raises(KernelError):
        model.t_link_ns(math.nan)
    with pytest.raises(MappingError):
        LinkPlan(placement=((0, 0),)).per_block_relink_ns(math.nan)
    with pytest.raises(ProcessNetworkError):
        reconfig_cost_ns(Configuration("a"), Configuration("b"), None, math.nan)


def _three_jobs(shape, link_cost_ns: float, calls: list) -> list[dict]:
    """Cold, resident and generated jobs on one manager, with what each
    computed, its epochs' L-free facts, its duration and link changes,
    and how many phases ran through ``RuntimeManager._compute`` (each
    call appends to ``calls``)."""
    n, m, cols = shape
    fft = FabricFFT(FFTPlan(n, m, cols), link_cost_ns)
    mesh = Mesh(fft.plan.rows, fft.plan.cols)
    rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=link_cost_ns,
                          engine="fast")
    rng = np.random.default_rng(n + cols)
    jobs = []
    for j in range(3):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (4 * n)
        before, calls[:] = rtms.now_ns, []
        report = rtms.execute_artifact(fft.artifact, x, tag=f"j{j}_")
        jobs.append({
            "output": fft.read_output(mesh).tobytes(),
            "epochs": [(e.compute_ns, e.reconfig_bytes, e.link_changes)
                       for e in report.epochs],
            "duration_ns": rtms.now_ns - before,
            "link_changes": report.link_changes,
            "computes": len(calls),
        })
    return jobs


@pytest.mark.parametrize("shape", _sweep_shapes(), ids=str)
def test_link_cost_moves_only_time(shape, monkeypatch):
    calls: list = []
    compute = RuntimeManager._compute

    def counted(self, *args):
        calls.append(1)
        return compute(self, *args)

    monkeypatch.setattr(RuntimeManager, "_compute", counted)
    free = _three_jobs(shape, 0.0, calls)
    assert free[2]["computes"] == 0
    for link_cost_ns in (1500.0, 4800.0):
        jobs = _three_jobs(shape, link_cost_ns, calls)
        for job, base in zip(jobs, free):
            assert job["output"] == base["output"]
            assert job["epochs"] == base["epochs"]
            assert job["duration_ns"] == pytest.approx(
                base["duration_ns"] + job["link_changes"] * link_cost_ns,
                rel=0.0, abs=1e-6)
        assert jobs[2]["computes"] == 0, link_cost_ns
