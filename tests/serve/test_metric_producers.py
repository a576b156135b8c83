"""Every family the service exports is produced by a plain trace.

A short journaled trace over every registered kernel must move each
``serve_*`` family off zero at some point, or the family reports
nothing a real run measures.  The exceptions fire only on an event the
trace does not stage; each is listed with that event.
"""

import asyncio

import numpy as np

from repro.compile.frontends import frontend_names, get_frontend
from repro.serve.jobs import JobRequest, JobStatus, spec_for
from repro.serve.service import FabricJobService

#: family -> the event that produces it, which a healthy trace lacks.
EVENT_ONLY = {
    "serve_jobs_rejected_total": "admission control turns a job away",
    "serve_job_retries_total": "an attempt fails and is retried",
    "serve_jobs_expired_total": "a job's deadline lapses",
    "serve_jobs_requeued_total": "a job's fabric is quarantined mid-job",
    "serve_worker_quarantined_total": "a fabric is quarantined",
    "serve_worker_readmitted_total": "a quarantined fabric is readmitted",
    "serve_worker_health": "a fabric degrades (0 is healthy)",
    "serve_breaker_state": "a circuit breaker leaves closed (0)",
    "serve_breaker_transitions_total": "a circuit breaker opens or closes",
    "serve_probe_jobs_total": "a half-open breaker admits a probe",
    "serve_queue_delay_ewma_seconds": "a load shedder is configured",
    "serve_shed_probability": "a load shedder is configured",
    "serve_recovered_jobs_total": "a service starts over a journal with jobs",
    "serve_journal_fsyncs_total": "the journal rotates a segment",
}


def _reading(family: dict) -> float:
    if family["kind"] == "histogram":
        return family["count"]
    return max((abs(value) for value in family["values"].values()), default=0.0)


def test_every_exported_family_has_a_producer(tmp_path):
    snapshots = []

    async def sample(service):  # gauges fall back to 0 once jobs end
        while True:
            snapshots.append(service.metrics.snapshot())
            await asyncio.sleep(0.002)

    async def trace():
        service = FabricJobService(pool_size=1, journal=tmp_path)
        async with service:
            sampler = asyncio.create_task(sample(service))
            futures = []
            for kind in frontend_names():
                frontend = get_frontend(kind)
                payload = frontend.example_payload(
                    frontend.canonicalize(None), np.random.default_rng(0)
                )
                for _ in range(2):  # the second job of a kind runs warm
                    futures.append(await service.submit(
                        JobRequest(spec=spec_for(kind), payload=payload)
                    ))
            results = [await future for future in futures]
            sampler.cancel()
        snapshots.append(service.metrics.snapshot())
        return results

    results = asyncio.run(trace())
    assert all(result.status is JobStatus.DONE for result in results)
    families = set(snapshots[-1])
    assert set(EVENT_ONLY) <= families
    silent = sorted(
        name for name in families - set(EVENT_ONLY)
        if not any(_reading(snapshot[name]) for snapshot in snapshots)
    )
    assert silent == []
