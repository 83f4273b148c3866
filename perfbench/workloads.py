"""The benchmark's workloads: set-up, one timed iteration, output checks.

Each workload drives the public API from this one client process. Its
graph is a random unit-disk graph generated from the run's seed at the
density every earlier perf record used (``side = sqrt(n * pi / 9)``,
about nine neighbours per node), stored with ``CorpusStore.add`` and
mmap-loaded with ``CorpusStore.load``; the program sees only that
graph and the seed.

- ``mis-20k``: one ``api.run("mis")`` at n = 2x10^4 per iteration,
  draw ``d`` seeded ``(seed, d)``: the round count of MIS is random,
  so a run averages a fixed set of protocol draws on its graph.
  Engine-bound: coins and delivery dominate, no store and no HTTP.
- ``campaign-cold``: a 400-job Decay campaign (200 trials x an
  all-auto and a faulted policy) submitted over HTTP to an in-process
  service on an empty report store. Store writes and ``api.run``
  dominate, and it is the one workload where the fault layer works.
- ``campaign-warm``: the same campaign resubmitted to the store that
  set-up filled, so every job is a cache hit. Store reads and report
  decoding dominate; the engine does nothing.

Every iteration checks its output against the specification: an
independent set that is maximal for MIS, every job executed for a cold
campaign, every job served from the store with a summary identical to
the cold run's for a warm one.
"""

from __future__ import annotations

import math
import pathlib
import shutil
import tempfile
import time
from typing import Any

import numpy as np

import repro.api as api
from repro import corpus
from repro.core import MISConfig
from repro.service import (
    CampaignSpec,
    ReportStore,
    ServiceClient,
    start_in_thread,
)

MIS_N = 20_000
CAMPAIGN_N = 2000
CAMPAIGN_TRIALS = 200


class CheckFailed(Exception):
    """An output that breaks the specification the workload checks."""


def side_for(n: int) -> float:
    """Square side giving the perf records' density: about 9 neighbours."""
    return math.sqrt(n * math.pi / 9.0)


def entry_bytes(directory: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Iteration:
    """What one timed iteration produced."""

    def __init__(self, wall: float, jobs: int, steps: float) -> None:
        self.wall = wall
        self.jobs = jobs
        self.steps = steps
        self.failed = 0
        #: Delivery kernel and kernel rows that ran; ``None`` if none did.
        self.kernel: Any = None
        self.kernel_use: Any = None
        self.store = {"hits": 0, "misses": 0, "writes": 0}
        #: Specification checks this iteration's output failed.
        self.violations: list[str] = []
        #: A campaign's settled status line.
        self.final: dict[str, Any] = {}


class Workload:
    """Set-up once per repeat, then timed iterations on the last set-up."""

    name = ""
    n = 0
    #: How often set-up runs in one benchmark run (``setup_s`` is the
    #: median); the last repeat's state is what the iterations use.
    setup_repeats = 9
    #: Distinct inputs a run times, draws ``0 .. draws - 1``. A run
    #: times whole cycles of them, so it times the same work however
    #: fast the program is.
    draws = 1

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        self.seed = seed
        self.work = work
        self.digest: str | None = None
        self.corpus_bytes = 0
        self.reports: ReportStore | None = None

    def setup(self, repeat: int) -> None:
        """Generate, add and mmap-load this seed's graph."""
        directory = self.work / f"corpus-{repeat}"
        graph = corpus.random_udg_csr(
            self.n, side_for(self.n), np.random.default_rng(self.seed),
            connected=False,
        )
        self.corpus_store = corpus.CorpusStore(directory)
        self.digest = self.corpus_store.add(graph)
        self.graph = self.corpus_store.load(self.digest)
        self.corpus_bytes = entry_bytes(directory)

    def iterate(self, draw: int) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        pass


class MisWorkload(Workload):
    name = "mis-20k"
    n = MIS_N
    draws = 3

    def setup(self, repeat: int) -> None:
        super().setup(repeat)
        indptr = np.asarray(self.graph.indptr)
        self.indices = np.asarray(self.graph.indices)
        self.rows = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(indptr)
        )

    def iterate(self, draw: int) -> Iteration:
        started = time.perf_counter()
        report = api.run(
            "mis", corpus=self.graph,
            rng=np.random.default_rng([self.seed, draw]),
            config=MISConfig(eed_C=2),
        )
        wall = time.perf_counter() - started
        result = report.result
        mask = np.asarray(result.mis_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise CheckFailed(f"mis_mask has shape {mask.shape}")
        out = Iteration(wall, jobs=1, steps=report.steps)
        clashes = int(np.count_nonzero(mask[self.rows] & mask[self.indices]))
        if clashes:
            out.violations.append(
                f"MIS is not independent: {clashes // 2} edges join "
                f"two members"
            )
        covered = mask.copy()
        covered[self.rows[mask[self.indices]]] = True
        out.failed = int(not (result.all_removed and covered.all()))
        out.kernel = report.provenance["delivery"]["kernel"]
        out.kernel_use = report.provenance["delivery"]["kernel_use"]
        return out


class CampaignWorkload(Workload):
    n = CAMPAIGN_N

    def setup(self, repeat: int) -> None:
        super().setup(repeat)
        faults = api.FaultSchedule.sample(
            self.n, horizon=16, seed=self.seed, crash_rate=0.02,
            churn=0.05, jam=0.01, hetero=0.1,
        )
        self.spec = CampaignSpec(
            protocol="decay",
            corpus=(self.digest,),
            n_trials=CAMPAIGN_TRIALS,
            seed=self.seed,
            policies=(
                api.ExecutionPolicy(),
                api.ExecutionPolicy(faults=faults),
            ),
        )

    def campaign(self, port: int) -> Iteration:
        """Submit the spec and read the stream until it settles.

        Failed jobs are counted, not raised: the callers' checks
        (``executed`` or ``cached`` against ``total``) reject them.
        """
        client = ServiceClient(port=port)
        before = self.reports.stats()
        started = time.perf_counter()
        status = client.submit(self.spec)
        final = status
        for final in client.stream(status["id"]):
            pass
        wall = time.perf_counter() - started
        if final.get("error") or not final["completed"]:
            raise CheckFailed(
                f"campaign settled as {final['state']!r}: "
                f"{final.get('error') or final.get('errors')}"
            )
        after = self.reports.stats()
        steps = final["summary"]["steps"]
        out = Iteration(
            wall, jobs=final["total"], steps=steps["mean"] * steps["count"]
        )
        out.failed = final["failed"] + final["pending"]
        out.store = {k: after[k] - before[k] for k in out.store}
        out.final = final
        return out


class ColdCampaign(CampaignWorkload):
    name = "campaign-cold"

    def kernels_used(self, out: Iteration, port: int) -> None:
        """Delivery kernel and kernel rows of the first job of each
        policy column, read back from the store after the timing."""
        client = ServiceClient(port=port)
        kernels, rows = set(), {}
        for job in client.jobs(out.final["id"]):
            if job["trial"] != 0:
                continue
            delivery = client.fetch_report(job["digest"]).provenance[
                "delivery"
            ]
            kernels.add(delivery["kernel"])
            rows[f"policy-{job['policy']}"] = delivery["kernel_use"]
        out.kernel, out.kernel_use = sorted(kernels), rows

    def iterate(self, draw: int) -> Iteration:
        directory = pathlib.Path(tempfile.mkdtemp(dir=self.work))
        self.reports = ReportStore(directory)
        try:
            with start_in_thread(
                self.reports, self.corpus_store, workers=1
            ) as handle:
                out = self.campaign(handle.port)
                self.kernels_used(out, handle.port)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        final = out.final
        if final["executed"] != final["total"]:
            out.violations.append(
                f"cold campaign executed {final['executed']} of "
                f"{final['total']} jobs"
            )
        return out


class WarmCampaign(CampaignWorkload):
    name = "campaign-warm"
    setup_repeats = 3

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        super().__init__(seed, work)
        self.service = None

    def setup(self, repeat: int) -> None:
        """Graph set-up, then a cold campaign that fills a new store."""
        super().setup(repeat)
        self.close()
        self.reports = ReportStore(self.work / f"reports-fill-{repeat}")
        self.service = start_in_thread(
            self.reports, self.corpus_store, workers=1
        )
        cold = self.campaign(self.service.port).final
        if cold["executed"] != cold["total"]:
            raise CheckFailed(
                f"filling campaign executed {cold['executed']} of "
                f"{cold['total']} jobs"
            )
        self.cold_summary = cold["summary"]

    def iterate(self, draw: int) -> Iteration:
        out = self.campaign(self.service.port)
        final = out.final
        if final["cached"] != final["total"] or final["executed"] != 0:
            out.violations.append(
                f"warm campaign served {final['cached']} of "
                f"{final['total']} jobs from the store and executed "
                f"{final['executed']}"
            )
        if final["summary"] != self.cold_summary:
            out.violations.append(
                "warm campaign summary differs from the cold campaign "
                "that filled the store"
            )
        return out

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS = {
    cls.name: cls for cls in (MisWorkload, ColdCampaign, WarmCampaign)
}
