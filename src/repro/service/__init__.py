"""The experiment service: hosted Monte-Carlo campaigns over ``repro.api.run``.

Four layers, bottom up:

- :mod:`repro.service.store` — the content-addressed
  :class:`ReportStore`, keyed by :class:`JobKey` (protocol, graph
  digest, seed, trial, resolved-policy digest, faults digest, config
  digest, semantics version). Run once, serve forever.
- :mod:`repro.service.campaign` — :class:`CampaignSpec` (the
  declarative grid) and :class:`Campaign` (expand, dedupe against the
  store, fan out across the shared-memory worker pool, stream
  aggregates).
- :mod:`repro.service.http` — :class:`ExperimentService`, the
  stdlib-asyncio HTTP front end (``repro serve``).
- :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  HTTP client the CLI, tests, and benchmarks share.

The one-sentence contract: a seeded job is a pure function of its
:class:`JobKey`, so the service never runs the same job twice — and a
campaign killed at any point resumes by resubmitting its spec.
"""

from .campaign import Campaign, CampaignJob, CampaignSpec, run_campaign
from .client import ServiceClient, ServiceError
from .http import ExperimentService, ServiceThread, start_in_thread
from .store import (
    JobKey,
    ReportStore,
    config_digest,
    faults_digest,
    policy_digest,
)

__all__ = [
    "Campaign",
    "CampaignJob",
    "CampaignSpec",
    "ExperimentService",
    "JobKey",
    "ReportStore",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "config_digest",
    "faults_digest",
    "policy_digest",
    "run_campaign",
    "start_in_thread",
]
