"""Content-addressed RunReport store: run once, serve forever.

The service's core bet is that a Monte-Carlo campaign is a *pure
function* of its coordinates: a seeded protocol run is bit-identical
given ``(protocol, graph, seed, resolved policy, faults, config)`` and
the code's :data:`~repro.api.report.SEMANTICS` version — the
equivalence suites pin exactly that. So the store keys every
:class:`~repro.api.report.RunReport` by the :class:`JobKey` of those
coordinates (graph by corpus content digest, seed by the
``(base seed, trial index)`` pair that determines its
``SeedSequence`` child, policy, faults, and protocol config by
content digests) and a
repeated request is a cache hit — no re-execution, and a campaign
killed mid-flight resumes from whatever its first life persisted.
Reports produced under another semantics version live under other
keys, so they are never served.

``get`` verifies what it serves: an entry that does not decode, whose
stored digest is not the requested one, or whose ``format`` or
``semantics`` this code does not know is quarantined (renamed to
``<digest>.json.corrupt``), counted in ``corrupt``, and reported as a
miss — the campaign recomputes it.

Entries are one JSON document each (the :mod:`repro.api.wire` tagged
format plus the key's own fields for listing), written atomically via
tempfile + ``os.replace`` exactly like
:class:`~repro.corpus.store.CorpusStore` entries: two processes
racing to persist the same job write the same bytes, and a crash
never leaves a half-readable entry. Documents are sharded into
two-hex-character subdirectories so a million-report store does not
put a million files in one directory.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Iterator

from ..api.report import SEMANTICS, RunReport
from ..api.wire import decode_value, encode_value
from ..engine.policy import ExecutionPolicy
from ..radio.errors import ProtocolError

__all__ = [
    "JobKey",
    "ReportStore",
    "config_digest",
    "faults_digest",
    "policy_digest",
]

#: Digest value standing for "no fault schedule" (or an empty one —
#: pinned bit-identical to none by the fault layer, so they must
#: share a cache key).
NO_FAULTS = "none"

#: Digest value standing for "no protocol config" — the protocol's
#: registered defaults.
NO_CONFIG = "none"

#: The entry document layout ``put`` writes and ``get`` accepts.
FORMAT = 1


def policy_digest(policy: ExecutionPolicy, n: int | None = None) -> str:
    """Content digest of the **resolved** execution policy, hex.

    Resolution (:meth:`~repro.engine.policy.ExecutionPolicy.resolve`
    against the graph size) happens first, so ``"auto"`` knobs and the
    process-wide budget fold in — the digest names what would actually
    execute. The fault schedule is stripped: faults are the key's own
    coordinate (:func:`faults_digest`), not part of the policy
    digest, mirroring the key layout in the issue contract.
    """
    resolved = dataclasses.replace(policy.resolve(n), faults=None)
    doc = json.dumps(encode_value(resolved), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def faults_digest(policy: ExecutionPolicy) -> str:
    """Digest of the policy's effective fault schedule (:data:`NO_FAULTS`
    for fault-free runs, including empty schedules — which the fault
    layer pins bit-identical to none, so they share a key)."""
    schedule = policy.fault_schedule()
    if schedule is None or schedule.is_empty:
        return NO_FAULTS
    return schedule.digest()


def config_digest(config: Any) -> str:
    """Digest of the protocol config (:data:`NO_CONFIG` for ``None`` —
    the protocol's registered defaults).

    Hashes the tagged wire form (:mod:`repro.api.wire`) with sorted
    keys, so two configs share a digest exactly when they would travel
    the wire identically — campaigns differing only in config land in
    distinct store cells instead of colliding on a cached report.
    """
    if config is None:
        return NO_CONFIG
    doc = json.dumps(encode_value(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class JobKey:
    """The coordinates that determine one seeded run exactly.

    ``seed`` and ``trial`` together name the rng stream: trial ``t`` of
    a campaign runs on ``np.random.SeedSequence(seed).spawn(n)[t]`` —
    the same seeding contract as
    :func:`~repro.analysis.experiments.run_report_trials`, so the
    store serves those trials too. ``config`` is the protocol config's
    :func:`config_digest` (:data:`NO_CONFIG` for defaults): campaigns
    that differ only in config must not share cache entries.
    ``semantics`` is the :data:`~repro.api.report.SEMANTICS` version
    the run is produced under: a seeded-trajectory change bumps it, so
    every earlier entry stops matching.
    """

    protocol: str
    graph: str
    seed: int
    trial: int
    policy: str
    faults: str = NO_FAULTS
    config: str = NO_CONFIG
    semantics: int = SEMANTICS

    def __post_init__(self) -> None:
        if not self.protocol or not isinstance(self.protocol, str):
            raise ProtocolError(
                f"JobKey.protocol must be a protocol name, "
                f"got {self.protocol!r}"
            )
        if not self.graph or not isinstance(self.graph, str):
            raise ProtocolError(
                f"JobKey.graph must be a corpus content digest, "
                f"got {self.graph!r}"
            )
        for field in ("seed", "trial", "semantics"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    f"JobKey.{field} must be an integer, got {value!r}"
                )
        if self.trial < 0:
            raise ProtocolError(
                f"JobKey.trial must be >= 0, got {self.trial}"
            )

    @functools.cached_property
    def digest(self) -> str:
        """sha256 over the canonical key document (the entry address).

        Computed once per key: the cache lives in the instance
        ``__dict__``, not in a field, so ``asdict``, equality and
        hashing see only the coordinates.
        """
        doc = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    def asdict(self) -> dict[str, Any]:
        """Plain-JSON form (stored beside the report for listing)."""
        return dataclasses.asdict(self)


class ReportStore:
    """A directory of report entries, addressed by :class:`JobKey` digest.

    Plain files, no index: ``get`` is a stat + read, ``put`` an atomic
    rename, and concurrent writers of the same key race benignly
    (content-addressed — same key, same resolved coordinates, same
    report outcome). ``hits``/``misses``/``writes``/``corrupt``
    counters feed the campaign engine's dedupe accounting and the
    service's status endpoint; ``corrupt`` counts quarantined entries
    (see the module docstring).
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def path_for(self, key: "JobKey | str") -> pathlib.Path:
        """Entry path of a key (or raw digest): sharded by prefix."""
        digest = key.digest if isinstance(key, JobKey) else key
        return self.directory / digest[:2] / f"{digest}.json"

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, (JobKey, str)):
            return False
        return self.path_for(key).is_file()

    def _load(
        self, digest: str
    ) -> tuple[dict[str, Any], RunReport] | None:
        """The verified entry of ``digest``: ``(document, report)``.

        ``None`` when there is no entry, or when the entry fails
        verification — then it is quarantined and counted.
        """
        path = self.path_for(digest)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            document = json.loads(text)
            ok = (
                isinstance(document, dict)
                and document.get("format") == FORMAT
                and document.get("digest") == digest
                and isinstance(document.get("key"), dict)
                and document["key"].get("semantics") == SEMANTICS
            )
            if ok:
                report = decode_value(document["report"])
                ok = isinstance(report, RunReport)
        except (ValueError, KeyError, TypeError, ProtocolError):
            ok = False
        if not ok:
            self.corrupt += 1
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - a racing reader moved it
                pass
            return None
        return document, report

    def get(self, key: "JobKey | str") -> RunReport | None:
        """The stored report of ``key``, or ``None`` (counted) on a miss.

        An entry that fails verification is a miss too (and counted in
        ``corrupt``), so the caller recomputes and ``put`` replaces it.
        """
        digest = key.digest if isinstance(key, JobKey) else key
        entry = self._load(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def get_document(self, digest: str) -> dict[str, Any] | None:
        """The raw stored document (key fields + tagged report) of a
        digest — what the fetch-report HTTP endpoint serves verbatim.
        ``None`` for a missing entry and for one that fails
        verification (which is quarantined, as in :meth:`get`)."""
        entry = self._load(digest)
        return None if entry is None else entry[0]

    def put(self, key: JobKey, report: RunReport) -> pathlib.Path:
        """Persist ``report`` under ``key`` atomically; return the path.

        An existing entry wins (content-addressed: it records the same
        outcome); the write is tempfile + ``os.replace`` in the entry's
        own shard directory, so readers never observe a partial file
        and a crashed writer leaves only an orphaned dotfile.
        """
        if not isinstance(report, RunReport):
            raise ProtocolError(
                f"ReportStore.put takes a RunReport, "
                f"got {type(report).__name__}"
            )
        path = self.path_for(key)
        if path.is_file():
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": FORMAT,
            "key": key.asdict(),
            "digest": key.digest,
            "report": encode_value(report),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # Not json.dump: it streams through the pure-Python
                # encoder; json.dumps runs the C one, same text.
                handle.write(json.dumps(document))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - crash path
                os.unlink(tmp)
        self.writes += 1
        return path

    def digests(self) -> Iterator[str]:
        """Every stored entry digest (no particular order).

        Dotfiles are not entries: a crashed ``put`` can leave its
        ``.tmp-*.json`` tempfile behind.
        """
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith("."):
                    yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def stats(self) -> dict[str, int]:
        """Hit/miss/write/corrupt counters plus the current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "entries": len(self),
        }
