"""Content-keyed serving-result cache with optional JSONL persistence.

``measured_serving_objectives`` puts the traffic simulator *inside* the
search loop: every ranking pass (each NSGA-II generation's non-dominated
sort, the final Pareto front) reads each ranked candidate's measured
queueing wait once, and the same candidate is ranked again in later
generations, in the final front and by the serving replays that follow.
Re-simulating an unchanged deployment every time would make measured search
far slower than the M/D/1 proxy; the :class:`ServingResultCache` makes each
distinct replay happen exactly once.

Entries are keyed by :func:`serving_digest` — a stable content digest of the
*deployment* (per-stage services/energies/accuracies/DVFS points; the display
name is deliberately excluded), the platform, the replayed workload member,
the traffic seed and the replay budget (duration, deadline, policy tag).  Two
searched configurations that distil to the same deployment share one entry;
touching the family, seed or budget changes every key, so stale results can
never be served.

Persistence goes through a :class:`~repro.jsonl_store.JsonlStore`, like the
:class:`~repro.engine.cache.EvaluationCache`: one JSON line per stored result
(human-readable metric summary + pickled
:class:`~repro.serving.metrics.ServingMetrics` payload), eager reload on
startup, the first line per digest winning, and malformed or truncated lines
skipped with a logged recovery count instead of aborting the load.

.. warning::
   The payload is a pickle: loading a cache file deserialises it with
   :func:`pickle.loads`, which can execute arbitrary code.  Only open cache
   files you wrote yourself or obtained from a source you trust.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from ..engine.cache import CacheStats
from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore, decode_payload, encode_payload
from ..soc.platform import Platform
from .metrics import ServingMetrics
from .policies import Deployment
from .workload import ArrivalProcess, Request

__all__ = [
    "ServingResultCache",
    "ServingCacheRecorder",
    "MeasuredCellStats",
    "serving_digest",
    "serving_scenario",
    "deployment_digest",
]

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes.
_PERSIST_VERSION = 1


def deployment_digest(deployment: Deployment) -> str:
    """Stable content digest of a deployment's *serving behaviour*.

    Covers every field that shapes simulation — per-stage units, service
    times, energies, exit accuracies and DVFS points — but not ``name``,
    which is display-only (``rank_under_traffic`` names front members by
    position).  Two searched configurations distilling to identical stage
    tuples therefore share one digest, exactly like the evaluation cache
    shares content-identical mappings.
    """
    payload = repr(
        (
            deployment.unit_names,
            deployment.service_ms,
            deployment.energy_mj,
            deployment.stage_accuracies,
            deployment.dvfs_scales,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serving_scenario(
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: float,
    seed: int,
    deadline_ms: Optional[float] = None,
    policy_tag: str = "static",
) -> str:
    """Scenario half of a :func:`serving_digest` key: all but the deployment.

    A search replays one scenario against every candidate, so callers that
    key many deployments build this once and pass it as ``scenario=``; the
    platform repr alone costs more than the rest of a digest.
    """
    workload_identity = (
        repr(workload)
        if isinstance(workload, ArrivalProcess)
        else repr(tuple(workload))
    )
    return "\n".join(
        [
            repr(platform),
            workload_identity,
            repr(float(duration_ms)),
            repr(None if deadline_ms is None else float(deadline_ms)),
            repr(int(seed)),
            policy_tag,
        ]
    )


def serving_digest(
    deployment: Deployment,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: float,
    seed: int,
    deadline_ms: Optional[float] = None,
    policy_tag: str = "static",
    *,
    scenario: Optional[str] = None,
) -> str:
    """Content key of one simulated replay: deployment x scenario x budget.

    The workload contributes its ``repr`` (family members are frozen
    dataclasses whose repr encodes every parameter), the platform its
    content-bearing repr, and the replay budget the duration, deadline,
    traffic seed and policy tag — so any change that could alter a single
    simulated record changes the key.  ``scenario`` is
    :func:`serving_scenario` of the same arguments, precomputed; when given,
    the scenario arguments are not read again.
    """
    if scenario is None:
        scenario = serving_scenario(
            platform, workload, duration_ms, seed, deadline_ms, policy_tag
        )
    payload = deployment_digest(deployment) + "\n" + scenario
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ServingResultCache:
    """In-memory (and optionally on-disk) store of simulated serving metrics.

    Parameters
    ----------
    path:
        Optional JSON-lines file.  Existing lines are loaded eagerly; every
        :meth:`store` appends one line so independent runs (and process-pool
        workers writing through their own handles) accumulate into a shared
        result store.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, ServingMetrics] = {}
        self._families: Dict[str, str] = {}
        self._session: list = []
        self.stats = CacheStats()
        self.path = Path(path) if path is not None else None
        self._store: Optional[JsonlStore] = None
        if self.path is not None:
            self._store = JsonlStore(self.path, {_PERSIST_VERSION}, "serving result cache", logger)
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    # -- lookup / store ----------------------------------------------------------
    def lookup(self, digest: str) -> Optional[ServingMetrics]:
        """Return the cached metrics for ``digest``, recording a hit or miss."""
        value = self._entries.get(digest)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def peek(self, digest: str) -> Optional[ServingMetrics]:
        """Like :meth:`lookup` but without touching the statistics."""
        return self._entries.get(digest)

    def family(self, digest: str) -> str:
        """Family label stored next to ``digest`` ("" when none was given)."""
        return self._families.get(digest, "")

    def items(self) -> Iterator[Tuple[str, ServingMetrics]]:
        """Iterate over ``(digest, metrics)`` pairs (no stat updates)."""
        return iter(self._entries.items())

    def store(self, digest: str, value: ServingMetrics, family: str = "") -> None:
        """Insert freshly simulated metrics and persist them if configured.

        Storing under an existing digest keeps the first entry, but a
        *conflicting* payload — same content key, different measured numbers,
        e.g. a stale file from a different simulator build that kept the same
        persistence version — is logged as a warning instead of being dropped
        without a trace.
        """
        if not isinstance(value, ServingMetrics):
            raise ConfigurationError(
                f"cache values must be ServingMetrics, got {type(value).__name__}"
            )
        existing = self._entries.get(digest)
        if existing is not None:
            stored, offered = self._metrics_summary(existing), self._metrics_summary(value)
            if stored != offered:
                logger.warning(
                    "serving result cache: digest %s already stored with conflicting "
                    "metrics (kept %s, dropped %s) — the existing entry may come from "
                    "a stale cache file written by a different simulator build",
                    digest[:16],
                    stored,
                    offered,
                )
            return
        self._entries[digest] = value
        if family:
            self._families[digest] = family
        self._session.append((digest, value, family))
        if self._store is not None:
            self._store.append([self._record(digest, value, family)])

    # -- cross-process merge-back ------------------------------------------------
    def export_session(self) -> Tuple[Tuple[str, ServingMetrics, str], ...]:
        """Entries stored through *this* handle since construction.

        A process-pool worker builds its own handle, serves a cell, and ships
        this export back with the cell result; the parent then
        :meth:`absorb`\\ s it so later cells see the worker's simulations.
        Loaded and absorbed entries are excluded — only genuinely new
        simulations travel.
        """
        return tuple(self._session)

    def absorb(self, entries) -> int:
        """Merge ``(digest, metrics, family)`` tuples into memory; return #added.

        Memory-only by design: a worker whose handle was path-backed already
        appended its entries to the shared JSONL, so writing them again here
        would duplicate lines.  Absorbed entries do not join this handle's
        session export (they are not *this* process's simulations).
        """
        added = 0
        for digest, value, family in entries:
            if digest in self._entries:
                continue
            if not isinstance(value, ServingMetrics):
                raise ConfigurationError(
                    f"cache values must be ServingMetrics, got {type(value).__name__}"
                )
            self._entries[digest] = value
            if family:
                self._families[digest] = family
            added += 1
        return added

    # -- persistence -------------------------------------------------------------
    @staticmethod
    def _metrics_summary(value: ServingMetrics) -> Dict[str, float]:
        """The human-readable summary persisted (and compared) per entry."""
        return {
            "p99_latency_ms": value.p99_latency_ms,
            "mean_queueing_ms": value.mean_queueing_ms,
            "energy_per_request_mj": value.energy_per_request_mj,
            "throughput_rps": value.throughput_rps,
        }

    @classmethod
    def _record(cls, digest: str, value: ServingMetrics, family: str) -> Dict[str, object]:
        return {
            "version": _PERSIST_VERSION,
            "key": digest,
            "family": family,
            "policy": value.policy,
            "metrics": cls._metrics_summary(value),
            "payload": encode_payload(value),
        }

    def _load(self) -> None:
        """Reload persisted entries through the store's tolerant reader."""

        def value(record: dict) -> ServingMetrics:
            metrics = decode_payload(record["payload"], ServingMetrics)
            family = str(record.get("family", ""))
            if family:
                self._families[record["key"]] = family
            return metrics

        self._store.load(self._entries, lambda record: record["key"], value)
        self.stats.loaded += len(self._entries)


def resolve_serving_cache(
    serving_cache: Union[ServingResultCache, str, Path, None], measuring: bool
) -> Optional[ServingResultCache]:
    """The campaign-wide handle a ``serving_cache=`` argument names.

    An instance is used as is and a path opens a cache on that JSONL file;
    without either, a campaign that measures gets a fresh in-memory cache
    and any other campaign none.
    """
    if isinstance(serving_cache, ServingResultCache):
        return serving_cache
    if serving_cache is not None:
        return ServingResultCache(path=serving_cache)
    return ServingResultCache() if measuring else None


def serving_cache_path(cache: Optional[ServingResultCache]) -> Optional[str]:
    """The JSONL path pool workers reopen ``cache`` through, if it has one."""
    return None if cache is None or cache.path is None else str(cache.path)


@dataclass(frozen=True)
class MeasuredCellStats:
    """Deterministic per-cell cache-efficiency numbers for campaign summaries.

    ``lookups`` counts every measured-objective interrogation of the cell's
    search; ``unique`` counts the distinct replay digests behind them — the
    simulations an isolated, cold cache would have to run.  ``avoided`` is
    their difference: the replays content-keying saved versus no cache at
    all.  Both inputs are pure functions of the cell's (seeded) search
    trajectory, so unlike runtime hit/miss counts — which depend on whether
    the shared cache happened to be warm — they are byte-identical across
    serial, cell-parallel and checkpoint-resumed runs and safe to pin in
    golden summaries.
    """

    lookups: int
    unique: int

    @property
    def avoided(self) -> int:
        return self.lookups - self.unique


class ServingCacheRecorder:
    """Per-cell view of a :class:`ServingResultCache` that counts lookups.

    Wraps the shared (or worker-local) cache for exactly one campaign cell:
    every :meth:`lookup` is tallied together with its digest, stores pass
    straight through.  :meth:`cell_stats` then yields the
    :class:`MeasuredCellStats` attached to that cell's search result.
    """

    def __init__(self, cache: ServingResultCache) -> None:
        self.cache = cache
        self._lookups = 0
        self._digests: set = set()

    def lookup(self, digest: str) -> Optional[ServingMetrics]:
        self._lookups += 1
        self._digests.add(digest)
        return self.cache.lookup(digest)

    def peek(self, digest: str) -> Optional[ServingMetrics]:
        return self.cache.peek(digest)

    def store(self, digest: str, value: ServingMetrics, family: str = "") -> None:
        self.cache.store(digest, value, family)

    def cell_stats(self) -> MeasuredCellStats:
        return MeasuredCellStats(lookups=self._lookups, unique=len(self._digests))
