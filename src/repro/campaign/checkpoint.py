"""Persistent campaign checkpoints: restart a grid where it stopped.

A campaign is embarrassingly resumable — every ``(platform, scenario)`` cell
is an independent seeded search — so :class:`CampaignCheckpoint` persists
each finished cell as one JSON line (next to the evaluation cache's JSONL,
same append-only discipline) and :func:`repro.campaign.runner.run_campaign`
skips restored cells on restart.  Restored results are pickle round-trips of
the originals, so a resumed campaign renders a
:func:`repro.core.report.campaign_summary` byte-identical to an
uninterrupted run.

The file holds three record *kinds* side by side, each written and read by
its own pair of methods (lines written before the ``kind`` field existed are
read as ``search``):

* ``search`` — a ``(platform, scenario)`` cell's
  :class:`~repro.search.evolutionary.SearchResult` (:meth:`~CampaignCheckpoint.store`,
  :meth:`~CampaignCheckpoint.load`);
* ``serving`` — a ``(platform, family)`` cell of
  :func:`~repro.campaign.serving_runner.run_serving_campaign`
  (:meth:`~CampaignCheckpoint.store_serving`, :meth:`~CampaignCheckpoint.load_serving`);
* ``fleet`` — a ``(mix, family)`` cell of
  :func:`~repro.campaign.fleet_runner.run_fleet_campaign`
  (:meth:`~CampaignCheckpoint.store_fleet`, :meth:`~CampaignCheckpoint.load_fleet`).

Safety model
------------
Every line carries the campaign ``seed`` and the :class:`CellExpectation`
the cell was written under: a per-cell *fingerprint* of everything that
shapes its result (network and platform contents — not just their names —
stage count, strategy, resolved budget, scenario constraints, evaluator
settings, warm-start mode and, for a warm-started cell, its donors'
expectations; for serving and fleet cells the family
definition, the replay budget and the Pareto fronts they deploy, and the
mix), and for search cells the warm-start donor chain and the surrogate and
objective-set tags.  Every kind is loaded under one discipline:

* a **seed mismatch raises** :class:`~repro.errors.ConfigurationError` —
  the seed is the campaign's identity, and silently mixing results from a
  different seed would poison the whole grid;
* a cell whose written expectation differs from the current run's in any
  field is **dropped and re-run**, counted in
  :attr:`CheckpointStats.refreshed`: settings are expected to change
  between runs (a tweaked family, a recalibrated board, a new budget), and
  the right response is recomputing exactly the affected cells, never
  refusing the whole resume.  Since a warm-started search cell's
  fingerprint folds in its donors' expectations, a donor that changes
  content under the same name re-runs every cell it seeds;
* the file is append-only, so a re-run cell's new line supersedes the
  dropped one; of the lines that match, the first per cell wins;
* a cell for a **platform/scenario/family/mix no longer in the grid** is
  ignored (stale), and cells *added* to the grid simply are not in the
  file, so a grown grid re-runs exactly the new cells;
* a **malformed line** (truncated by a mid-write crash, foreign writer) is
  skipped and logged by the :class:`~repro.jsonl_store.JsonlStore`, never
  fatal.

.. warning::
   The payload is a pickle, exactly like the evaluation cache's: only load
   checkpoint files you wrote yourself or obtained from a trusted source.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Tuple, Union

from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore, decode_payload, encode_payload
from ..search.evolutionary import SearchResult

__all__ = [
    "CampaignCheckpoint",
    "CellExpectation",
    "CheckpointStats",
    "campaign_fingerprint",
]  # CellKey/ServingCellKey/FleetCellKey are type aliases, importable directly

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes.
_CHECKPOINT_VERSION = 1

#: A search cell's identity within one campaign grid: (platform, scenario).
CellKey = Tuple[str, str]

#: A serving cell's identity within one serving campaign: (platform, family).
ServingCellKey = Tuple[str, str]

#: A fleet cell's identity within one fleet campaign: (mix, family).
FleetCellKey = Tuple[str, str]

#: Per record kind: the two JSON fields of its cell key, in key order, and
#: the human-readable metric summary its lines carry.
_KINDS: Dict[str, Tuple[Tuple[str, str], Callable[[object], Dict[str, object]]]] = {
    "search": (
        ("platform", "scenario"),
        lambda result: {
            "evaluations": result.num_evaluations,
            "front": len(result.pareto),
            "best_latency_ms": result.best.latency_ms,
            "best_energy_mj": result.best.energy_mj,
        },
    ),
    "serving": (
        ("platform", "family"),
        lambda result: {
            "members": len(result.members),
            "p99_latency_ms": result.p99_latency_ms,
            "served_p99_per_joule": result.served_p99_per_joule,
        },
    ),
    "fleet": (
        ("mix", "family"),
        lambda result: {
            "members": len(result.members),
            "p99_latency_ms": result.p99_latency_ms,
            "total_joules": result.total_joules,
        },
    ),
}


def campaign_fingerprint(**fields: object) -> str:
    """Stable short digest of the settings that determine a cell's result.

    Values are rendered with ``repr`` through a canonical JSON encoding, so
    any change to the search budget, scenario constraints or evaluator
    settings yields a different fingerprint and checkpointed cells written
    under the old settings are re-run rather than restored.
    """
    canonical = json.dumps(
        {name: repr(value) for name, value in fields.items()}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CellExpectation:
    """What the current run demands of a checkpointed cell to accept it.

    ``fingerprint`` digests everything that shapes the cell's result and
    ``donors`` names the platforms whose fronts warm-start it.
    ``surrogate`` is the fingerprint tag of the cell's surrogate settings
    (``""`` for a pure-oracle cell) and ``objectives`` the tag of the cell's
    :class:`~repro.search.objectives.ObjectiveSet` (``""`` for the default
    latency/energy/accuracy axes, so files written before the objective
    layer existed keep restoring).  A measured campaign
    (``measured_objectives=``) puts each cell's *bound* per-platform
    fingerprint here — platform, workload family, traffic seed, replay
    duration — so changing the measured recipe re-runs exactly the affected
    cells while pre-measured checkpoints restore unchanged.  The tags stay
    out of the base fingerprint so that lines written before they existed
    keep their fingerprint.  A cell whose written expectation differs from
    this one in any field is re-run, counted in
    :attr:`CheckpointStats.refreshed`.
    """

    fingerprint: str
    donors: Tuple[str, ...] = ()
    surrogate: str = ""
    objectives: str = ""


@dataclass
class CheckpointStats:
    """What one load of a :class:`CampaignCheckpoint` found."""

    restored: int = 0
    stale: int = 0
    malformed: int = 0
    #: Cells dropped for re-running: their written expectation no longer
    #: matches the current run.
    refreshed: int = 0


class CampaignCheckpoint:
    """Append-only JSONL store of completed campaign cells.

    Parameters
    ----------
    directory:
        Directory holding the checkpoint file (created on first store).
    seed:
        The campaign's master seed; lines written under any other seed make
        the loaders raise instead of silently mixing results.
    """

    FILENAME = "campaign_cells.jsonl"

    def __init__(self, directory: Union[str, Path], seed: int) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self.seed = int(seed)
        self.stats = CheckpointStats()
        self._store = JsonlStore(self.path, {_CHECKPOINT_VERSION}, "campaign checkpoint", logger)

    # -- restore -----------------------------------------------------------------
    def load(
        self, expected: Mapping[CellKey, CellExpectation]
    ) -> Dict[CellKey, SearchResult]:
        """Restore every completed search cell of the current grid.

        ``expected`` maps each ``(platform, scenario)`` key of the *current*
        grid to the expectation the run would write for it; keys not in the
        mapping are stale cells from an older grid and are ignored.
        """
        return self._load("search", expected, SearchResult)

    def load_serving(
        self, expected: Mapping[ServingCellKey, CellExpectation]
    ) -> Dict[ServingCellKey, object]:
        """Restore every completed serving cell of the current sweep,
        keyed ``(platform, family)``; same discipline as :meth:`load`."""
        from .serving_runner import ServingCellResult  # local: runner imports us

        return self._load("serving", expected, ServingCellResult)

    def load_fleet(
        self, expected: Mapping[FleetCellKey, CellExpectation]
    ) -> Dict[FleetCellKey, object]:
        """Restore every completed fleet cell of the current sweep, keyed
        ``(mix, family)``; same discipline as :meth:`load`."""
        from .fleet_runner import FleetCellResult  # local: runner imports us

        return self._load("fleet", expected, FleetCellResult)

    def _load(
        self,
        kind: str,
        expected: Mapping[Tuple[str, str], CellExpectation],
        expected_type: type,
    ) -> Dict[Tuple[str, str], object]:
        """The one loader of every kind (see the module's safety model)."""
        (first_field, second_field), _ = _KINDS[kind]
        self.stats = CheckpointStats()
        mismatched = set()

        def key(record: dict):
            if record.get("kind", "search") != kind:
                return None
            seed = int(record["seed"])
            written = CellExpectation(
                fingerprint=str(record["fingerprint"]),
                donors=tuple(str(name) for name in record.get("donors", ())),
                surrogate=str(record.get("surrogate", "")),
                objectives=str(record.get("objectives", "")),
            )
            cell = (str(record[first_field]), str(record[second_field]))
            if seed != self.seed:
                raise ConfigurationError(
                    f"checkpoint {self.path} holds cell {cell} written under seed "
                    f"{seed}, but this campaign runs under seed {self.seed}; "
                    f"refusing to mix seeds — use a fresh checkpoint_dir or "
                    f"re-run with the original seed"
                )
            if cell not in expected:
                self.stats.stale += 1
                return None
            if written != expected[cell]:
                mismatched.add(cell)
                return None
            return cell

        restored: Dict[Tuple[str, str], object] = {}
        self.stats.malformed = self._store.load(
            restored, key, lambda record: decode_payload(record["payload"], expected_type)
        )
        # A mismatched line may be superseded by a later matching line for
        # the same cell; only cells left unrestored re-run.
        refreshed = mismatched - restored.keys()
        self.stats.restored = len(restored)
        self.stats.refreshed = len(refreshed)
        if restored:
            logger.info(
                "campaign checkpoint %s: restored %d of %d %s cells",
                self.path, len(restored), len(expected), kind
            )
        if refreshed:
            logger.info(
                "campaign checkpoint %s: re-running %d %s cells whose settings "
                "or warm-start donors changed",
                self.path, len(refreshed), kind
            )
        return restored

    # -- persist -----------------------------------------------------------------
    def store(self, key: CellKey, expectation: CellExpectation, result: SearchResult) -> None:
        """Append one finished search cell; flushed immediately so a later
        crash costs at most the line being written."""
        self._store_cell("search", key, expectation, result)

    def store_serving(self, key: ServingCellKey, expectation: CellExpectation, result) -> None:
        """Append one finished serving cell (same discipline as :meth:`store`)."""
        self._store_cell("serving", key, expectation, result)

    def store_fleet(self, key: FleetCellKey, expectation: CellExpectation, result) -> None:
        """Append one finished fleet cell (same discipline as :meth:`store`)."""
        self._store_cell("fleet", key, expectation, result)

    def _store_cell(
        self, kind: str, key: Tuple[str, str], expectation: CellExpectation, result
    ) -> None:
        (first_field, second_field), summary = _KINDS[kind]
        record = {
            "version": _CHECKPOINT_VERSION,
            "kind": kind,
            "seed": self.seed,
            "fingerprint": expectation.fingerprint,
            first_field: key[0],
            second_field: key[1],
        }
        if kind == "search":
            record["donors"] = list(expectation.donors)
            record["surrogate"] = expectation.surrogate
            record["objectives"] = expectation.objectives
        record["metrics"] = summary(result)
        record["payload"] = encode_payload(result)
        self._append(record)

    def _append(self, record: dict) -> None:
        self._store.append([record])
