"""Append-only JSON-lines record store behind the caches and checkpoints.

:class:`~repro.engine.cache.EvaluationCache`,
:class:`~repro.serving.result_cache.ServingResultCache` and
:class:`~repro.campaign.checkpoint.CampaignCheckpoint` each persist through a
:class:`JsonlStore`, which owns the line format they share: one JSON object
per line with a ``"version"`` field, written with ``ensure_ascii=False``
through an explicit utf-8 handle (non-ASCII names stay readable on any
locale), payloads as base64 pickles, and a tolerant reader in which the first
line per key wins.

.. warning::
   Decoding a payload unpickles it, which can execute arbitrary code.  Only
   load files you wrote yourself or obtained from a source you trust.
"""

from __future__ import annotations

import base64
import json
import logging
import pickle
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional

from .errors import ConfigurationError

__all__ = ["JsonlStore", "decode_payload", "encode_payload", "from_text", "to_text"]


def to_text(data: bytes) -> str:
    """``data`` as base64 text, the form bytes take in a JSON line."""
    return base64.b64encode(data).decode("ascii")


def from_text(text: str) -> bytes:
    """The bytes :func:`to_text` encoded."""
    return base64.b64decode(text)


def encode_payload(value: object) -> str:
    """``value`` pickled and base64-encoded for a record's ``"payload"``."""
    return to_text(pickle.dumps(value))


def decode_payload(text: str, expected_type: type) -> object:
    """The object :func:`encode_payload` encoded; :class:`TypeError` unless
    it is an ``expected_type``."""
    value = pickle.loads(from_text(text))
    if not isinstance(value, expected_type):
        raise TypeError(f"payload holds a {type(value).__name__}, not {expected_type.__name__}")
    return value


class JsonlStore:
    """One append-only JSON-lines file of versioned records.

    ``versions`` are the ``"version"`` values :meth:`load` reads; ``label``
    names the file in the recovery warning, which goes to the owner's
    ``logger``.
    """

    def __init__(
        self, path: Path, versions: Iterable[int], label: str, logger: logging.Logger
    ) -> None:
        self.path = path
        self.versions = frozenset(versions)
        self.label = label
        self.logger = logger

    def append(self, records: Iterable[Mapping[str, object]]) -> None:
        """Append one line per record through a single handle, creating the
        directory; the flush means a crash costs at most these lines."""
        lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as stream:
            stream.writelines(lines)
            stream.flush()

    def load(
        self,
        entries: Dict[Hashable, object],
        key: Callable[[dict], Optional[Hashable]],
        value: Callable[[dict], object],
    ) -> int:
        """Decode the file's records into ``entries``; return the lines skipped.

        Records are read in file order.  ``key(record)`` names a record's
        entry, or is ``None`` to pass over the record uncounted; the first
        line per key wins, so ``value(record)`` runs only for keys not yet in
        ``entries``.  Blank lines are passed over.  Non-JSON or truncated
        lines, JSON values that are not objects, unknown versions, and
        records for which either callable raises are skipped and counted,
        and one warning reports them: a crash mid-append or a foreign writer
        never aborts a load.  A :class:`~repro.errors.ConfigurationError`
        judges the whole run, not one line, and propagates.
        """
        if not self.path.exists():
            return 0
        before = len(entries)
        skipped = 0
        # errors="replace": a crash can cut a line inside a multi-byte
        # character, which must fail that line's parse, not the whole read.
        with self.path.open("r", encoding="utf-8", errors="replace") as stream:
            for line in stream:
                if line.isspace():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or record.get("version") not in self.versions:
                        skipped += 1
                        continue
                    name = key(record)
                    if name is not None and name not in entries:
                        entries[name] = value(record)
                except ConfigurationError:
                    raise
                except Exception:  # noqa: BLE001 - truncated or foreign lines are survivable
                    skipped += 1
        if skipped:
            self.logger.warning(
                "%s %s: recovered %d entries, skipped %d malformed or foreign lines "
                "(expected after an interrupted write)",
                self.label,
                self.path,
                len(entries) - before,
                skipped,
            )
        return skipped
