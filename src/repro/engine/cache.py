"""Content-keyed evaluation cache with optional JSON-lines persistence.

Every evaluation the engine performs flows through an
:class:`EvaluationCache`.  Entries are keyed by a stable content digest of
the configuration plus the identity of the evaluator that scored it (see
:meth:`repro.search.evaluation.ConfigEvaluator.content_digest`), so two
differently configured evaluators can safely share one cache, and re-running
a search with the same seed costs nothing.

When constructed with a ``path`` the cache appends one JSON line per stored
result and reloads existing lines on startup, making evaluation results
persistent across runs and shareable between processes.  Each line carries a
human-readable metric summary next to an opaque pickled payload, so cache
files double as a flat log of everything ever evaluated.

Line layout (format version 2)::

    {"version": 2, "key": <content digest>, "metrics": {...},
     "mapping": <config description>, "payload": <base64 pickle>,
     "shared": {<ranking key>: <base64 pickle>, ...}}   # first use only

Every entry an evaluator produces carries the same
:class:`~repro.nn.channels.ChannelRanking`, which is most of an entry's
pickle.  The payload therefore holds only a reference to it, keyed by the
sha256 of the ranking's protocol-4 pickle.  The first line a cache writes
that refers to a ranking not yet written or loaded through it carries the
ranking's pickle in its ``"shared"`` field; later lines carry the reference
alone.  A ranking's blob thus precedes, in file order, every line that
refers to it, and each entry is still exactly one line.  Loading resolves
references against the blobs seen so far, so all entries loaded from one
file share one ranking object; a line whose ranking blob is missing (e.g.
truncated away) is skipped like any other malformed line.  Version-1 lines,
full pickles without references, load through the same decoder.

.. warning::
   The payload and the shared blobs are pickles: loading a cache file
   deserialises them with :mod:`pickle`, which can execute arbitrary code.
   Only open cache files you wrote yourself or obtained from a source you
   trust, exactly as you would treat any other pickle.
"""

from __future__ import annotations

import base64
import copyreg
import hashlib
import io
import json
import logging
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..nn.channels import ChannelRanking
from ..search.evaluation import EvaluatedConfig

__all__ = ["CacheStats", "EvaluationCache"]

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes.
_PERSIST_VERSION = 2

#: Versions :meth:`EvaluationCache._load` decodes (v1 lines hold no references).
_READABLE_VERSIONS = frozenset({1, _PERSIST_VERSION})


def _shared_ref(key: str) -> ChannelRanking:
    """Placeholder a payload calls to fetch the shared ranking ``key``.

    Payloads name this function where a ranking was; the loader's
    unpickler substitutes its table of decoded blobs for it, so calling it
    directly means a payload is being unpickled outside a cache load.
    """
    raise pickle.UnpicklingError(
        f"shared ranking {key!r} referenced outside an EvaluationCache load"
    )


class _SharedCodec:
    """Per-file pickling state of a persistent :class:`EvaluationCache`.

    Pickles each entry with a ``dispatch_table`` that writes every
    :class:`ChannelRanking` as a ``_shared_ref(key)`` call, and remembers
    which ranking blobs the file already holds, so each is written once.
    """

    def __init__(self) -> None:
        #: ``id(ranking) -> (key, ranking, blob)``; the strong reference keeps
        #: the id from being reused by another object while it is memoised.
        self._keys: Dict[int, Tuple[str, ChannelRanking, bytes]] = {}
        #: Rankings decoded from the file, by key.
        self.table: Dict[str, ChannelRanking] = {}
        #: Keys whose blob the file holds (loaded or written by this cache).
        self.in_file: set = set()
        #: Blobs referenced by the entry being pickled but not yet in the file.
        self._pending: Dict[str, bytes] = {}
        #: ``find_class`` results of the loader, ``_shared_ref`` pre-resolved.
        self._classes: Dict[Tuple[str, str], object] = {
            (__name__, "_shared_ref"): self.table.__getitem__
        }
        self._dispatch = copyreg.dispatch_table.copy()
        self._dispatch[ChannelRanking] = self._reduce_ranking

    def _reduce_ranking(self, ranking: ChannelRanking):
        memo = self._keys.get(id(ranking))
        if memo is None:
            blob = pickle.dumps(ranking, protocol=4)
            memo = (hashlib.sha256(blob).hexdigest(), ranking, blob)
            self._keys[id(ranking)] = memo
        key = memo[0]
        if key not in self.in_file:
            self._pending[key] = memo[2]
        return (_shared_ref, (key,))

    def encode(self, value: EvaluatedConfig) -> Tuple[bytes, Dict[str, bytes]]:
        """Pickle ``value``; also return the ranking blobs its line must carry.

        The returned blobs count as written from here on: the caller puts
        them on this entry's line.
        """
        self._pending = {}
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer)
        pickler.dispatch_table = self._dispatch
        pickler.dump(value)
        self.in_file.update(self._pending)
        return buffer.getvalue(), self._pending

    def add_blob(self, key: str, blob: bytes) -> None:
        """Decode a ranking blob read from the file (first copy wins)."""
        if key in self.table:
            return
        if hashlib.sha256(blob).hexdigest() != key:
            raise ValueError(f"shared ranking blob does not match its key {key!r}")
        ranking = pickle.loads(blob)
        if not isinstance(ranking, ChannelRanking):
            raise ValueError(f"shared blob {key!r} is not a ChannelRanking")
        self.table[key] = ranking
        self.in_file.add(key)
        self._keys[id(ranking)] = (key, ranking, blob)

    def decode(self, payload: bytes) -> object:
        """Unpickle a payload, resolving its references through :attr:`table`."""
        return _SharedUnpickler(io.BytesIO(payload), self._classes).load()


class _SharedUnpickler(pickle.Unpickler):
    """Unpickler resolving globals through a memo that maps ``_shared_ref``
    onto a table of decoded rankings."""

    def __init__(self, stream, classes: Dict[Tuple[str, str], object]) -> None:
        super().__init__(stream)
        self._classes = classes

    def find_class(self, module: str, name: str):
        found = self._classes.get((module, name))
        if found is None:
            found = self._classes[module, name] = super().find_class(module, name)
        return found


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EvaluationCache`."""

    hits: int = 0
    misses: int = 0
    loaded: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` pair, for windowed rate computation."""
        return (self.hits, self.misses)

    def window_hit_rate(self, snapshot: Tuple[int, int]) -> float:
        """Hit rate since ``snapshot`` was taken."""
        hits = self.hits - snapshot[0]
        misses = self.misses - snapshot[1]
        total = hits + misses
        return hits / total if total else 0.0


class EvaluationCache:
    """In-memory (and optionally on-disk) store of evaluation results.

    Parameters
    ----------
    path:
        Optional JSON-lines file.  Existing lines are loaded eagerly; every
        :meth:`store` appends one line so independent runs accumulate into a
        shared result store.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, EvaluatedConfig] = {}
        self.stats = CacheStats()
        self.path = Path(path) if path is not None else None
        self._codec = _SharedCodec() if self.path is not None else None
        if self.path is not None and self.path.exists():
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    # -- lookup / store ----------------------------------------------------------
    def lookup(self, digest: str) -> Optional[EvaluatedConfig]:
        """Return the cached result for ``digest``, recording a hit or miss."""
        value = self._entries.get(digest)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def get_many(self, digests: Sequence[str]) -> Dict[str, EvaluatedConfig]:
        """Resolve a batch of digests in one pass, with bulk stat updates.

        Returns the subset of ``digests`` present in the cache.  Counts one
        hit per found digest and one miss per absent digest (duplicates in
        ``digests`` each count), so the statistics match a sequence of
        individual :meth:`lookup` calls.
        """
        found: Dict[str, EvaluatedConfig] = {}
        misses = 0
        entries = self._entries
        for digest in digests:
            value = entries.get(digest)
            if value is None:
                misses += 1
            else:
                found[digest] = value
        self.stats.hits += len(digests) - misses
        self.stats.misses += misses
        return found

    def peek(self, digest: str) -> Optional[EvaluatedConfig]:
        """Like :meth:`lookup` but without touching the statistics."""
        return self._entries.get(digest)

    def items(self) -> Iterator[Tuple[str, EvaluatedConfig]]:
        """Iterate over ``(digest, result)`` pairs (no stat updates)."""
        return iter(self._entries.items())

    def store(self, digest: str, value: EvaluatedConfig) -> None:
        """Insert a freshly evaluated result and persist it if configured."""
        if not isinstance(value, EvaluatedConfig):
            raise ConfigurationError(
                f"cache values must be EvaluatedConfig, got {type(value).__name__}"
            )
        if digest in self._entries:
            return
        self._entries[digest] = value
        if self.path is not None:
            self._persist([(digest, value)])

    def store_many(self, pairs: Iterable[Tuple[str, EvaluatedConfig]]) -> None:
        """Insert a batch of results, skipping digests already present.

        Equivalent to calling :meth:`store` per pair, but persisted entries
        are flushed through a single file append.
        """
        fresh: list = []
        for digest, value in pairs:
            if not isinstance(value, EvaluatedConfig):
                raise ConfigurationError(
                    f"cache values must be EvaluatedConfig, got {type(value).__name__}"
                )
            if digest in self._entries:
                continue
            self._entries[digest] = value
            fresh.append((digest, value))
        if self.path is not None and fresh:
            self._persist(fresh)

    # -- persistence -------------------------------------------------------------
    def _line(self, digest: str, value: EvaluatedConfig) -> str:
        payload, shared = self._codec.encode(value)
        record = {
            "version": _PERSIST_VERSION,
            "key": digest,
            "metrics": {
                "accuracy": value.accuracy,
                "latency_ms": value.latency_ms,
                "energy_mj": value.energy_mj,
                "reuse_fraction": value.reuse_fraction,
            },
            "mapping": value.config.describe(),
            "payload": base64.b64encode(payload).decode("ascii"),
        }
        if shared:
            record["shared"] = {
                key: base64.b64encode(blob).decode("ascii") for key, blob in shared.items()
            }
        # ensure_ascii=False keeps non-ASCII platform/unit names readable in
        # the log; the explicit utf-8 handle in _persist makes that safe on
        # any locale.
        return json.dumps(record, ensure_ascii=False) + "\n"

    def _persist(self, pairs: List[Tuple[str, EvaluatedConfig]]) -> None:
        """Append one line per pair through a single file handle."""
        in_file = set(self._codec.in_file)
        try:
            lines = [self._line(digest, value) for digest, value in pairs]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as stream:
                stream.writelines(lines)
        except BaseException:
            # Blobs that may not have reached the file are written again by
            # the next line that needs them (the loader keeps the first copy).
            self._codec.in_file = in_file
            raise

    def _load(self) -> None:
        """Reload persisted entries, surviving a mid-write crash.

        A process killed while :meth:`_persist` is flushing (e.g. a campaign
        interrupted between checkpoints) leaves a truncated trailing line;
        foreign tools may leave other malformed lines.  Neither aborts the
        load — every malformed line, and every line referring to a ranking
        blob the file does not hold before it, is skipped and the recovery
        is logged so silent data loss is visible in the run's logs.

        Two writers sharing one file may both append an entry; the first
        line for a digest wins, as in :meth:`store`, and ``stats.loaded``
        counts distinct entries.
        """
        codec = self._codec
        entries = self._entries
        skipped = 0
        loaded = 0
        with self.path.open("r", encoding="utf-8") as stream:
            for line in stream:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                    if record.get("version") not in _READABLE_VERSIONS:
                        skipped += 1
                        continue
                    for key, blob in record.get("shared", {}).items():
                        codec.add_blob(key, base64.b64decode(blob))
                    digest = record["key"]
                    if digest in entries:
                        continue
                    value = codec.decode(base64.b64decode(record["payload"]))
                    if not isinstance(value, EvaluatedConfig):
                        skipped += 1
                        continue
                except Exception:  # noqa: BLE001 - tolerate truncated/foreign lines
                    skipped += 1
                    continue
                entries[digest] = value
                loaded += 1
        self.stats.loaded += loaded
        if skipped:
            logger.warning(
                "evaluation cache %s: recovered %d entries, skipped %d malformed "
                "or foreign lines (expected after an interrupted write)",
                self.path,
                loaded,
                skipped,
            )
