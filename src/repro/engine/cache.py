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
files double as a flat log of everything ever evaluated.  The line format,
crash recovery and first-line-wins rule are those of
:class:`~repro.jsonl_store.JsonlStore`.

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

import copyreg
import hashlib
import io
import logging
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore, from_text, to_text
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

    def encode(self, value: EvaluatedConfig) -> Tuple[str, Dict[str, str]]:
        """Pickle ``value`` to payload text; also return, as text by key, the
        ranking blobs its line must carry.

        The returned blobs count as written from here on: the caller puts
        them on this entry's line.
        """
        self._pending = {}
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer)
        pickler.dispatch_table = self._dispatch
        pickler.dump(value)
        self.in_file.update(self._pending)
        return to_text(buffer.getvalue()), {
            key: to_text(blob) for key, blob in self._pending.items()
        }

    def add_blob(self, key: str, text: str) -> None:
        """Decode a ranking blob read from the file (first copy wins)."""
        blob = from_text(text)
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

    def decode(self, text: str) -> EvaluatedConfig:
        """Unpickle payload text, resolving its references through :attr:`table`."""
        value = _SharedUnpickler(io.BytesIO(from_text(text)), self._classes).load()
        if not isinstance(value, EvaluatedConfig):
            raise ValueError(f"payload is not an EvaluatedConfig: {type(value).__name__}")
        return value


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
        self._codec: Optional[_SharedCodec] = None
        self._store: Optional[JsonlStore] = None
        if self.path is not None:
            self._codec = _SharedCodec()
            self._store = JsonlStore(self.path, _READABLE_VERSIONS, "evaluation cache", logger)
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
        self._insert(((digest, value),))

    def store_many(self, pairs: Iterable[Tuple[str, EvaluatedConfig]]) -> None:
        """Insert a batch of results, skipping digests already present.

        Equivalent to calling :meth:`store` per pair, but persisted entries
        are flushed through a single file append.
        """
        self._insert(pairs)

    def _insert(self, pairs: Iterable[Tuple[str, EvaluatedConfig]]) -> None:
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
        if self._store is None or not fresh:
            return
        in_file = set(self._codec.in_file)
        try:
            # A generator, so each record is freed once dumped to its line.
            self._store.append(self._record(digest, value) for digest, value in fresh)
        except BaseException:
            # Blobs that may not have reached the file are written again by
            # the next line that needs them (the loader keeps the first copy).
            self._codec.in_file = in_file
            raise

    # -- persistence -------------------------------------------------------------
    def _record(self, digest: str, value: EvaluatedConfig) -> Dict[str, object]:
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
            "payload": payload,
        }
        if shared:
            record["shared"] = shared
        return record

    def _load(self) -> None:
        """Reload persisted entries through the store's tolerant reader.

        A line referring to a ranking blob the file does not hold before it
        is skipped like a malformed one.  ``stats.loaded`` counts distinct
        entries.
        """
        codec = self._codec

        def key(record: dict) -> str:
            for name, blob in record.get("shared", {}).items():
                codec.add_blob(name, blob)
            return record["key"]

        self._store.load(self._entries, key, lambda record: codec.decode(record["payload"]))
        self.stats.loaded += len(self._entries)
