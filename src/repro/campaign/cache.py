"""Content-addressed result caching for campaign cells.

A cell's *payload* (its JSON work order, :mod:`repro.campaign.spec`) fully
determines its deterministic result, so the payload's canonical-JSON SHA-256
is a sound cache key: re-running an edited campaign recomputes exactly the
cells whose payloads changed (a new protocol, a reseeded axis, a different
loss level) and replays everything else from disk.  Host wall time is the one
field a cached row cannot refresh; rows replayed from the cache are marked
``cached=True`` so aggregations can tell.

The cache layout is one ``<sha256>.json`` file per cell under the cache
directory — trivially inspectable, safe to delete wholesale, and naturally
shared between campaigns that happen to contain identical cells.  Nothing
evicts entries; bound a long-lived cache by deleting it.

Robustness contract: a cache entry can **never** take a campaign down.  A
truncated file, non-JSON garbage, or valid JSON of the wrong shape (anything
but an object with the row's identifying fields) is logged at warning level
and treated as a miss — the cell recomputes and the entry is overwritten.

``CACHE_VERSION`` is baked into every key; bump it whenever the simulation's
observable outputs change so stale results can never masquerade as fresh
ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import Dict, Mapping, Optional

from .. import telemetry

__all__ = ["CACHE_VERSION", "ResultCache", "payload_hash"]

#: Bump on any change to what execute_cell computes from a payload.
CACHE_VERSION = 1

#: A stored row must at least identify its cell; anything less is garbage
#: (e.g. a JSON scalar or a file from some other tool sharing the directory).
_REQUIRED_ROW_KEYS = ("campaign", "cell")

logger = logging.getLogger(__name__)


def payload_hash(payload: Mapping) -> str:
    """The content hash of one cell payload (stable across key order)."""
    canonical = json.dumps(
        {"version": CACHE_VERSION, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of content-addressed cell results.

    Misses and hits are counted so callers (and the CLI) can report how much
    of a re-run was replayed.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, payload: Mapping) -> str:
        return os.path.join(self.directory, payload_hash(payload) + ".json")

    def get(self, payload: Mapping) -> Optional[Dict[str, object]]:
        """The cached row for ``payload``, or ``None``.

        A missing entry is a plain miss; a corrupt one (truncated write,
        non-JSON bytes, JSON of the wrong shape) is logged and counted as a
        miss too — the caller recomputes and the bad entry gets overwritten.
        """
        path = self._path(payload)
        try:
            with open(path, encoding="utf-8") as handle:
                row = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            telemetry.count("cache.misses")
            return None
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            logger.warning("corrupt cache entry %s (%s): recomputing", path, exc)
            self.misses += 1
            telemetry.count("cache.misses")
            return None
        if not isinstance(row, dict) or any(key not in row for key in _REQUIRED_ROW_KEYS):
            logger.warning("cache entry %s is not a result row: recomputing", path)
            self.misses += 1
            telemetry.count("cache.misses")
            return None
        self.hits += 1
        telemetry.count("cache.hits")
        row["cached"] = True
        return row

    def put(self, payload: Mapping, row: Mapping) -> None:
        """Store one freshly computed row (atomically, via rename)."""
        path = self._path(payload)
        stored = {key: value for key, value in row.items() if key != "cached"}
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(stored, handle)
        os.replace(tmp, path)
        telemetry.count("cache.puts")

    def log_summary(self) -> None:
        """Count the replayed cells and log :meth:`summary_line` (campaign end)."""
        telemetry.count("cache.cells_replayed", self.hits)
        logger.info("%s", self.summary_line())

    def summary_line(self) -> str:
        """One line of hit/miss statistics (logged at campaign end)."""
        total = self.hits + self.misses
        rate = 100.0 * self.hits / total if total else 0.0
        return (
            f"cache {self.directory}: {self.hits} hits, {self.misses} misses "
            f"({rate:.0f}% hit rate), {len(self)} entries on disk"
        )

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".json"))
