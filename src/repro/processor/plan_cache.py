"""The prepared-plan cache: repeated query texts reuse their plan.

Smart-home modules ask the same analyses again and again.  A
:class:`~repro.processor.paradise.ParadiseProcessor` keeps, per key of
(SQL text, module, ``apply_rewriting``, ``pushdown``, a fingerprint of the
module's policy), the parsed query, its rewrite and its
:class:`~repro.fragment.plan.FragmentPlan`.  Admission still runs
on every submission; only parsing, rewriting and fragmentation are skipped.

A cached plan is shared by every run of its text and is never written to;
the first plan stored under a key stays, so sessions that plan one text
at once all run it.
The queries the DAG builder derives from it live in the plan's own memo
(:attr:`FragmentPlan.derived`), so every run hands the engine the same AST
objects and the engine's plan memos, keyed by node identity, hit.  Once
a node has died, every run re-maps the cached plan around the dead nodes
(``ParadiseProcessor._live_view``); the re-mapped plan is kept in, and
shares, the same memo, so the states the nodes kept for those queries
keep serving later runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.fragment.plan import FragmentPlan
from repro.obs.metrics import registry as _metrics
from repro.rewrite.rewriter import RewriteResult
from repro.sql import ast

#: Plans kept per processor; the least recently used one goes first.
MAX_PLANS = 128

#: [hits, misses] over every processor; exposed as a metrics probe shaped
#: like ``sql.parse_cache``.
_STATS = [0, 0]
_STATS_LOCK = threading.Lock()

_metrics.probe(
    "processor.plan_cache", lambda: {"hits": _STATS[0], "misses": _STATS[1]}
)


@dataclass(frozen=True)
class CachedPlan:
    """The front half of one query text, as the first submission left it."""

    parsed: ast.Query
    #: ``None`` when the key skips rewriting.
    rewrite: Optional[RewriteResult]
    plan: FragmentPlan


class PlanCache:
    """A bounded, thread-safe LRU map from plan keys to :class:`CachedPlan`."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[CachedPlan]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        with _STATS_LOCK:
            _STATS[0 if entry is not None else 1] += 1
        return entry

    def put(self, key: Hashable, entry: CachedPlan) -> CachedPlan:
        """Store ``entry`` under ``key`` unless an entry is there already;
        returns the stored one, so racing submissions share one plan."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > MAX_PLANS:
                self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
