"""The prepared-plan cache: repeated query texts reuse their plan.

Smart-home modules ask the same analyses again and again.  A
:class:`~repro.processor.paradise.ParadiseProcessor` keeps, per key of
(SQL text, module, ``apply_rewriting``, ``pushdown``, a fingerprint of the
module's policy), the parsed query, its rewrite and its
:class:`~repro.fragment.plan.FragmentPlan`.  Admission still runs
on every submission; only parsing, rewriting and fragmentation are skipped.

A cached plan is shared by every run of its text and is never written to.
The first submission of a text plans it; submissions of the same text
meanwhile wait for that plan instead of planning their own
(:meth:`PlanCache.get`), so a cold burst parses, rewrites and fragments
the text once and every session runs one plan.
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
from typing import Dict, Hashable, Optional

from repro.fragment.plan import FragmentPlan
from repro.obs.metrics import registry as _metrics
from repro.rewrite.analyzer import QueryPolicyAnalysis
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
    #: Admission's attribute analysis of ``parsed`` against the module's
    #: policy, which the key fingerprints; ``None`` when the key skips
    #: rewriting.  Admission reuses it; its per-run checks still run.
    analysis: Optional[QueryPolicyAnalysis] = None


class PlanCache:
    """A bounded, thread-safe LRU map from plan keys to :class:`CachedPlan`."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, CachedPlan]" = OrderedDict()
        #: Keys being planned -> set once their planner puts or releases.
        self._planning: Dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[CachedPlan]:
        """The entry under ``key``; None makes the caller its planner.

        While another caller plans ``key``, this one waits for it to
        :meth:`put` (a hit) or :meth:`release` without a plan (this
        caller then plans).  A planner must call one of the two.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    break
                planning = self._planning.get(key)
                if planning is None:
                    self._planning[key] = threading.Event()
                    break
            planning.wait()
        with _STATS_LOCK:
            _STATS[0 if entry is not None else 1] += 1
        return entry

    def put(self, key: Hashable, entry: CachedPlan) -> CachedPlan:
        """Store ``entry`` under ``key`` unless an entry is there already
        and wake the callers waiting for it; returns the stored one."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > MAX_PLANS:
                self._entries.popitem(last=False)
            planning = self._planning.pop(key, None)
        if planning is not None:
            planning.set()
        return entry

    def release(self, key: Hashable) -> None:
        """End the caller's planning of ``key`` (a no-op after :meth:`put`):
        a rejected or failed submission stores no plan, and the next
        waiting caller plans instead."""
        with self._lock:
            planning = self._planning.pop(key, None)
        if planning is not None:
            planning.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
