"""Kept work: every rule about what outlives a run.

Each kind of kept work is stored where its lifetime is, and only this
module reads, writes, bounds or clears those stores: leaf states on the
chunk (:func:`leaf_state`, for DAG leaves and standing trees alike),
stage outputs on the node (:func:`kept_output`: combines, finalizes,
unions, query stages over shipped rows and step A), and derived queries
and built DAGs in the plan's memo (:func:`plan_memo`, :func:`kept_dag`).

**One change rule.**  Kept work over the base data notes the table's
placement (:meth:`~repro.processor.network.NetworkSimulator.placement`)
with each chunk held weakly (:func:`note_placement`, so nothing kept pins
a superseded chunk) and later compares a fresh one (:func:`same_placement`):
every load, append, re-registration, ``Relation``-API write and node death
changes some holder's chunk object, write counter or epoch.  Kept DAGs and
the standing trees' merged groups use it; leaf states live and die with
their chunk's version, and stage outputs are keyed on their input bytes,
so neither needs it.  **One bound rule.**  A full store is emptied before a
new key goes in (:func:`_make_room`).
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple, TypeVar, Union

from repro.engine.config import EngineConfig
from repro.engine.errors import EngineError
from repro.engine.table import Relation, union_partials
from repro.engine.wire import PackedRelation, WireFormatError, pack_relation, state_size_feedback
from repro.fragment.plan import FragmentPlan
from repro.fragment.topology import Topology
from repro.obs.metrics import registry as _metrics
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> memo)
    from repro.anonymize.anonymizer import Anonymizer
    from repro.processor.network import NetworkSimulator
    from repro.runtime.dag import ExecutionDag


#: A plan's memo of derived queries and DAGs holds at most this many
#: entries.
MAX_DERIVED_QUERIES = 256

#: A chunk keeps at most this many packed partial states per version, and
#: a node at most this many task outputs.  The front end runs at most
#: 23 grouped texts over one chunk.
MAX_KEPT_STATES = 32

#: Leaf states (:func:`leaf_state`) output as kept bytes, folded from
#: the rows appended since, and computed to be kept; a DAG leaf's span
#: shows its outcome as its ``memo`` attribute.
_memo_counters = {
    "hit": _metrics.counter("runtime.state_memo.hits"),
    "fold": _metrics.counter("runtime.state_memo.folds"),
    "miss": _metrics.counter("runtime.state_memo.misses"),
}

#: The tasks whose output a node keeps (:func:`kept_output`), by stage op.
KEPT_OPS = ("combine", "finalize", "union", "query", "anonymize")

#: Per op, the tasks that output kept bytes and those that computed
#: (``runtime.state_memo.combine_hits``, ``.finalize_misses``, ...); a
#: task's span shows which as ``memo``.
_output_counters = {
    (op, outcome): _metrics.counter(f"runtime.state_memo.{op}_{plural}")
    for op in KEPT_OPS
    for outcome, plural in (("hit", "hits"), ("miss", "misses"))
}

#: [hits, misses] of :func:`kept_dag` over every plan; exposed as a
#: metrics probe shaped like ``processor.plan_cache``.
_DAG_CACHE = [0, 0]
_DAG_CACHE_LOCK = threading.Lock()

_metrics.probe(
    "runtime.dag_cache", lambda: {"hits": _DAG_CACHE[0], "misses": _DAG_CACHE[1]}
)


def _make_room(store: Dict, key: Hashable, bound: int) -> None:
    """Empty ``store`` when it holds ``bound`` entries and ``key`` is new."""
    if len(store) >= bound and key not in store:
        store.clear()


def kept_key(query: ast.Query, name: str, config: EngineConfig) -> Tuple:
    """The key of ``query``'s state named ``name`` under ``config`` in a
    chunk's or a node's kept states; the entry holds the query, so no
    other query takes its id."""
    return (id(query), name, config)


def pack_state(relation: Relation) -> Optional[PackedRelation]:
    """``relation`` packed once, or None when it holds a value outside
    the wire vocabulary (such a state is neither kept nor checkpointed)."""
    try:
        return PackedRelation(pack_relation(relation), len(relation), len(relation.schema))
    except WireFormatError:
        return None


_State = TypeVar("_State")


def fold_state(
    kept: Relation, delta: Relation, combine: Callable[[Relation], _State]
) -> _State:
    """The state of a chunk grown by an append, from ``kept`` (the state
    of its old rows) and ``delta`` (that of the appended rows):
    ``combine`` over the two unioned, the kept one first.

    Incremental view maintenance (Gupta and Mumick, 1995) for the partial
    protocol: first-occurrence group order over ``old ++ delta`` is the
    kept state's order followed by the delta's new groups, and every merge
    sees the rows in partition order (a MIN/MAX tie keeps the first-seen
    value), so the folded state equals a fresh partial over the whole
    chunk, byte for byte.  ``combine`` runs the query's combine on the
    node; its result is returned as it is.
    """
    return combine(union_partials([kept, delta], name=""))


class KeptState(NamedTuple):
    """A leaf state a chunk keeps (:meth:`Relation.kept_states`)."""

    #: The query; held so that the id it is keyed on stays unique.
    query: ast.Query
    #: How many leading rows of the chunk the state summarizes.
    covered: int
    state: PackedRelation


class KeptOutput(NamedTuple):
    """A task output a node keeps
    (:meth:`~repro.processor.network.NetworkSimulator.kept_outputs`)."""

    #: What the key names by id (a stage's query), held so that no other
    #: object takes the id; None when the key names nothing by id.
    owner: object
    #: The payloads of the inputs it was computed from, in partition order.
    inputs: Tuple[bytes, ...]
    output: PackedRelation
    #: What the task reports besides its output (step A's outcome
    #: without its relations); None for a stage.
    detail: object = None


def leaf_state(
    base: str,
    chunk: Relation,
    query: ast.Query,
    name: str,
    config: EngineConfig,
    engine: Callable[
        [str, Optional[Relation], Optional[Mapping[str, Relation]]], Tuple[Relation, float]
    ],
    known: Optional[Tuple[Optional[PackedRelation], Relation]] = None,
) -> Tuple[Union[Relation, PackedRelation], Optional[PackedRelation], float, str]:
    """The partial state of ``query`` over ``chunk``, the chunk of
    ``base`` resident on a node, through the states the chunk keeps
    (:meth:`Relation.kept_states`), keyed on the query object, the output
    ``name`` and the ``config``.

    A kept state covering every row is a *hit*: its bytes are the output,
    hence the task's checkpoint and shipment; only a reader of the rows
    decodes them.
    One covering fewer rows (the chunk grew by appends) *folds*: ``query``
    runs over the rows after them alone, bound as ``base`` for that one
    call, and :func:`fold_state` merges that after the kept state.
    Otherwise, or when the fold raises (the full scan then gives the
    answer, state or error), the chunk is scanned: a *miss*.  A computed
    state is packed once and kept, at most :data:`MAX_KEPT_STATES`
    entries per chunk version.  ``engine(op, state, inputs)`` runs the
    ``partial`` (state None) or ``combine`` of ``query`` on the chunk's
    node, with ``inputs`` bound by name, and returns its output and
    engine seconds.  ``known`` is bytes the caller decoded before and
    their decode; a fold of those bytes decodes nothing.

    Returns the output (a relation, or a hit's bytes), its packed bytes,
    the engine seconds and the outcome, which ``runtime.state_memo.*``
    counts.
    """
    # Taken before any row is read, so a state computed over rows a
    # concurrent write replaces is never found (Relation.kept_states).
    memo = chunk.kept_states()
    rows = len(chunk)
    key = kept_key(query, name, config)
    kept = memo.get(key)
    if kept is not None and kept.covered == rows:
        _memo_counters["hit"].inc()
        return kept.state, kept.state, 0.0, "hit"
    output: Optional[Relation] = None
    outcome = "miss"
    if kept is not None:
        try:
            delta, scanned = engine(
                "partial", None, {base: chunk.slice_rows(kept.covered)}
            )
            if known is not None and known[0] is kept.state:
                old = known[1]
            else:
                old = kept.state.unpack()
            output, merged = fold_state(
                old, delta, lambda union: engine("combine", union, None)
            )
            elapsed = scanned + merged
            outcome = "fold"
        except (EngineError, ArithmeticError, TypeError, ValueError):
            output = None
    if output is None:
        output, elapsed = engine("partial", None, None)
    output.name = name
    packed = pack_state(output)
    if packed is not None:
        _make_room(memo, key, MAX_KEPT_STATES)
        memo[key] = KeptState(query, rows, packed)
    _memo_counters[outcome].inc()
    return output, packed, elapsed, outcome


def stage_key(op: str, query: ast.Query, name: str, config: EngineConfig) -> Tuple:
    """The key of a stage's kept output: :func:`kept_key` plus the op,
    since a combine and a finalize share their fragment's query."""
    return kept_key(query, name, config) + (op,)


def release_key(anonymizer: Anonymizer, power: float, payload: bytes) -> Optional[Tuple]:
    """The key of step A's kept release over the input ``payload``, run as
    a node of ``power`` decides; None when the release is not a function
    of its input: an unseeded slicing or DP anonymizer draws fresh
    randomness on every run.  The input bytes are part of the key, so the
    releases of several texts on one node do not displace each other."""
    if anonymizer.algorithm not in ("k_anonymity", "none") and anonymizer.seed is None:
        return None
    return (
        "anonymize",
        anonymizer.algorithm,
        anonymizer.k,
        anonymizer.epsilon,
        anonymizer.seed,
        anonymizer.minimum_cpu_power,
        power,
        payload,
    )


def kept_output(
    network: NetworkSimulator,
    node: str,
    op: str,
    key: Tuple,
    owner: object,
    inputs: Sequence[bytes],
    compute: Callable[[], Tuple[Relation, float, object]],
) -> Tuple[Union[Relation, PackedRelation], Optional[PackedRelation], float, str, object]:
    """The output of the ``op`` task on ``node`` whose inputs are the
    payloads ``inputs`` in partition order, through the outputs the node
    keeps (:meth:`NetworkSimulator.kept_outputs`) under ``key``
    (:func:`stage_key`, :func:`release_key`).

    Nectar's rule (Gunda et al., OSDI 2010): a derived dataset is a
    function of its program and its inputs' bytes.  An entry whose inputs
    equal ``inputs`` byte for byte is a *hit*: its kept bytes are the
    output, undecoded (the inputs still ship, so transfers, link faults
    and checkpoints are those of a computing run).  Otherwise
    ``compute()`` returns the output, already named, its engine seconds
    and its detail (a *miss*); the output is packed once and kept with
    the input bytes (referenced, not copied) and ``owner``, at most
    :data:`MAX_KEPT_STATES` entries per node.  Returns the output, its
    packed bytes, the engine seconds, the outcome, which
    ``runtime.state_memo.<op>_*`` counts, and the detail.
    """
    memo = network.kept_outputs(node)
    inputs = tuple(inputs)
    kept = memo.get(key)
    if kept is not None and kept.inputs == inputs:
        _output_counters[op, "hit"].inc()
        return kept.output, kept.output, 0.0, "hit", kept.detail
    output, elapsed, detail = compute()
    packed = pack_state(output)
    if packed is not None:
        _make_room(memo, key, MAX_KEPT_STATES)
        memo[key] = KeptOutput(owner, inputs, packed, detail)
    _output_counters[op, "miss"].inc()
    return output, packed, elapsed, "miss", detail


def leaf_state_bytes(
    network: NetworkSimulator, table: str, query: ast.Query, name: str, config: EngineConfig
) -> int:
    """Payload bytes of the leaf states ``table``'s chunks keep for
    ``query`` (already packed: nothing is encoded to count them)."""
    key = kept_key(query, name, config)
    total = 0
    for _, chunk, *_ in network.placement(table):
        if chunk is not None:
            kept = chunk.kept_states().get(key)
            if kept is not None:
                total += len(kept.state.payload)
    return total


def carry_states(grown: Relation, prefix: Relation) -> None:
    """Seed ``grown``'s kept states from ``prefix``'s, for a chunk holding
    ``prefix``'s rows followed by new ones (an append): every kept state
    still summarizes the leading rows it covers, so it carries over as it
    is, and the next read folds in only the rows after them."""
    grown.kept_states().update(prefix.kept_states())


def forget(network: NetworkSimulator, node: Optional[str] = None) -> None:
    """Drop what ``node`` (default: every node) keeps: its stage outputs
    and the leaf states of every base chunk it holds.  The next run over
    them computes again."""
    names = [node] if node is not None else [each.name for each in network.topology]
    for name in names:
        network.kept_outputs(name).clear()
        database = network.database(name)
        for table in network.base_table_names():
            if table in database:
                database.table(table).kept_states().clear()


def plan_memo(plan: FragmentPlan, key: Tuple, make: Callable[[], Tuple]) -> Tuple:
    """The entry of ``plan``'s memo (:attr:`FragmentPlan.derived`) under
    ``key``, made by ``make`` when absent, at most
    :data:`MAX_DERIVED_QUERIES` entries.  A racing build of the same plan
    keeps the first entry."""
    derived = plan.derived
    entry = derived.get(key)
    if entry is None:
        _make_room(derived, key, MAX_DERIVED_QUERIES)
        entry = derived.setdefault(key, make())
    return entry


def note_placement(placement: Tuple[tuple, ...]) -> Tuple[tuple, ...]:
    """``placement`` (:meth:`NetworkSimulator.placement`) with each chunk
    held by weak reference, so a note keeps no chunk alive."""
    return tuple(
        (holder, weakref.ref(chunk) if chunk is not None else None, *counters)
        for holder, chunk, *counters in placement
    )


def same_placement(note: Tuple[tuple, ...], now: Tuple[tuple, ...]) -> bool:
    """True when ``now`` (a fresh :meth:`NetworkSimulator.placement`) names
    the very chunks ``note`` noted, at the same versions and epochs: the
    one test of whether the base data changed."""
    if len(note) != len(now):
        return False
    for (name, ref, *counters), (holder, chunk, *now_counters) in zip(note, now):
        if name != holder or counters != now_counters:
            return False
        if (ref() if ref is not None else None) is not chunk:
            return False
    return True


class _BuiltDag(NamedTuple):
    """A DAG kept in its plan's memo, with the inputs its build read; the
    plan, the topology and the chunks by weak reference, so the memo keeps
    none of them alive."""

    plan: "weakref.ref[FragmentPlan]"
    topology: "weakref.ref[Topology]"
    #: :func:`note_placement` of the base table.
    placement: Tuple[tuple, ...]
    dag: ExecutionDag


def kept_dag(
    plan: FragmentPlan,
    key: Tuple,
    topology: Topology,
    placement: Tuple[tuple, ...],
    build: Callable[[], ExecutionDag],
) -> Tuple[ExecutionDag, bool]:
    """The DAG ``plan``'s memo keeps under ``key`` and True, when it was
    built for ``topology`` over ``placement`` and every state-size
    feedback reading it consulted (``ExecutionDag.feedback``) is still
    current; otherwise ``build()``'s DAG, kept in its place, and False.
    Counted in ``runtime.dag_cache``."""
    derived = plan.derived
    kept = derived.get(key)
    hit = (
        kept is not None
        and kept.plan() is plan
        and kept.topology() is topology
        and same_placement(kept.placement, placement)
        and all(
            reading == state_size_feedback.bytes_per_cell()
            for reading in kept.dag.feedback
        )
    )
    with _DAG_CACHE_LOCK:
        _DAG_CACHE[0 if hit else 1] += 1
    if hit:
        return kept.dag, True
    dag = build()
    _make_room(derived, key, MAX_DERIVED_QUERIES)
    derived[key] = _BuiltDag(
        weakref.ref(plan), weakref.ref(topology), note_placement(placement), dag
    )
    return dag, False
