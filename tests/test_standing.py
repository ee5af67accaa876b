"""Tests for incremental standing queries (delta-maintained state trees).

The contract under test (see :mod:`repro.runtime.standing`): after every
refresh, each registered standing query's maintained result is
**byte-identical** (wire encoding) to from-scratch re-execution over the
current data — under both engine modes, with empty/single-row deltas, with
late-appearing holders, and under concurrent producers.  On top of the
differential guarantee: cross-session sharing (containment-equal queries
attach to one state tree), the admission/rewriting gate, and the
observability surface (metrics, profile section, linked refresh spans).
"""

from __future__ import annotations

import threading
import time

import pytest

from tests.conftest import make_sensor_relation
from tests.test_zone_maps import SENSOR_MUTATIONS

from repro.engine.wire import pack_state_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.obs.trace import QueryTrace
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.runtime import (
    SessionFrontEnd,
    StandingQueryError,
    StandingQueryRuntime,
)
from repro.runtime.memo import kept_key
from repro.runtime.standing import LEAF_NAME
from repro.sensors.scenario import INTEGRATED_SCHEMA

pytestmark = pytest.mark.standing


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def build_tree_processor(
    rows: int = 240, n_sensors: int = 8, **kwargs
) -> ParadiseProcessor:
    topology = Topology.smart_home_tree(n_sensors=n_sensors, sensors_per_appliance=4)
    kwargs.setdefault("schema", INTEGRATED_SCHEMA)
    processor = ParadiseProcessor(figure4_policy(), topology=topology, **kwargs)
    processor.load_data(make_sensor_relation(rows))
    return processor


def kept_entry(runtime, tree, holder):
    """The leaf state ``holder``'s chunk keeps for ``tree``, or None."""
    database = runtime.network.database(holder)
    if tree.table not in database:
        return None
    key = kept_key(tree.core, LEAF_NAME, runtime.engine)
    return database.table(tree.table).kept_states().get(key)


def fresh_leaf_bytes(runtime, tree, holder):
    """The packed partial state of ``tree``'s core over ``holder``'s chunk,
    computed from scratch."""
    database = runtime.network.database(holder)
    state = database.partial_aggregate(tree.core, runtime.engine)
    state.name = LEAF_NAME
    return pack_state_relation(state)


def assert_byte_identical(maintained, oracle, context=""):
    assert maintained.schema.names == oracle.schema.names, context
    assert pack_state_relation(maintained) == pack_state_relation(oracle), context


def feed_chunks(rows: int, chunk: int, seed: int = 11):
    relation = make_sensor_relation(rows, seed=seed)
    return [
        relation.slice_rows(start, min(start + chunk, rows), name="d")
        for start in range(0, rows, chunk)
    ]


STANDING_SQL = (
    "SELECT activity, COUNT(*) AS n, AVG(z) AS az, SUM(z) AS sz "
    "FROM d GROUP BY activity HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC"
)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT activity FROM d",
        "SELECT x, z FROM d WHERE z < 1.5",
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity LIMIT 2",
        "SELECT activity, MEDIAN(z) AS mz FROM d GROUP BY activity",
        "SELECT a.activity, COUNT(*) FROM d a JOIN d b ON a.t = b.t GROUP BY a.activity",
    ],
)
def test_register_rejects_non_decomposable_queries(sql):
    runtime = StandingQueryRuntime(build_tree_processor(rows=40))
    with pytest.raises(StandingQueryError):
        runtime.register(sql)


def test_register_accepts_order_by_output_alias():
    """``ORDER BY az`` reads the select item ``AVG(z) AS az``: the query
    stays a decomposable aggregation and refreshes like any other."""
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(
        "SELECT activity, AVG(z) AS az FROM d GROUP BY activity ORDER BY az DESC"
    )
    holders = processor.network.partition_holders("d")
    for index, delta in enumerate(feed_chunks(rows=40, chunk=20)):
        runtime.append(holders[index], delta)
        assert_byte_identical(handle.result(), runtime.reexecute(handle))


#: Standing queries reading bare non-key columns (first-value states).
BARE_COLUMN_SQL = [
    # ORDER BY an output alias reads its item, here a non-key column.
    "SELECT activity, x AS ax, COUNT(*) AS n FROM d GROUP BY activity ORDER BY ax",
    "SELECT activity, t, AVG(z) AS az FROM d GROUP BY activity HAVING MAX(z) > y",
    "SELECT t, person_id, COUNT(*) AS n FROM d",
]


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_bare_column_subscribers_refresh_byte_identically(engine_mode):
    """A bare non-key column reads its group's first row: the tree keeps a
    first-value state, and every epoch equals re-execution."""
    processor = build_tree_processor(engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in BARE_COLUMN_SQL]
    holders = processor.network.partition_holders("d")
    for epoch, delta in enumerate(feed_chunks(rows=60, chunk=15, seed=5), start=1):
        runtime.append(holders[(5 * epoch) % len(holders)], delta)
        for handle in handles:
            assert_byte_identical(
                handle.result(), runtime.reexecute(handle), f"epoch {epoch}: {handle.sql}"
            )


def test_subscriber_attaches_only_to_a_tree_with_its_first_values():
    runtime = StandingQueryRuntime(build_tree_processor())
    plain = runtime.register("SELECT activity, COUNT(*) AS n FROM d GROUP BY activity")
    with_t = runtime.register("SELECT activity, t, COUNT(*) AS n FROM d GROUP BY activity")
    assert with_t.tree is not plain.tree
    assert with_t.tree.first_names == ["t"]
    # Fewer first values than the tree carries: the subscriber attaches.
    again = runtime.register("SELECT activity, COUNT(*) AS c FROM d GROUP BY activity")
    t_only = runtime.register("SELECT activity, t FROM d GROUP BY activity ORDER BY t")
    assert again.tree in (plain.tree, with_t.tree)
    assert t_only.tree is with_t.tree
    # An aggregate over a first-value column is a separate state.
    max_t = runtime.register("SELECT activity, MAX(t) AS hi, t FROM d GROUP BY activity")
    twin = runtime.register("SELECT activity, t, MAX(t) AS top FROM d GROUP BY activity")
    assert max_t.tree is twin.tree and max_t.tree not in (plain.tree, with_t.tree)
    assert runtime.tree_count == 3
    runtime.append(runtime.network.partition_holders("d")[1], feed_chunks(rows=20, chunk=20)[0])
    for handle in (plain, with_t, again, t_only, max_t, twin):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_initial_result_matches_oracle(engine_mode):
    processor = build_tree_processor(engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(STANDING_SQL)
    assert handle.epoch == 0 and not handle.shared
    assert_byte_identical(handle.result(), runtime.reexecute(handle))


# ---------------------------------------------------------------------------
# the differential guarantee, refresh by refresh
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_every_refresh_is_byte_identical_to_reexecution(engine_mode):
    processor = build_tree_processor(engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register(STANDING_SQL),
        runtime.register(
            "SELECT person_id, COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi "
            "FROM d GROUP BY person_id"
        ),
        runtime.register(
            "SELECT activity, STDDEV(z) AS s FROM d WHERE z < 1.5 GROUP BY activity"
        ),
    ]
    holders = processor.network.partition_holders("d")
    for index, delta in enumerate(feed_chunks(rows=120, chunk=20)):
        epoch = runtime.append(holders[index % len(holders)], delta)
        assert epoch == index + 1
        for handle in handles:
            assert handle.epoch == epoch
            assert_byte_identical(
                handle.result(),
                runtime.reexecute(handle),
                f"epoch {epoch}: {handle.sql}",
            )


def test_single_row_and_empty_deltas():
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(STANDING_SQL)
    leaf = processor.network.partition_holders("d")[0]
    before = pack_state_relation(handle.result())

    runtime.append(leaf, feed_chunks(rows=1, chunk=1, seed=5)[0])
    assert handle.epoch == 1
    assert_byte_identical(handle.result(), runtime.reexecute(handle))

    # An empty delta advances the epoch but lands nothing: the handle
    # keeps the previous epoch's bytes without finalizing again, and a
    # read through ``process`` keeps its DAG.
    refreshed = pack_state_relation(handle.result())
    processor.process(STANDING_SQL, "ActionFilter", apply_rewriting=False)
    before_empty = registry.snapshot()
    runtime.append(leaf, make_sensor_relation(0))
    assert handle.epoch == 2
    assert pack_state_relation(handle.result()) == refreshed != before
    processor.process(STANDING_SQL, "ActionFilter", apply_rewriting=False)
    after_empty = registry.snapshot()
    for name, moved in (
        ("standing.subscriber_refreshes", 0),
        ("runtime.dag_cache.hits", 1),
        ("runtime.dag_cache.misses", 0),
    ):
        assert after_empty.get(name, 0) - before_empty.get(name, 0) == moved, name


def test_min_max_ties_keep_first_occurrence_semantics():
    """A delta re-introducing an existing extremum must not change which
    occurrence MIN/MAX report — first-occurrence over the concatenated
    stream, exactly like the oracle's single pass."""
    processor = build_tree_processor(rows=60)
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(
        "SELECT activity, MIN(z) AS lo, MAX(z) AS hi, COUNT(*) AS n "
        "FROM d GROUP BY activity"
    )
    low = min(row["lo"] for row in runtime.reexecute(handle).rows)
    # seed=3 overlaps the value range of the loaded data, so the delta
    # re-introduces existing extrema and exercises the tie-keeping rule.
    leaf = processor.network.partition_holders("d")[1]
    runtime.append(leaf, make_sensor_relation(12, seed=3))
    assert_byte_identical(handle.result(), runtime.reexecute(handle))
    assert min(row["lo"] for row in handle.result().rows) <= low


def test_new_holder_appearing_after_registration():
    """A node that receives its first chunk after the tree was built joins
    the placement without disturbing the differential guarantee."""
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(STANDING_SQL)
    assert "pc" not in processor.network.partition_holders("d")
    runtime.append("pc", feed_chunks(rows=30, chunk=30, seed=9)[0])
    # The append computes nothing; the read takes pc's leaf state too.
    assert kept_entry(runtime, handle.tree, "pc") is None
    assert_byte_identical(handle.result(), runtime.reexecute(handle))
    entry = kept_entry(runtime, handle.tree, "pc")
    assert entry is not None and entry.covered == 30
    assert entry.state.payload == fresh_leaf_bytes(runtime, handle.tree, "pc")
    # And subsequent deltas on old and new holders keep holding it.
    runtime.append(processor.network.partition_holders("d")[0], feed_chunks(20, 20)[0])
    runtime.append("pc", feed_chunks(rows=10, chunk=10, seed=21)[0])
    assert_byte_identical(handle.result(), runtime.reexecute(handle))


def test_reloaded_data_refreshes_every_handle():
    """Loading new data replaces every chunk: a handle read after it
    answers over the new chunks, not from its cached result."""
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(STANDING_SQL)
    before = pack_state_relation(handle.result())
    processor.load_data(make_sensor_relation(300, seed=19))
    assert pack_state_relation(handle.result()) != before
    assert_byte_identical(handle.result(), runtime.reexecute(handle))


@pytest.mark.parametrize("n_sensors", [3, 8])
def test_placement_changes_at_every_depth_stay_byte_identical(n_sensors):
    """New holders at an appliance and at the PC join the partition
    several times; a holder that is also a sensor's parent (the appliance)
    adds its own leaf state in partition order.  Every append is checked
    against re-execution, and every holder's kept leaf state against a
    fresh partial over its chunk."""
    processor = build_tree_processor(n_sensors=n_sensors)
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register(STANDING_SQL),
        runtime.register(
            "SELECT person_id, activity, MIN(z) AS lo, MAX(t) AS hi "
            "FROM d GROUP BY person_id, activity"
        ),
    ]
    appends = [
        "appliance_0",
        "sensor_0",
        "appliance_0",
        "pc",
        f"sensor_{n_sensors - 1}",
        "pc",
        "appliance_0",
    ]
    if n_sensors > 4:
        appends[4:4] = ["appliance_1", "sensor_5", "appliance_1"]
    for index, node in enumerate(appends):
        runtime.append(node, feed_chunks(rows=12, chunk=12, seed=40 + index)[0])
        for handle in handles:
            assert_byte_identical(
                handle.result(),
                runtime.reexecute(handle),
                f"append {index} at {node}: {handle.sql}",
            )
    holders = processor.network.partition_holders("d")
    assert {"appliance_0", "pc"} <= set(holders)
    for tree in {handle.tree for handle in handles}:
        fresh = [fresh_leaf_bytes(runtime, tree, holder) for holder in holders]
        kept = [kept_entry(runtime, tree, holder).state.payload for holder in holders]
        assert kept == fresh
        assert tree.state_bytes() == sum(len(payload) for payload in fresh)


#: Every way the base data can change under a handle: the public
#: mutations of one sensor's chunk, and its node dying under both
#: ``fail_node`` semantics.
DATA_CHANGES = {
    **SENSOR_MUTATIONS,
    "fail_node": lambda network, node: network.fail_node(node),
    "fail_node_lose_data": lambda network, node: network.fail_node(node, lose_data=True),
}


@pytest.mark.parametrize("change", sorted(DATA_CHANGES))
@pytest.mark.parametrize("victim", ["sensor_0", "sensor_5"])
def test_a_handle_read_after_any_data_change_answers_over_the_new_data(change, victim):
    """On the 8-sensor tree, a handle read, then ``change`` applied to
    ``victim`` outside the standing runtime, then read again: the second
    read equals re-execution over the data as it is now, not the bytes
    the first read cached."""
    processor = build_tree_processor(rows=400)
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(
        "SELECT x, COUNT(*) AS n, SUM(z) AS s, MAX(t) AS hi FROM d GROUP BY x",
        "ActionFilter",
    )
    handle.result()
    DATA_CHANGES[change](processor.network, victim)
    assert_byte_identical(handle.result(), runtime.reexecute(handle), change)


# ---------------------------------------------------------------------------
# cross-session sharing
# ---------------------------------------------------------------------------


def test_identical_and_subset_queries_share_one_tree():
    runtime = StandingQueryRuntime(build_tree_processor())
    base = runtime.register(STANDING_SQL)
    twin = runtime.register(STANDING_SQL)
    # Subset of the tree's aggregates, in a different order: attaches and
    # reads its finalized aggregates by render key instead of materializing
    # a second tree.
    subset = runtime.register(
        "SELECT activity, SUM(z) AS total, COUNT(*) AS n FROM d GROUP BY activity"
    )
    assert runtime.tree_count == 1
    assert base.tree is twin.tree is subset.tree
    assert len(base.tree.subscribers) == 3
    assert base.shared and twin.shared and subset.shared
    assert base.tree.agg_keys == ["COUNT(*)", "AVG(z)", "SUM(z)"]

    # A non-subset aggregate needs state the tree never maintained.
    other = runtime.register(
        "SELECT activity, MIN(z) AS lo FROM d GROUP BY activity"
    )
    assert other.tree is not base.tree
    assert runtime.tree_count == 2

    leaf = runtime.network.partition_holders("d")[2]
    runtime.append(leaf, feed_chunks(rows=25, chunk=25)[0])
    for handle in (base, twin, subset, other):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


def test_failed_registration_leaves_no_subscriber_behind():
    """A query whose first finalize raises is refused and leaves nothing
    behind: no subscriber on a shared tree, no tree made only for it."""
    from repro.engine.errors import ExecutionError

    processor = build_tree_processor(rows=2000, n_sensors=16)
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register("SELECT activity, COUNT(*) AS n FROM d GROUP BY activity"),
        runtime.register(
            "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity "
            "HAVING COUNT(*) > 2"
        ),
        runtime.register("SELECT person_id, COUNT(*) AS n FROM d GROUP BY person_id"),
    ]
    failing = [
        # Would attach to the first tree.
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity HAVING activity > 3",
        # Would get a tree of its own.
        "SELECT activity, SUM(x) AS sx FROM d WHERE z < 1 GROUP BY activity "
        "HAVING activity > 3",
    ]
    for sql in failing:
        with pytest.raises(ExecutionError, match="Cannot compare str and int"):
            runtime.register(sql)
    assert runtime.tree_count == 2 and runtime.handles() == handles
    assert sorted(
        id(handle) for tree in runtime._trees_for_all() for handle in tree.subscribers
    ) == sorted(id(handle) for handle in handles)
    assert [handle.shared for handle in handles] == [True, True, False]
    assert [handle.query_id for handle in handles] == ["q0", "q1", "q2"]
    holders = processor.network.partition_holders("d")
    for index, delta in enumerate(feed_chunks(rows=60, chunk=20, seed=9), start=1):
        assert runtime.append(holders[index], delta) == index
        for handle in handles:
            assert_byte_identical(
                handle.result(), runtime.reexecute(handle), f"epoch {index}: {handle.sql}"
            )


def test_a_failing_tail_fails_only_its_own_reads():
    """A tail that starts raising at a later epoch raises from its own
    handle's reads only: the append lands, its tree-mates and every other
    handle keep answering, and later appends go on."""
    from repro.engine.errors import ExecutionError

    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    # No row has z > 5 yet, so the HAVING compares nothing at registration.
    failing = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d WHERE z > 5 GROUP BY activity "
        "HAVING activity > 3"
    )
    assert len(failing.result()) == 0
    mate = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d WHERE z > 5 GROUP BY activity"
    )
    other = runtime.register(STANDING_SQL)
    assert mate.tree is failing.tree and other.tree is not failing.tree
    holders = processor.network.partition_holders("d")
    delta = feed_chunks(rows=10, chunk=10, seed=3)[0]
    for row in delta.rows:
        row["z"] = 9.0
    assert runtime.append(holders[1], delta) == 1
    for _ in range(2):
        with pytest.raises(ExecutionError, match="Cannot compare str and int"):
            failing.result()
    assert failing.epoch == 1
    for handle in (mate, other):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)
    assert len(mate.result()) > 0
    assert runtime.append(holders[2], feed_chunks(rows=10, chunk=10, seed=4)[0]) == 2
    for handle in (mate, other):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


def test_where_and_group_keys_split_trees():
    runtime = StandingQueryRuntime(build_tree_processor())
    plain = runtime.register("SELECT activity, AVG(z) AS az FROM d GROUP BY activity")
    filtered = runtime.register(
        "SELECT activity, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY activity"
    )
    same_filter = runtime.register(
        "SELECT activity, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY activity "
        "HAVING AVG(z) > 0.2"
    )
    keys = runtime.register(
        "SELECT person_id, activity, AVG(z) AS az FROM d GROUP BY person_id, activity"
    )
    assert plain.tree is not filtered.tree
    assert filtered.tree is same_filter.tree  # identical WHERE shares
    assert keys.tree not in (plain.tree, filtered.tree)
    assert runtime.tree_count == 3
    leaf = runtime.network.partition_holders("d")[0]
    runtime.append(leaf, feed_chunks(rows=20, chunk=20, seed=2)[0])
    for handle in (plain, filtered, same_filter, keys):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


def test_having_and_order_variants_share_and_finalize_per_subscriber():
    """HAVING thresholds and ORDER BY directions are finalize-tail-only:
    all variants ride one tree yet keep distinct results."""
    runtime = StandingQueryRuntime(build_tree_processor())
    loose = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity "
        "HAVING COUNT(*) > 1 ORDER BY COUNT(*) ASC"
    )
    strict = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity "
        "HAVING COUNT(*) > 1000000 ORDER BY COUNT(*) DESC"
    )
    assert loose.tree is strict.tree
    assert len(strict.result()) == 0 < len(loose.result())
    runtime.append(
        runtime.network.partition_holders("d")[3], feed_chunks(15, 15, seed=8)[0]
    )
    for handle in (loose, strict):
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


SHARED_FINALIZE_SQL = [
    # The tree's core: keys (person_id, activity), four aggregate calls.
    "SELECT person_id, activity, COUNT(*) AS n, AVG(z) AS az, SUM(x) AS sx, "
    "MAX(t) AS hi FROM d GROUP BY person_id, activity",
    # Permuted group keys, a permuted subset of the calls.
    "SELECT activity, person_id, SUM(x) AS sx, COUNT(*) AS n "
    "FROM d GROUP BY activity, person_id",
    # HAVING and ORDER BY on aggregates absent from SELECT.
    "SELECT activity, person_id FROM d GROUP BY activity, person_id "
    "HAVING AVG(z) > 0.5 AND MAX(t) > 3 ORDER BY SUM(x) DESC",
    # Key order permuted again, one call, ordered by a key.
    "SELECT person_id, MAX(t) AS hi, activity FROM d "
    "GROUP BY activity, person_id HAVING COUNT(*) >= 2 ORDER BY person_id DESC",
]


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_shared_finalize_serves_permuted_and_subset_subscribers(engine_mode):
    processor = build_tree_processor(engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in SHARED_FINALIZE_SQL]
    assert runtime.tree_count == 1
    assert all(handle.tree is handles[0].tree for handle in handles)
    holders = processor.network.partition_holders("d")
    for epoch, delta in enumerate(feed_chunks(rows=90, chunk=15, seed=23), start=1):
        runtime.append(holders[(3 * epoch) % len(holders)], delta)
        for handle in handles:
            assert handle.epoch == epoch
            assert_byte_identical(
                handle.result(), runtime.reexecute(handle), f"epoch {epoch}: {handle.sql}"
            )


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_group_by_without_aggregates_keeps_every_group(engine_mode):
    """A GROUP BY with no aggregate call has key columns but no state
    columns; its groups must survive the merge, both on a tree of its own
    and as a subscriber of a tree that does carry aggregates."""
    processor = build_tree_processor(engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register("SELECT activity FROM d GROUP BY activity ORDER BY activity"),
        runtime.register(SHARED_FINALIZE_SQL[0]),
        runtime.register("SELECT activity, person_id FROM d GROUP BY person_id, activity"),
        runtime.register(
            "SELECT person_id, activity FROM d GROUP BY activity, person_id "
            "ORDER BY person_id DESC"
        ),
    ]
    assert not handles[0].tree.agg_keys
    assert handles[1].tree is handles[2].tree is handles[3].tree
    holders = processor.network.partition_holders("d")
    for epoch, delta in enumerate(feed_chunks(rows=45, chunk=15, seed=31)):
        if epoch:
            runtime.append(holders[epoch % len(holders)], delta)
        for handle in handles:
            assert len(handle.result()) > 0, handle.sql
            assert_byte_identical(
                handle.result(), runtime.reexecute(handle), f"epoch {epoch}: {handle.sql}"
            )


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_order_by_aggregate_calls_sort_every_epoch(engine_mode):
    """Subscribers ordering by an aggregate call — selected or not — get
    their groups in that order at every epoch; the sort keys are computed
    here by hand from the rows loaded so far."""
    processor = build_tree_processor(rows=60, engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    by_max = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity ORDER BY MAX(z)"
    )
    by_count = runtime.register(
        "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity ORDER BY COUNT(*) DESC"
    )
    # One tree: the second subscriber's calls are a subset of the first's.
    assert by_count.tree is by_max.tree
    rows = list(make_sensor_relation(60).rows)
    holders = processor.network.partition_holders("d")
    for epoch, delta in enumerate(feed_chunks(rows=90, chunk=30, seed=7), start=1):
        runtime.append(holders[epoch % len(holders)], delta)
        rows.extend(delta.rows)
        counts, highest = {}, {}
        for row in rows:
            activity = row["activity"]
            counts[activity] = counts.get(activity, 0) + 1
            highest[activity] = max(highest.get(activity, row["z"]), row["z"])
        count_keys = [counts[row["activity"]] for row in by_count.result().rows]
        max_keys = [highest[row["activity"]] for row in by_max.result().rows]
        assert len(count_keys) == len(max_keys) == len(counts)
        assert count_keys == sorted(counts.values(), reverse=True), epoch
        assert max_keys == sorted(highest.values()), epoch
        for handle in (by_count, by_max):
            assert_byte_identical(handle.result(), runtime.reexecute(handle))


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_order_by_unselected_group_key_sorts_every_epoch(engine_mode):
    """A subscriber ordering by a group key it does not select gets its
    counts in key order at every epoch, computed here by hand."""
    processor = build_tree_processor(rows=60, engine_mode=engine_mode)
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(
        "SELECT COUNT(*) AS n FROM d GROUP BY activity ORDER BY activity"
    )
    rows = list(make_sensor_relation(60).rows)
    holders = processor.network.partition_holders("d")
    for epoch, delta in enumerate(feed_chunks(rows=90, chunk=30, seed=7)):
        if epoch:
            runtime.append(holders[epoch % len(holders)], delta)
            rows.extend(delta.rows)
        counts = {}
        for row in rows:
            counts[row["activity"]] = counts.get(row["activity"], 0) + 1
        assert [row["n"] for row in handle.result().rows] == [
            counts[activity] for activity in sorted(counts)
        ], epoch
        assert_byte_identical(handle.result(), runtime.reexecute(handle))


def test_one_append_merges_root_states_once_per_tree(monkeypatch):
    from repro.engine.executor import QueryExecutor

    runtime = StandingQueryRuntime(build_tree_processor())
    for sql in SHARED_FINALIZE_SQL + [STANDING_SQL, STANDING_SQL]:
        runtime.register(sql)
    assert runtime.tree_count == 2 and len(runtime.handles()) == 6

    merges = []
    original = QueryExecutor.finalize_partial_groups

    def counting(self, query, relation):
        merges.append(query)
        return original(self, query, relation)

    monkeypatch.setattr(QueryExecutor, "finalize_partial_groups", counting)
    runtime.append(runtime.network.partition_holders("d")[2], feed_chunks(20, 20)[0])
    # The append merges nothing; reading every handle merges each affected
    # tree once, shared by its subscribers' tails, and reading again reuses
    # the cached results.
    assert merges == []
    for _ in range(2):
        for handle in runtime.handles():
            assert_byte_identical(handle.result(), runtime.reexecute(handle))
    assert len(merges) == 2
    assert {id(query) for query in merges} == {
        id(tree.core) for tree in runtime._trees_for_all()
    }


def test_state_bytes_metric_is_packed_size_of_current_states():
    runtime = StandingQueryRuntime(build_tree_processor())
    handles = [runtime.register(STANDING_SQL), runtime.register(SHARED_FINALIZE_SQL[0])]
    holders = runtime.network.partition_holders("d")
    for index, delta in enumerate(feed_chunks(rows=40, chunk=10, seed=6)):
        runtime.append(holders[index], delta)
        for handle in handles:
            handle.result()
        packed = sum(
            len(fresh_leaf_bytes(runtime, tree, holder))
            for tree in runtime._trees_for_all()
            for holder in holders
        )
        assert registry.snapshot(prefix="standing.")["standing.state_bytes"] == packed


def test_state_bytes_are_packed_only_when_read(monkeypatch):
    """Appends pack nothing; a read packs each leaf state it folds once;
    reading ``standing.state_bytes`` packs nothing: it sums the payloads
    the chunks keep."""
    from repro.runtime import memo

    packed = []
    original = memo.pack_relation

    def counting_pack(relation):
        packed.append(relation)
        return original(relation)

    monkeypatch.setattr(memo, "pack_relation", counting_pack)
    runtime = StandingQueryRuntime(build_tree_processor())
    handles = [runtime.register(STANDING_SQL), runtime.register(SHARED_FINALIZE_SQL[0])]
    holders = runtime.network.partition_holders("d")
    # Registration computed and packed every holder's leaf state per tree.
    assert len(packed) == 2 * len(holders)

    def kept_payloads():
        return sum(
            len(kept_entry(runtime, tree, holder).state.payload)
            for tree in runtime._trees_for_all()
            for holder in holders
        )

    packed.clear()
    for index, delta in enumerate(feed_chunks(rows=40, chunk=10, seed=7)):
        runtime.append(holders[index], delta)
    assert packed == []
    # The four grown chunks still keep the states of their old rows.
    expected = kept_payloads()
    assert registry.snapshot(prefix="standing.")["standing.state_bytes"] == expected
    assert registry.value("standing.state_bytes") == expected
    assert packed == []
    for handle in handles:
        handle.result()
    assert len(packed) == 2 * 4  # the four folds of each tree
    refreshed = kept_payloads()
    assert runtime.state_bytes() == refreshed != expected
    assert len(packed) == 2 * 4


def test_session_front_end_shares_across_registrations():
    processor = build_tree_processor()
    front_end = SessionFrontEnd(processor)
    first = front_end.standing.register(STANDING_SQL, "ActionFilter")
    second = front_end.standing.register(STANDING_SQL, "ActionFilter")
    assert first.tree is second.tree and first.shared
    assert front_end.standing is front_end.standing  # stable lazy singleton
    assert_byte_identical(first.result(), front_end.standing.reexecute(first))


def test_apply_rewriting_routes_through_privacy_gate():
    """With ``apply_rewriting=True`` the registered form is the privacy-
    rewritten query (the policy's z-filter appears), and the maintained
    result tracks *that* query's oracle."""
    runtime = StandingQueryRuntime(build_tree_processor())
    handle = runtime.register(
        "SELECT activity, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY activity",
        module_id="ActionFilter",
        apply_rewriting=True,
    )
    assert "z < 2" in handle.sql
    assert_byte_identical(handle.result(), runtime.reexecute(handle))
    runtime.append(
        runtime.network.partition_holders("d")[0], feed_chunks(20, 20, seed=4)[0]
    )
    assert_byte_identical(handle.result(), runtime.reexecute(handle))


# ---------------------------------------------------------------------------
# failures: unfoldable deltas and node death
# ---------------------------------------------------------------------------


def test_an_unfoldable_delta_fails_only_the_reads_that_need_it():
    """A delta one tree cannot fold lands; that tree's handles raise on read
    what re-execution raises, and every other tree stays current."""
    processor = build_tree_processor(rows=1200)
    runtime = StandingQueryRuntime(processor)
    average = runtime.register(
        "SELECT activity, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY activity"
    )
    count = runtime.register("SELECT person_id, COUNT(*) AS n FROM d GROUP BY person_id")
    holders = processor.network.partition_holders("d")
    row = dict(make_sensor_relation(1, seed=4).rows[0], z="oops")
    assert runtime.append(holders[1], [row]) == 1
    with pytest.raises(ValueError) as oracle:
        runtime.reexecute(average)
    for _ in range(2):
        with pytest.raises(ValueError) as read:
            average.result()
        assert str(read.value) == str(oracle.value)
    assert_byte_identical(count.result(), runtime.reexecute(count))
    runtime.append(holders[2], feed_chunks(rows=10, chunk=10, seed=5)[0])
    assert_byte_identical(count.result(), runtime.reexecute(count))


#: Eight standing queries over five trees, for the node-death grid.
DEATH_SQL = [
    STANDING_SQL,
    *SHARED_FINALIZE_SQL,
    "SELECT person_id, COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi FROM d GROUP BY person_id",
    "SELECT activity, STDDEV(z) AS s FROM d WHERE z < 1.5 GROUP BY activity",
    BARE_COLUMN_SQL[0],
]


@pytest.mark.parametrize("lose_data", [False, True], ids=["crash", "lost"])
@pytest.mark.parametrize(
    "n_sensors, victim",
    [(8, "sensor_0"), (8, "sensor_3"), (8, "sensor_7"), (0, "sensor")],
    ids=["first", "middle", "last", "chain_sole"],
)
def test_standing_handles_follow_node_death(n_sensors, victim, lose_data):
    """Every handle equals re-execution by bytes before and after a holder
    dies, under both ``fail_node`` semantics, and after the heir (the
    neighbour that takes the chunk, or the ancestor of a sole holder)
    grows.  The read right before the kill caches every result, so a
    cache the death does not invalidate would show."""
    from repro.engine.errors import ExecutionError

    if n_sensors:
        processor = build_tree_processor(n_sensors=n_sensors)
    else:
        processor = ParadiseProcessor(
            figure4_policy(), topology=Topology.default_chain(), schema=INTEGRATED_SCHEMA
        )
        processor.load_data(make_sensor_relation(240))
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in DEATH_SQL]
    assert len(handles) == 8 and runtime.tree_count == 5
    network = processor.network
    holders = network.partition_holders("d")
    index = holders.index(victim)
    if len(holders) == 1:
        heir = processor.topology.parent_of(victim).name
    else:
        heir = holders[index - 1] if index else holders[1]
    chunks = iter(feed_chunks(rows=60, chunk=20, seed=12))

    def outcome(read):
        # With every chunk lost, a query reading a bare column raises
        # ``Unknown column`` on both sides.
        try:
            return pack_state_relation(read())
        except ExecutionError as error:
            return f"raises {error}"

    def check(step):
        for handle in handles:
            assert outcome(handle.result) == outcome(
                lambda: runtime.reexecute(handle)
            ), f"{step}: {handle.sql}"

    runtime.append(victim, next(chunks))
    if heir in holders:
        runtime.append(heir, next(chunks))
    check("before the kill")
    processor.topology.mark_dead(victim)
    network.fail_node(victim, lose_data=lose_data)
    check("after the kill")
    runtime.append(heir, next(chunks))
    check("after the heir grew")


# ---------------------------------------------------------------------------
# observability: metrics, profile section, linked refresh spans
# ---------------------------------------------------------------------------


def test_standing_metrics_populate():
    before = registry.snapshot(prefix="standing.")
    runtime = StandingQueryRuntime(build_tree_processor())
    handles = [runtime.register(STANDING_SQL), runtime.register(STANDING_SQL)]
    runtime.append(
        runtime.network.partition_holders("d")[0], feed_chunks(20, 20)[0]
    )
    # Each handle finalizes on its first read after the append, once.
    for handle in handles + handles:
        handle.result()
    after = registry.snapshot(prefix="standing.")
    assert after["standing.registered"] - before.get("standing.registered", 0) == 2
    assert after["standing.shared_attach"] - before.get("standing.shared_attach", 0) == 1
    assert after["standing.refreshes"] - before.get("standing.refreshes", 0) == 1
    assert after["standing.delta_rows"] - before.get("standing.delta_rows", 0) == 20
    assert (
        after["standing.subscriber_refreshes"]
        - before.get("standing.subscriber_refreshes", 0)
        == 2
    )
    assert after["standing.state_bytes"] > 0
    assert after["standing.refresh_seconds.count"] - before.get(
        "standing.refresh_seconds.count", 0
    ) == 1
    assert after["standing.finalize_seconds.count"] - before.get(
        "standing.finalize_seconds.count", 0
    ) == 2


def test_profile_report_surfaces_standing_section():
    from repro.obs.profile import build_profile_report

    trace = QueryTrace("standing-profile")
    metrics_before = registry.snapshot()
    runtime = StandingQueryRuntime(build_tree_processor(), trace=trace)
    runtime.register(STANDING_SQL)
    runtime.append(
        runtime.network.partition_holders("d")[1], feed_chunks(10, 10)[0]
    )
    report = build_profile_report(
        trace,
        metrics_before=metrics_before,
        metrics_after=registry.snapshot(),
    )
    assert report.standing.get("registered") == 1
    assert report.standing.get("refreshes") == 1
    assert report.standing.get("delta_rows") == 10
    assert report.standing.get("trees") >= 1
    rendered = report.render()
    assert "standing queries:" in rendered
    assert "refreshes" in rendered


def test_refresh_spans_link_epochs():
    trace = QueryTrace("standing-spans")
    runtime = StandingQueryRuntime(build_tree_processor(), trace=trace)
    handle = runtime.register(STANDING_SQL)
    leaf = runtime.network.partition_holders("d")[0]
    runtime.append(leaf, feed_chunks(10, 10, seed=1)[0])
    handle.result()
    runtime.append(leaf, feed_chunks(10, 10, seed=2)[0])
    handle.result()
    handle.result()
    spans = trace.by_kind("standing")
    assert [span.name for span in spans] == ["refresh[epoch=1]", "refresh[epoch=2]"]
    first, second = spans
    assert first.attrs["delta_rows"] == 10
    # Epoch chain: each refresh span points at its predecessor, the same
    # linking convention the scheduler uses for retry spans.
    assert "previous_epoch_span" not in first.attrs
    assert second.attrs["previous_epoch_span"] == first.span_id
    assert all(span.finished for span in spans)
    # A refresh only appends: it has no child span.  Each read that
    # computes has a finalize span with the tree's merge (its first read
    # of the epoch: the leaf states, counted by outcome, and the shared
    # merge) and the handle's tail.  A read of a cached result emits
    # nothing.
    tree_id = handle.tree.tree_id
    reads = trace.by_kind("standing_read")
    assert [span.name for span in reads] == ["finalize[query=q0]"] * 2
    assert [span.attrs["epoch"] for span in reads] == [1, 2]
    for parent, stages in [(span, ()) for span in spans] + [
        (span, ("merge", "tail")) for span in reads
    ]:
        children = [span for span in trace.spans if span.parent_id == parent.span_id]
        assert [span.name for span in children] == [
            f"{stage}[tree={tree_id}]" for stage in stages
        ]
        assert all(span.kind == "standing_stage" for span in children)
        assert all(span.finished and span.status == "ok" for span in children)
        assert all(parent.start <= span.start <= span.end <= parent.end for span in children)
    merges = [span for span in trace.spans if span.name.startswith("merge")]
    holders = len(runtime.network.partition_holders("d"))
    assert [
        (span.attrs["hits"], span.attrs["folds"], span.attrs["misses"]) for span in merges
    ] == [(holders - 1, 1, 0)] * 2
    assert spans[0].end <= reads[0].start <= reads[0].end <= spans[1].start


# ---------------------------------------------------------------------------
# concurrency and stream binding
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_concurrent_producers_interleave_at_chunk_granularity():
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register(STANDING_SQL),
        runtime.register(
            "SELECT person_id, COUNT(*) AS n, SUM(z) AS sz FROM d GROUP BY person_id"
        ),
    ]
    holders = processor.network.partition_holders("d")
    chunks = feed_chunks(rows=160, chunk=10, seed=13)
    errors = []

    def producer(worker: int):
        try:
            for index, delta in enumerate(chunks):
                if index % 4 == worker:
                    runtime.append(holders[index % len(holders)], delta)
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=producer, args=(worker,)) for worker in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert runtime.refresh_epoch == len(chunks)
    assert processor.network.base_table_rows("d") == 240 + 160
    for handle in handles:
        assert handle.epoch == len(chunks)
        assert_byte_identical(handle.result(), runtime.reexecute(handle), handle.sql)


@pytest.mark.concurrency
def test_concurrent_readers_see_monotone_byte_identical_epochs():
    """Two producers append while two readers read shared-tree handles.

    Every result a reader sees equals, by bytes, re-execution at an epoch
    between the runtime's epoch before and after the read, and no earlier
    than the epoch of that reader's previous result of the handle.  The
    epochs are replayed on a mirror of the base, as the e2e oracle does.
    """
    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in SHARED_FINALIZE_SQL]
    assert all(handle.shared for handle in handles)
    holders = processor.network.partition_holders("d")
    chunks = feed_chunks(rows=240, chunk=10, seed=17)
    appended = {}
    reads = {reader: [] for reader in range(2)}
    producing = threading.Event()
    producing.set()
    errors = []

    def producer(worker: int):
        try:
            for index, delta in enumerate(chunks):
                if index % 2 == worker:
                    leaf = holders[index % len(holders)]
                    appended[runtime.append(leaf, delta)] = (leaf, delta)
                    time.sleep(0)  # and the readers in between appends
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    def reader(reader_id: int):
        try:
            while True:
                done = not producing.is_set()
                for index, handle in enumerate(handles[reader_id::2]):
                    before = runtime.refresh_epoch
                    packed = pack_state_relation(handle.result())
                    reads[reader_id].append(
                        (index, before, runtime.refresh_epoch, packed)
                    )
                if done:
                    return
                time.sleep(0)  # let the producers in between rounds
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    producers = [threading.Thread(target=producer, args=(w,)) for w in range(2)]
    readers = [threading.Thread(target=reader, args=(r,)) for r in range(2)]
    for thread in readers + producers:
        thread.start()
    for thread in producers:
        thread.join()
    producing.clear()
    for thread in readers:
        thread.join()
    assert not errors
    assert sorted(appended) == list(range(1, len(chunks) + 1))

    mirror = build_tree_processor()
    oracle = StandingQueryRuntime(mirror)
    expected = []  # expected[epoch][handle] -> packed re-execution
    for epoch in range(len(chunks) + 1):
        if epoch:
            leaf, delta = appended[epoch]
            mirror.network.append_to_partition(leaf, "d", delta)
        expected.append(
            [pack_state_relation(oracle.reexecute(handle)) for handle in handles]
        )
    for reader_id, seen in reads.items():
        assert seen[-1][1] == len(chunks)  # the last round read the end state
        last = {}
        for index, before, after, packed in seen:
            handle = reader_id + 2 * index
            start = max(before, last.get(handle, 0))
            matches = [
                epoch
                for epoch in range(start, after + 1)
                if expected[epoch][handle] == packed
            ]
            assert matches, (reader_id, handles[handle].sql, before, after)
            last[handle] = matches[0]


def test_bind_stream_feeds_refreshes():
    from repro.streams import SensorStream

    processor = build_tree_processor()
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(STANDING_SQL)
    leaf = processor.network.partition_holders("d")[0]
    stream = SensorStream("s0", capacity=64)
    listener = runtime.bind_stream(stream, leaf)

    readings = [dict(row) for row in make_sensor_relation(12, seed=31).rows]
    stream.push_many(readings)  # one batch -> one refresh epoch
    assert runtime.refresh_epoch == 1
    stream.push(readings[0])  # single reading -> single-row delta
    assert runtime.refresh_epoch == 2
    assert_byte_identical(handle.result(), runtime.reexecute(handle))

    stream.unsubscribe(listener)
    stream.push(readings[1])
    assert runtime.refresh_epoch == 2  # detached: no further refreshes
