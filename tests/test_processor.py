"""Tests for the network simulator and the end-to-end PArADISE processor."""

import pytest

from repro.anonymize import Anonymizer
from repro.engine.table import Relation
from repro.engine.wire import WireFormatError, pack_relation
from repro.fragment import Topology
from repro.policy import PolicyBuilder, figure4_policy, open_policy, restrictive_policy
from repro.processor import NetworkSimulator, ParadiseProcessor
from repro.sensors.scenario import INTEGRATED_SCHEMA
from tests.conftest import PAPER_R_CODE, PAPER_SQL, make_sensor_relation


# ---------------------------------------------------------------------------
# network simulator
# ---------------------------------------------------------------------------


def test_network_loads_data_on_sensor_node(sensor_relation):
    network = NetworkSimulator(Topology.default_chain())
    network.load_sensor_data(sensor_relation)
    sensor_db = network.database("sensor")
    assert "d" in sensor_db and "stream" in sensor_db
    assert len(sensor_db.table("d")) == len(sensor_relation)
    with pytest.raises(KeyError):
        network.database("nope")


def test_network_ship_records_transfers(sensor_relation):
    network = NetworkSimulator(Topology.default_chain())
    network.ship(sensor_relation, "d1", "sensor", "appliance")
    received = network.ship(sensor_relation, "d2", "appliance", "pc")
    network.ship(sensor_relation.limit(10), "d_prime", "pc", "cloud")
    log = network.log
    assert len(log.transfers) == 3
    assert log.total_rows == 2 * len(sensor_relation) + 10
    assert log.rows_leaving_apartment == 10
    assert log.bytes_leaving_apartment > 0
    hops = log.by_hop()
    assert hops[-1]["leaves_apartment"] is True
    # The target gets the decoded copy; nothing is registered there.
    assert received is not sensor_relation
    assert pack_relation(received) == pack_relation(sensor_relation)
    assert "d2" not in network.database("pc")


def test_network_ship_of_unencodable_relation_raises(sensor_relation):
    """A cell outside the wire vocabulary fails the shipment loudly: nothing
    is logged, and no reference crosses the link."""
    network = NetworkSimulator(Topology.default_chain())
    relation = sensor_relation.limit(5)
    relation.rows[2]["activity"] = object()
    with pytest.raises(WireFormatError):
        network.ship(relation, "d1", "sensor", "appliance")
    assert network.log.transfers == []
    assert "d1" not in network.database("appliance")


def test_network_ship_to_same_node_is_not_a_transfer(sensor_relation):
    network = NetworkSimulator(Topology.default_chain())
    assert network.ship(sensor_relation, "d1", "pc", "pc") is sensor_relation
    assert network.log.transfers == []
    assert "d1" not in network.database("pc")


# ---------------------------------------------------------------------------
# end-to-end processor
# ---------------------------------------------------------------------------


@pytest.fixture
def processor(sensor_relation):
    proc = ParadiseProcessor(figure4_policy(), schema=INTEGRATED_SCHEMA)
    proc.load_data(sensor_relation)
    return proc


def test_process_paper_query_end_to_end(processor, sensor_relation):
    result = processor.process(PAPER_SQL, module_id="ActionFilter")
    assert result.admitted
    assert result.rewrite is not None and result.rewrite.compliant
    assert result.plan is not None and len(result.plan.fragments) == 4
    # d1 and d2 run as one query on the sensor's chunk (resident-partition
    # rule); d3 runs on the appliance and d4 on the PC.
    assert [e.node for e in result.executions] == ["sensor", "appliance", "pc"]
    assert result.raw_input_rows == len(sensor_relation)
    assert result.result is not None
    # Far fewer rows leave the apartment than the raw data contains.
    assert result.rows_leaving_apartment < result.raw_input_rows
    assert result.data_reduction_ratio > 1
    assert "PArADISE" in result.summary()


def test_process_r_code_sets_remainder(processor):
    result = processor.process_r(PAPER_R_CODE, module_id="ActionFilter")
    assert result.remainder_call == "filterByClass(d_prime, action='walk', do.plot=F)"
    assert result.admitted


def test_rewritten_result_contains_no_denied_columns(sensor_relation):
    proc = ParadiseProcessor(restrictive_policy(), schema=INTEGRATED_SCHEMA)
    proc.load_data(sensor_relation)
    result = proc.process("SELECT person_id, x, y, z, t, activity FROM d", "ActionFilter")
    assert result.admitted
    assert "person_id" not in result.result.schema
    assert "activity" not in result.result.schema


def test_policy_conditions_hold_on_shipped_rows(processor):
    result = processor.process("SELECT x, y, t FROM d", module_id="ActionFilter")
    # The policy requires x > y on every revealed tuple.
    for row in result.result.rows:
        if isinstance(row.get("x"), (int, float)) and isinstance(row.get("y"), (int, float)):
            assert row["x"] > row["y"]


def test_no_pushdown_baseline_ships_everything(processor, sensor_relation):
    pushdown = processor.process(PAPER_SQL, "ActionFilter", anonymize=False)
    baseline = processor.process(
        PAPER_SQL, "ActionFilter", pushdown=False, apply_rewriting=False, anonymize=False
    )
    assert baseline.rows_leaving_apartment == len(sensor_relation)
    assert pushdown.rows_leaving_apartment < baseline.rows_leaving_apartment
    # The baseline still computes the analysis at the cloud.
    assert baseline.executions[-1].node == "cloud"


def test_unknown_module_is_refused(processor):
    result = processor.process(PAPER_SQL, module_id="Nobody")
    assert not result.admitted
    assert result.result is None
    assert "no policy" in result.admission.reasons[0]


def test_fully_denied_query_is_refused(sensor_relation):
    policy = PolicyBuilder().module("M").deny("secret").allow("x").build()
    proc = ParadiseProcessor(policy, schema=None)
    proc.load_data(sensor_relation)
    result = proc.process("SELECT secret FROM d", module_id="M")
    assert not result.admitted


def test_anonymization_step_runs_inside_apartment(sensor_relation):
    proc = ParadiseProcessor(
        open_policy(),
        schema=INTEGRATED_SCHEMA,
        anonymizer=Anonymizer(algorithm="k_anonymity", k=5),
    )
    proc.load_data(sensor_relation)
    result = proc.process("SELECT x, y, z, t FROM d WHERE z < 2", "ActionFilter")
    assert result.anonymization is not None and result.anonymization.applied
    assert result.anonymization.information_loss.direct_distance > 0
    # d' leaving the apartment is the anonymized relation.
    assert result.rows_leaving_apartment == len(result.result)


def test_query_interval_enforcement_between_runs(sensor_relation):
    policy = (
        PolicyBuilder()
        .module("M")
        .allow("x")
        .allow("t")
        .query_interval(3600)
        .build()
    )
    proc = ParadiseProcessor(policy, enforce_query_interval=True)
    proc.load_data(sensor_relation)
    first = proc.process("SELECT x, t FROM d", "M")
    second = proc.process("SELECT x, t FROM d", "M")
    assert first.admitted
    assert not second.admitted
    assert any("interval" in reason for reason in second.admission.reasons)


def test_explain_leaves_the_query_interval_budget_alone(sensor_relation):
    """Previewing a query is not a submission: only ``process`` (and
    standing registration) start the module's query interval."""
    policy = PolicyBuilder().module("M").allow("x").allow("t").query_interval(3600).build()
    proc = ParadiseProcessor(policy, enforce_query_interval=True)
    proc.load_data(sensor_relation)
    sql = "SELECT x, t FROM d"
    assert "admission: ok" in proc.explain(sql, "M")
    assert proc.process(sql, "M").admitted
    assert "query interval" in proc.explain(sql, "M")
    assert not proc.process(sql, "M").admitted
    # prepare() is the same preview, unrendered.
    proc.analyzer.reset_interval("M")
    assert proc.prepare(sql, "M").admitted and proc.prepare(sql, "M").admitted
    assert proc.process(sql, "M").admitted


def test_custom_topology_without_appliance(sensor_relation):
    topology = Topology.cloud_only()
    proc = ParadiseProcessor(figure4_policy(), topology=topology, schema=INTEGRATED_SCHEMA)
    proc.load_data(sensor_relation)
    result = proc.process(PAPER_SQL, "ActionFilter")
    assert result.admitted
    assert {e.node for e in result.executions} <= {"sensor", "cloud"}


def test_load_device_tables_available_on_sensor(meeting_data):
    proc = ParadiseProcessor(open_policy("Reporter"))
    proc.load_data(meeting_data.integrated)
    proc.load_device_tables(meeting_data.device_tables)
    result = proc.process(
        "SELECT COUNT(*) AS n FROM powersocket", module_id="Reporter", anonymize=False
    )
    assert result.admitted
    assert result.result.rows[0]["n"] > 0
