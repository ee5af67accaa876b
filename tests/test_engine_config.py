"""Reach test: every ``EngineConfig`` field is in force inside every backend.

Each case builds a processor with one non-default config and runs it on
one backend: the one-worker scheduler (``execution="serial"``, on the
caller's thread), the parallel scheduler's threads, the process backend and
a standing query's register + refresh.  Every engine
call records the config of the executor that served it, so the test sees
the setting *where the engine ran* — a scheduler thread, or the worker
side of a framed job — not merely where the caller set it.  The process
backend runs :func:`repro.runtime.procs.execute_job` in-process on the
framed payload, so the worker learns its config from the job header alone.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import pytest

from tests.conftest import make_sensor_relation
from tests.test_runtime import build_tree_processor

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.executor import QueryExecutor
from repro.obs.metrics import delta, registry
from repro.processor.paradise import ParadiseProcessor
from repro.policy.presets import figure4_policy
from repro.runtime import procs
from repro.runtime.standing import StandingQueryRuntime

SQL = "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d WHERE z < 1.8 GROUP BY x"

STANDING_SQL = "SELECT activity, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY activity"

CONFIGS = {
    "interpreted": EngineConfig(mode="interpreted"),
    "unvectorized": EngineConfig(vectorized=False),
    "unoptimized": EngineConfig(optimizer=False),
}

#: The executor entry points every backend reaches the engine through.
ENTRY_POINTS = (
    "execute",
    "execute_partial_aggregation",
    "combine_partial_aggregation",
    "finalize_partial_aggregation",
)


class _InlinePool:
    """Stands in for the worker pool: runs each job in the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def served(monkeypatch):
    """``(config, ran on the main thread)`` per executor entry-point call."""
    calls = []
    for name in ENTRY_POINTS:
        original = getattr(QueryExecutor, name)

        def recording(self, *args, _original=original):
            calls.append((self.config, threading.current_thread() is threading.main_thread()))
            return _original(self, *args)

        monkeypatch.setattr(QueryExecutor, name, recording)
    return calls


def _run(backend: str, config: EngineConfig, monkeypatch) -> None:
    options = {"workers": "processes"} if backend == "processes" else {}
    if backend == "processes":
        monkeypatch.setattr(procs, "_shared_pool", lambda workers: _InlinePool())
    processor = build_tree_processor(rows=240, n_sensors=4, **options)
    processor.engine = config
    if backend == "standing":
        runtime = StandingQueryRuntime(processor)
        runtime.register(STANDING_SQL)
        leaf = processor.network.partition_holders("d")[0]
        runtime.append(leaf, make_sensor_relation(20, seed=5))
        return
    execution = "serial" if backend == "serial" else "parallel"
    result = processor.process(SQL, "fig4", execution=execution, apply_rewriting=False)
    assert result.result is not None and len(result.result) > 0
    if backend == "processes":
        assert processor._dispatcher is not None and processor._dispatcher.jobs > 0


@pytest.mark.parametrize("field", sorted(CONFIGS))
@pytest.mark.parametrize("backend", ["serial", "parallel", "processes", "standing"])
def test_config_is_in_force_where_the_engine_runs(backend, field, served, monkeypatch):
    config = CONFIGS[field]
    before = registry.snapshot(prefix="engine.")
    _run(backend, config, monkeypatch)
    moved = delta(before, registry.snapshot(prefix="engine."))

    assert served, "the engine never ran"
    assert {seen for seen, _ in served} == {config}
    if backend in ("parallel", "processes"):
        # Engine work happened on scheduler threads, not the caller's.
        assert not all(on_main for _, on_main in served)
    if not (config.mode == "compiled" and config.vectorized):
        assert all(
            moved[f"engine.vectorized.{kind}"] == 0
            for kind in ("flat", "grouped", "partial")
        )
    if not config.optimizer:
        assert all(
            value == 0
            for key, value in moved.items()
            if key.startswith("engine.optimizer.")
        )


def test_invalid_configs_fail_at_construction():
    with pytest.raises(ValueError):
        EngineConfig(mode="vectorized")
    with pytest.raises(ValueError):
        EngineConfig(optimizer="yes")
    with pytest.raises(ValueError):
        ParadiseProcessor(figure4_policy(), engine_mode="bogus")


def test_database_keeps_one_executor_per_config():
    """Alternating configs reuses each config's executor (and its plans)."""
    database = Database()
    database.load_rows("d", [{"k": i % 3, "v": float(i)} for i in range(30)])
    sql = "SELECT k, SUM(v) AS s FROM d GROUP BY k"
    interpreted = EngineConfig(mode="interpreted")
    assert database.query(sql).rows == database.query(sql, interpreted).rows
    first = dict(database._executors)
    database.query(sql)
    database.query(sql, interpreted)
    assert database._executors == first and len(first) == 2
