"""The unfragmented reference result of a processing run.

:func:`reference_result` computes what :meth:`ParadiseProcessor.process
<repro.processor.paradise.ParadiseProcessor.process>` must return without
any of the machinery that produces it: no fragmentation, no execution DAG,
no shipping, no wire codec.  The prepared (admitted and rewritten) query
runs once, on the interpreted engine, over every base table concatenated
back into one relation; anonymization step ``A`` then runs on that result.

Chunks are contiguous slices of the loaded relation in partition order, so
the concatenation is the relation that was loaded (minus whatever a node
failure destroyed).  The differential tests compare ``process`` results
against this reference by :func:`~repro.engine.wire.pack_relation` bytes.
"""

from __future__ import annotations

from typing import Union

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.table import Relation, concat
from repro.sql import ast

#: The engine the reference runs on: the row-at-a-time interpreter.
REFERENCE_ENGINE = EngineConfig(mode="interpreted")


def reference_result(
    processor,
    query: Union[str, ast.Query],
    module_id: str,
    *,
    apply_rewriting: bool = True,
    anonymize: bool = True,
) -> Relation:
    """The relation ``processor.process(query, module_id, ...)`` must return.

    Covers pushdown plans and the no-pushdown baseline alike: both compute
    the prepared query over the whole base data.  ``processor.prepare`` is
    side-effect-free, so computing the reference never starts a module's
    query interval.  Raises ``ValueError`` for a query the front half
    refuses.
    """
    prepared = processor.prepare(query, module_id, apply_rewriting)
    if not prepared.admitted:
        raise ValueError(f"query not admitted for module {module_id!r}")
    database = Database(name="reference")
    network = processor.network
    for table_name in network.base_table_names():
        chunks = [
            network.database(holder).table(table_name)
            for holder in network.partition_holders(table_name)
            if table_name in network.database(holder)
        ]
        if chunks:
            database.register(table_name, concat(chunks, name=table_name))
    result = database.query(prepared.query, REFERENCE_ENGINE)
    if anonymize:
        # A applies exactly when some live in-apartment node is powerful
        # enough to run it, and defers (returns its input) otherwise.
        topology = processor.topology
        power = max(
            (
                node.cpu_power or 1.0
                for node in topology
                if node.inside_apartment and topology.is_alive(node.name)
            ),
            default=topology.cloud.cpu_power or 1.0,
        )
        result = processor.anonymizer.anonymize(result, node_cpu_power=power).relation
    result.name = "d_prime"
    return result

