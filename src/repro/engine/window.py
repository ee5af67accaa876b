"""Window function evaluation.

The paper's running example computes ``regr_intercept(y, x) OVER (PARTITION BY
z ORDER BY t)`` — an aggregate used as a window function.  This module
evaluates such calls (and the usual ranking functions) over the rows produced
by the executor's FROM/WHERE stage.

When the executor passes its :class:`~repro.engine.compile.ExpressionCompiler`
the partition/order/argument expressions are compiled once instead of being
tree-walked per row, and running frames (ORDER BY present) feed incremental
accumulators where those reproduce the batch result exactly — turning the
O(n²) prefix recomputation into a single pass for the common aggregates.
Without a compiler the original interpreted evaluation runs unchanged, which
keeps it usable as the differential oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.aggregates import compute_aggregate, is_known_aggregate, make_accumulator
from repro.engine.errors import ExecutionError
from repro.engine.evaluator import EvaluationContext, make_evaluator
from repro.engine.table import _OrderKey, freeze_value
from repro.sql import ast
from repro.sql.render import render_expression

_RANKING_FUNCTIONS = {
    "ROW_NUMBER",
    "RANK",
    "DENSE_RANK",
    "NTILE",
    "LAG",
    "LEAD",
    "FIRST_VALUE",
    "LAST_VALUE",
}


def compute_window_values(
    calls: Sequence[ast.FunctionCall],
    scopes: List[Dict[str, Any]],
    parent: EvaluationContext | None = None,
    compiler: Optional[Any] = None,
) -> Dict[str, List[Any]]:
    """Compute the value of each windowed call for every row.

    Args:
        calls: Window function calls (each must have ``window`` set).
        scopes: One evaluation scope per input row, in input order.
        parent: Optional enclosing context for correlated references.
        compiler: Optional :class:`~repro.engine.compile.ExpressionCompiler`;
            when given, expressions run compiled and running aggregates use
            incremental accumulators.

    Returns:
        Mapping from ``render_expression(call)`` to the list of per-row values
        aligned with ``scopes``.
    """
    results: Dict[str, List[Any]] = {}
    for call in calls:
        if call.window is None:
            raise ExecutionError("compute_window_values expects windowed calls")
        key = render_expression(call)
        if key in results:
            continue
        results[key] = _compute_single_window(call, scopes, parent, compiler)
    return results


def _compute_single_window(
    call: ast.FunctionCall,
    scopes: List[Dict[str, Any]],
    parent: EvaluationContext | None,
    compiler: Optional[Any],
) -> List[Any]:
    window = call.window
    assert window is not None
    contexts = [EvaluationContext(scope=scope, parent=parent) for scope in scopes]

    # Partition the row indices.
    partition_fns = [make_evaluator(expression, compiler) for expression in window.partition_by]
    partitions: Dict[Tuple[Any, ...], List[int]] = {}
    for index, context in enumerate(contexts):
        partition_key = tuple(freeze_value(fn(context)) for fn in partition_fns)
        partitions.setdefault(partition_key, []).append(index)

    values: List[Any] = [None] * len(scopes)
    for indices in partitions.values():
        ordered = _order_partition(indices, contexts, window.order_by, compiler)
        _fill_partition(
            call, ordered, contexts, values, has_order=bool(window.order_by), compiler=compiler
        )
    return values


def _order_partition(
    indices: List[int],
    contexts: List[EvaluationContext],
    order_by: Sequence[ast.OrderItem],
    compiler: Optional[Any],
) -> List[int]:
    if not order_by:
        return list(indices)

    order_fns = [make_evaluator(item.expression, compiler) for item in order_by]

    def sort_key(index: int) -> Tuple:
        return tuple(
            _OrderKey(fn(contexts[index]), item.ascending)
            for fn, item in zip(order_fns, order_by)
        )

    return sorted(indices, key=sort_key)


def _fill_partition(
    call: ast.FunctionCall,
    ordered_indices: List[int],
    contexts: List[EvaluationContext],
    values: List[Any],
    has_order: bool,
    compiler: Optional[Any] = None,
) -> None:
    name = call.name.upper()

    if name in _RANKING_FUNCTIONS:
        _fill_ranking(call, name, ordered_indices, contexts, values, compiler)
        return

    if not is_known_aggregate(name):
        raise ExecutionError(f"Function {name} cannot be used as a window function")

    # Aggregate over a window.  With an ORDER BY the default frame is the
    # running prefix (UNBOUNDED PRECEDING .. CURRENT ROW); without it the
    # aggregate covers the whole partition.
    is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
    if is_star:
        argument_lists = [[1] for _ in ordered_indices]
    else:
        argument_fns = [make_evaluator(argument, compiler) for argument in call.arguments]
        argument_lists = [
            [fn(contexts[i]) for fn in argument_fns] for i in ordered_indices
        ]

    if not has_order:
        columns = _transpose(argument_lists, len(call.arguments) if not is_star else 1)
        total = compute_aggregate(name, columns, is_star=is_star, distinct=call.distinct)
        for index in ordered_indices:
            values[index] = total
        return

    if compiler is not None:
        # Running frame via an accumulator: one pass instead of recomputing
        # every prefix.  Buffered accumulators still delegate to the batch
        # functions, so the emitted values match the oracle exactly.
        accumulator = make_accumulator(
            name,
            is_star=is_star,
            distinct=call.distinct,
            arg_count=len(call.arguments) if not is_star and call.arguments else 1,
        )
        for position, index in enumerate(ordered_indices):
            accumulator.add(tuple(argument_lists[position]))
            values[index] = accumulator.result()
        return

    for position, index in enumerate(ordered_indices):
        prefix = argument_lists[: position + 1]
        columns = _transpose(prefix, len(call.arguments) if not is_star else 1)
        values[index] = compute_aggregate(
            name, columns, is_star=is_star, distinct=call.distinct
        )


def _transpose(rows: List[List[Any]], width: int) -> List[List[Any]]:
    if not rows:
        return [[] for _ in range(max(width, 1))]
    return [list(column) for column in zip(*rows)]


def _fill_ranking(
    call: ast.FunctionCall,
    name: str,
    ordered_indices: List[int],
    contexts: List[EvaluationContext],
    values: List[Any],
    compiler: Optional[Any] = None,
) -> None:
    window = call.window
    assert window is not None
    order_fns = [make_evaluator(item.expression, compiler) for item in window.order_by]
    argument_fns = [make_evaluator(argument, compiler) for argument in call.arguments]

    def order_key(index: int) -> Tuple:
        return tuple(freeze_value(fn(contexts[index])) for fn in order_fns)

    if name == "ROW_NUMBER":
        for position, index in enumerate(ordered_indices, start=1):
            values[index] = position
        return
    if name in {"RANK", "DENSE_RANK"}:
        rank = 0
        dense_rank = 0
        previous_key: Any = object()
        for position, index in enumerate(ordered_indices, start=1):
            key = order_key(index)
            if key != previous_key:
                rank = position
                dense_rank += 1
                previous_key = key
            values[index] = rank if name == "RANK" else dense_rank
        return
    if name in {"LAG", "LEAD"}:
        offset = 1
        default = None
        if len(call.arguments) > 1:
            offset_value = argument_fns[1](contexts[ordered_indices[0]])
            offset = int(offset_value) if offset_value is not None else 1
        if len(call.arguments) > 2:
            default = argument_fns[2](contexts[ordered_indices[0]])
        for position, index in enumerate(ordered_indices):
            source = position - offset if name == "LAG" else position + offset
            if 0 <= source < len(ordered_indices):
                values[index] = argument_fns[0](contexts[ordered_indices[source]])
            else:
                values[index] = default
        return
    if name == "FIRST_VALUE":
        first = argument_fns[0](contexts[ordered_indices[0]])
        for index in ordered_indices:
            values[index] = first
        return
    if name == "LAST_VALUE":
        last = argument_fns[0](contexts[ordered_indices[-1]])
        for index in ordered_indices:
            values[index] = last
        return
    if name == "NTILE":
        buckets = int(argument_fns[0](contexts[ordered_indices[0]]))
        count = len(ordered_indices)
        for position, index in enumerate(ordered_indices):
            values[index] = (position * buckets) // count + 1
        return
    raise ExecutionError(f"Unsupported ranking function: {name}")
