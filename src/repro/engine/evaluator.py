"""Row-level expression evaluation.

The evaluator computes the value of a :mod:`repro.sql.ast` expression for one
row *scope*.  A scope is a plain dict mapping lower-cased column keys (both
``column`` and ``alias.column`` forms) to values.  Aggregate function values
are not computed here — the executor pre-computes them per group and passes
them in via :attr:`EvaluationContext.aggregates`, keyed by the rendered SQL of
the aggregate call.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.engine.errors import ExecutionError
from repro.engine.functions import call_scalar_function, is_scalar_function
from repro.engine.aggregates import is_known_aggregate
from repro.sql import ast
from repro.sql.render import render_expression


@dataclass
class EvaluationContext:
    """Everything needed to evaluate an expression for one row.

    Attributes:
        scope: Lower-cased column key → value for the current row.
        aggregates: Pre-computed aggregate/window values for the current row
            or group, keyed by ``render_expression(call)``.
        subquery_executor: Callback executing a ``SelectQuery`` and returning a
            :class:`~repro.engine.table.Relation`; required only when the
            expression contains subqueries.
        parent: Enclosing context for correlated subqueries.
    """

    scope: Dict[str, Any] = field(default_factory=dict)
    aggregates: Dict[str, Any] = field(default_factory=dict)
    subquery_executor: Optional[Callable[[ast.SelectQuery, "EvaluationContext"], Any]] = None
    parent: Optional["EvaluationContext"] = None

    def lookup(self, key: str) -> Any:
        """Resolve a column key, falling back to the parent context."""
        lowered = key.lower()
        if lowered in self.scope:
            return self.scope[lowered]
        if self.parent is not None:
            return self.parent.lookup(key)
        raise ExecutionError(f"Unknown column: {key}")

    def has(self, key: str) -> bool:
        """Return True when the key resolves in this or a parent scope."""
        lowered = key.lower()
        if lowered in self.scope:
            return True
        return self.parent.has(key) if self.parent is not None else False


def evaluate(expression: ast.Expression, context: EvaluationContext) -> Any:
    """Evaluate ``expression`` in ``context`` and return its value."""
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Column):
        return _evaluate_column(expression, context)
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' is only valid inside COUNT(*) or as a projection item")
    if isinstance(expression, ast.UnaryOp):
        return _evaluate_unary(expression, context)
    if isinstance(expression, ast.BinaryOp):
        return _evaluate_binary(expression, context)
    if isinstance(expression, ast.FunctionCall):
        return _evaluate_function(expression, context)
    if isinstance(expression, ast.CaseExpression):
        return _evaluate_case(expression, context)
    if isinstance(expression, ast.InList):
        return _evaluate_in_list(expression, context)
    if isinstance(expression, ast.Between):
        return _evaluate_between(expression, context)
    if isinstance(expression, ast.Like):
        return _evaluate_like(expression, context)
    if isinstance(expression, ast.IsNull):
        value = evaluate(expression.expression, context)
        return (value is not None) if expression.negated else (value is None)
    if isinstance(expression, ast.Cast):
        return _evaluate_cast(expression, context)
    if isinstance(expression, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
        return _evaluate_subquery_expression(expression, context)
    raise ExecutionError(f"Cannot evaluate expression of type {type(expression).__name__}")


def make_evaluator(
    expression: ast.Expression, compiler: Optional[Any] = None
) -> Callable[[EvaluationContext], Any]:
    """A per-row evaluator for ``expression``: compiled by ``compiler`` (an
    :class:`~repro.engine.compile.ExpressionCompiler`) when one is given,
    else the tree-walking :func:`evaluate` (the interpreted oracle)."""
    if compiler is not None:
        return compiler.compile(expression)
    return lambda context, _expression=expression: evaluate(_expression, context)


def evaluate_predicate(expression: Optional[ast.Expression], context: EvaluationContext) -> bool:
    """Evaluate a boolean condition; NULL counts as not satisfied."""
    if expression is None:
        return True
    return bool(evaluate(expression, context))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _evaluate_column(column: ast.Column, context: EvaluationContext) -> Any:
    if column.table:
        qualified = f"{column.table}.{column.name}"
        if context.has(qualified):
            return context.lookup(qualified)
    if context.has(column.name):
        return context.lookup(column.name)
    if column.table:
        raise ExecutionError(f"Unknown column: {column.qualified_name}")
    raise ExecutionError(f"Unknown column: {column.name}")


def _evaluate_unary(expression: ast.UnaryOp, context: EvaluationContext) -> Any:
    operator = expression.operator.upper()
    value = evaluate(expression.operand, context)
    if operator == "NOT":
        if value is None:
            return None
        return not bool(value)
    if operator == "-":
        return None if value is None else -value
    raise ExecutionError(f"Unknown unary operator: {expression.operator}")


def _evaluate_binary(expression: ast.BinaryOp, context: EvaluationContext) -> Any:
    operator = expression.operator.upper()

    if operator == "AND":
        left = evaluate(expression.left, context)
        if left is not None and not left:
            return False
        right = evaluate(expression.right, context)
        if right is not None and not right:
            return False
        if left is None or right is None:
            return None
        return True
    if operator == "OR":
        left = evaluate(expression.left, context)
        if left:
            return True
        right = evaluate(expression.right, context)
        if right:
            return True
        if left is None or right is None:
            return None
        return False

    left = evaluate(expression.left, context)
    right = evaluate(expression.right, context)

    if operator in {"+", "-", "*", "/", "%"}:
        if left is None or right is None:
            return None
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            if right == 0:
                return None
            result = left / right
            return result
        if right == 0:
            return None
        return left % right
    if operator == "||":
        if left is None or right is None:
            return None
        return str(left) + str(right)

    if left is None or right is None:
        return None
    if operator == "=":
        return left == right
    if operator in {"<>", "!="}:
        return left != right
    try:
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError as exc:
        raise ExecutionError(
            f"Cannot compare {type(left).__name__} and {type(right).__name__}"
        ) from exc
    raise ExecutionError(f"Unknown operator: {expression.operator}")


def _evaluate_function(call: ast.FunctionCall, context: EvaluationContext) -> Any:
    key = render_expression(call)
    if key in context.aggregates:
        return context.aggregates[key]
    name = call.name.upper()
    if call.window is not None:
        raise ExecutionError(
            f"Window function {name} was not pre-computed by the executor"
        )
    if is_known_aggregate(name) and not is_scalar_function(name):
        raise ExecutionError(
            f"Aggregate function {name} used outside of an aggregation context"
        )
    arguments = [evaluate(argument, context) for argument in call.arguments]
    return call_scalar_function(name, arguments)


def _evaluate_case(expression: ast.CaseExpression, context: EvaluationContext) -> Any:
    for branch in expression.branches:
        if evaluate_predicate(branch.condition, context):
            return evaluate(branch.result, context)
    if expression.default is not None:
        return evaluate(expression.default, context)
    return None


def _evaluate_in_list(expression: ast.InList, context: EvaluationContext) -> Any:
    value = evaluate(expression.expression, context)
    if value is None:
        return None
    values = [evaluate(item, context) for item in expression.values]
    result = value in [v for v in values if v is not None]
    return (not result) if expression.negated else result


def _evaluate_between(expression: ast.Between, context: EvaluationContext) -> Any:
    value = evaluate(expression.expression, context)
    low = evaluate(expression.low, context)
    high = evaluate(expression.high, context)
    if value is None or low is None or high is None:
        return None
    result = low <= value <= high
    return (not result) if expression.negated else result


#: Compiled LIKE patterns, keyed by ``(pattern, case_insensitive)``.
#: Patterns come from a small, query-authored vocabulary, so the memo is
#: unbounded.  The lock covers insertions only: concurrent scheduler workers
#: may compile the same pattern twice on a racing miss, but the cache dict
#: itself can never be observed mid-update.
_LIKE_REGEX_CACHE: Dict[Tuple[str, bool], re.Pattern] = {}
_LIKE_REGEX_LOCK = threading.Lock()

#: [hits, misses] as plain ints — this sits on the per-row interpreted LIKE
#: path, so it must not take a lock; advisory under concurrency.
_LIKE_CACHE_STATS = [0, 0]

from repro.obs.metrics import registry as _obs_registry  # noqa: E402

_obs_registry.probe(
    "engine.like_cache",
    lambda: {"hits": _LIKE_CACHE_STATS[0], "misses": _LIKE_CACHE_STATS[1]},
)


def _like_to_regex(pattern: str, case_insensitive: bool = False) -> re.Pattern:
    """Compile a SQL LIKE pattern.

    Standard ``LIKE`` is case-sensitive; the flag exists so a future
    ``ILIKE`` shares this memo.  Both the interpreted evaluator and the
    expression compiler go through this one function, so the two execution
    paths can never disagree on matching semantics.
    """
    key = (pattern, case_insensitive)
    cached = _LIKE_REGEX_CACHE.get(key)
    if cached is not None:
        _LIKE_CACHE_STATS[0] += 1
        return cached
    _LIKE_CACHE_STATS[1] += 1
    escaped = re.escape(pattern)
    # ``re.escape`` leaves % and _ untouched on recent Python versions but
    # escaped them historically; handle both spellings.
    escaped = escaped.replace(r"\%", ".*").replace("%", ".*")
    escaped = escaped.replace(r"\_", ".").replace("_", ".")
    compiled = re.compile(f"^{escaped}$", re.IGNORECASE if case_insensitive else 0)
    with _LIKE_REGEX_LOCK:
        return _LIKE_REGEX_CACHE.setdefault(key, compiled)


def _evaluate_like(expression: ast.Like, context: EvaluationContext) -> Any:
    value = evaluate(expression.expression, context)
    pattern = evaluate(expression.pattern, context)
    if value is None or pattern is None:
        return None
    result = bool(_like_to_regex(str(pattern)).match(str(value)))
    return (not result) if expression.negated else result


def _evaluate_cast(expression: ast.Cast, context: EvaluationContext) -> Any:
    from repro.engine.types import coerce, parse_type_name

    value = evaluate(expression.expression, context)
    return coerce(value, parse_type_name(expression.target_type))


def _evaluate_subquery_expression(expression: ast.Expression, context: EvaluationContext) -> Any:
    if context.subquery_executor is None:
        raise ExecutionError("Subqueries require a query executor")

    if isinstance(expression, ast.ScalarSubquery):
        relation = context.subquery_executor(expression.query, context)
        if len(relation) == 0:
            return None
        if len(relation) > 1:
            raise ExecutionError("Scalar subquery returned more than one row")
        row = relation[0]
        if len(relation.schema) != 1:
            raise ExecutionError("Scalar subquery must return exactly one column")
        return row[relation.schema.names[0]]

    if isinstance(expression, ast.InSubquery):
        value = evaluate(expression.expression, context)
        if value is None:
            return None
        relation = context.subquery_executor(expression.query, context)
        if len(relation.schema) != 1:
            raise ExecutionError("IN subquery must return exactly one column")
        name = relation.schema.names[0]
        values = {row[name] for row in relation if row[name] is not None}
        result = value in values
        return (not result) if expression.negated else result

    if isinstance(expression, ast.Exists):
        relation = context.subquery_executor(expression.query, context)
        result = len(relation) > 0
        return (not result) if expression.negated else result

    raise ExecutionError(f"Unsupported subquery expression: {type(expression).__name__}")
