"""Recursive-descent parser producing the :mod:`repro.sql.ast` tree.

The grammar covers the SQL subset required by the paper and a reasonable
superset so that realistic analysis queries (joins, subqueries, set
operations, window functions, CASE, IN/BETWEEN/LIKE/EXISTS) parse without
surprises.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.sql import ast
from repro.sql.errors import ParseError
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

_COMPARISON_OPERATORS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ADDITIVE_OPERATORS = {"+", "-", "||"}
_MULTIPLICATIVE_OPERATORS = {"*", "/", "%"}


class Parser:
    """Parse a token stream into an AST.

    The public entry points are :meth:`parse_query` (full SELECT statement,
    possibly with set operations) and :meth:`parse_expression_only` (a single
    scalar/boolean expression, used for policy conditions such as ``x > y``).
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens: List[Token] = tokenize(text)
        self._index = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def parse_query(self) -> ast.Query:
        """Parse a complete query and require that all input is consumed."""
        query = self._parse_set_expression()
        self._accept_punctuation(";")
        self._expect_eof()
        return query

    def parse_expression_only(self) -> ast.Expression:
        """Parse a standalone expression (used for policy conditions)."""
        expression = self._parse_expression()
        self._expect_eof()
        return expression

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        return ParseError(
            f"{message}; found {token.type.value} {token.value!r} "
            f"at line {token.line}, column {token.column}",
            token.position,
        )

    def _expect_keyword(self, *names: str) -> Token:
        if self._current.is_keyword(*names):
            return self._advance()
        raise self._error(f"Expected keyword {' or '.join(names)}")

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_punctuation(self, value: str) -> Token:
        if self._current.matches(TokenType.PUNCTUATION, value):
            return self._advance()
        raise self._error(f"Expected {value!r}")

    def _accept_punctuation(self, value: str) -> bool:
        if self._current.matches(TokenType.PUNCTUATION, value):
            self._advance()
            return True
        return False

    def _accept_operator(self, *values: str) -> Optional[str]:
        if self._current.type is TokenType.OPERATOR and self._current.value in values:
            return self._advance().value
        return None

    def _expect_identifier(self) -> str:
        if self._current.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Allow non-reserved keywords in identifier position is deliberately
        # not supported: the dialect keeps the keyword list small instead.
        raise self._error("Expected identifier")

    def _expect_eof(self) -> None:
        if self._current.type is not TokenType.EOF:
            raise self._error("Unexpected trailing input")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _parse_set_expression(self) -> ast.Query:
        left: ast.Query = self._parse_select_or_parenthesised()
        while self._current.is_keyword("UNION", "INTERSECT", "EXCEPT"):
            operator = self._advance().value
            all_flag = self._accept_keyword("ALL")
            self._accept_keyword("DISTINCT")
            right = self._parse_select_or_parenthesised()
            left = ast.SetOperation(operator=operator, left=left, right=right, all=all_flag)
        return left

    def _parse_select_or_parenthesised(self) -> ast.Query:
        if self._current.matches(TokenType.PUNCTUATION, "("):
            # Lookahead: "( SELECT" starts a parenthesised query.
            if self._peek().is_keyword("SELECT"):
                self._advance()
                query = self._parse_set_expression()
                self._expect_punctuation(")")
                return query
        return self._parse_select()

    def _parse_select(self) -> ast.SelectQuery:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")

        items = [self._parse_select_item()]
        while self._accept_punctuation(","):
            items.append(self._parse_select_item())

        from_clause: Optional[ast.Relation] = None
        if self._accept_keyword("FROM"):
            from_clause = self._parse_from_clause()

        where: Optional[ast.Expression] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()

        group_by: List[ast.Expression] = []
        if self._current.is_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_punctuation(","):
                group_by.append(self._parse_expression())

        having: Optional[ast.Expression] = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expression()

        order_by: List[ast.OrderItem] = []
        if self._current.is_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punctuation(","):
                order_by.append(self._parse_order_item())

        limit: Optional[int] = None
        offset: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_integer()
        if self._accept_keyword("OFFSET"):
            offset = self._parse_integer()

        return ast.SelectQuery(
            items=items,
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_integer(self) -> int:
        if self._current.type is TokenType.NUMBER:
            token = self._advance()
            try:
                return int(token.value)
            except ValueError as exc:
                raise ParseError(f"Expected integer, found {token.value!r}") from exc
        raise self._error("Expected integer literal")

    def _parse_select_item(self) -> ast.SelectItem:
        if self._current.type is TokenType.OPERATOR and self._current.value == "*":
            self._advance()
            return ast.SelectItem(expression=ast.Star())
        expression = self._parse_expression()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        ascending = True
        if self._accept_keyword("ASC"):
            ascending = True
        elif self._accept_keyword("DESC"):
            ascending = False
        nulls_first: Optional[bool] = None
        if self._accept_keyword("NULLS"):
            if self._accept_keyword("FIRST"):
                nulls_first = True
            else:
                self._expect_keyword("LAST")
                nulls_first = False
        return ast.OrderItem(expression=expression, ascending=ascending, nulls_first=nulls_first)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_from_clause(self) -> ast.Relation:
        relation = self._parse_joined_relation()
        while self._accept_punctuation(","):
            right = self._parse_joined_relation()
            relation = ast.Join(left=relation, right=right, join_type="CROSS")
        return relation

    def _parse_joined_relation(self) -> ast.Relation:
        relation = self._parse_relation_primary()
        while True:
            join_type = self._parse_join_type()
            if join_type is None:
                return relation
            right = self._parse_relation_primary()
            condition: Optional[ast.Expression] = None
            using: List[str] = []
            if join_type != "CROSS":
                if self._accept_keyword("ON"):
                    condition = self._parse_expression()
                elif self._accept_keyword("USING"):
                    self._expect_punctuation("(")
                    using.append(self._expect_identifier())
                    while self._accept_punctuation(","):
                        using.append(self._expect_identifier())
                    self._expect_punctuation(")")
            relation = ast.Join(
                left=relation,
                right=right,
                join_type=join_type,
                condition=condition,
                using=using,
            )

    def _parse_join_type(self) -> Optional[str]:
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "CROSS"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        for outer in ("LEFT", "RIGHT", "FULL"):
            if self._current.is_keyword(outer):
                self._advance()
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                return outer
        if self._accept_keyword("JOIN"):
            return "INNER"
        return None

    def _parse_relation_primary(self) -> ast.Relation:
        if self._current.matches(TokenType.PUNCTUATION, "("):
            self._advance()
            if self._current.is_keyword("SELECT") or self._current.matches(
                TokenType.PUNCTUATION, "("
            ):
                query = self._parse_set_expression()
                self._expect_punctuation(")")
                alias = self._parse_optional_alias()
                return ast.SubqueryRef(query=query, alias=alias)
            relation = self._parse_from_clause()
            self._expect_punctuation(")")
            return relation
        if self._current.is_keyword("STREAM"):
            # "FROM stream" in the paper refers to the sensor's own stream;
            # treat the keyword as an ordinary table name.
            token = self._advance()
            alias = self._parse_optional_alias()
            return ast.TableRef(name=token.value.lower(), alias=alias)
        name = self._parse_qualified_name()
        alias = self._parse_optional_alias()
        return ast.TableRef(name=name, alias=alias)

    def _parse_qualified_name(self) -> str:
        parts = [self._expect_identifier()]
        while self._current.matches(TokenType.PUNCTUATION, ".") and self._peek().type is TokenType.IDENTIFIER:
            self._advance()
            parts.append(self._expect_identifier())
        return ".".join(parts)

    def _parse_optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_identifier()
        if self._current.type is TokenType.IDENTIFIER:
            return self._advance().value
        return None

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()

        negated = False
        if self._current.is_keyword("NOT") and self._peek().is_keyword(
            "IN", "BETWEEN", "LIKE"
        ):
            self._advance()
            negated = True

        if self._accept_keyword("IN"):
            return self._parse_in_tail(left, negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(expression=left, low=low, high=high, negated=negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return ast.Like(expression=left, pattern=pattern, negated=negated)
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(expression=left, negated=is_negated)

        operator = self._accept_operator(*_COMPARISON_OPERATORS)
        if operator is not None:
            right = self._parse_additive()
            return ast.BinaryOp(operator, left, right)
        return left

    def _parse_in_tail(self, left: ast.Expression, negated: bool) -> ast.Expression:
        self._expect_punctuation("(")
        if self._current.is_keyword("SELECT"):
            query = self._parse_set_expression()
            self._expect_punctuation(")")
            return ast.InSubquery(expression=left, query=query, negated=negated)
        values = [self._parse_expression()]
        while self._accept_punctuation(","):
            values.append(self._parse_expression())
        self._expect_punctuation(")")
        return ast.InList(expression=left, values=values, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            operator = self._accept_operator(*_ADDITIVE_OPERATORS)
            if operator is None:
                return left
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator, left, right)

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            operator = self._accept_operator(*_MULTIPLICATIVE_OPERATORS)
            if operator is None:
                return left
            right = self._parse_unary()
            left = ast.BinaryOp(operator, left, right)

    def _parse_unary(self) -> ast.Expression:
        operator = self._accept_operator("-", "+")
        if operator == "-":
            return ast.UnaryOp("-", self._parse_unary())
        if operator == "+":
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current

        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(self._parse_number_value(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punctuation("(")
            query = self._parse_set_expression()
            self._expect_punctuation(")")
            return ast.Exists(query=query)
        if token.is_keyword("NOT"):
            self._advance()
            return ast.UnaryOp("NOT", self._parse_primary())
        if token.matches(TokenType.PUNCTUATION, "("):
            self._advance()
            if self._current.is_keyword("SELECT"):
                query = self._parse_set_expression()
                self._expect_punctuation(")")
                return ast.ScalarSubquery(query=query)
            expression = self._parse_expression()
            self._expect_punctuation(")")
            return expression
        if token.type is TokenType.IDENTIFIER or token.is_keyword(
            "LEFT", "RIGHT"
        ):
            # LEFT/RIGHT may appear as scalar function names (string functions);
            # treat them as identifiers in expression position.
            return self._parse_identifier_expression()
        raise self._error("Expected expression")

    @staticmethod
    def _parse_number_value(text: str) -> float | int:
        if any(char in text for char in ".eE"):
            return float(text)
        return int(text)

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        branches: List[ast.CaseWhen] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            branches.append(ast.CaseWhen(condition=condition, result=result))
        default: Optional[ast.Expression] = None
        if self._accept_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        if not branches:
            raise self._error("CASE expression requires at least one WHEN branch")
        return ast.CaseExpression(branches=branches, default=default)

    def _parse_cast(self) -> ast.Expression:
        self._expect_keyword("CAST")
        self._expect_punctuation("(")
        expression = self._parse_expression()
        self._expect_keyword("AS")
        target = self._expect_identifier()
        self._expect_punctuation(")")
        return ast.Cast(expression=expression, target_type=target.upper())

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self._advance().value
        # Function call.
        if self._current.matches(TokenType.PUNCTUATION, "("):
            return self._parse_function_call(name)
        # Qualified column or qualified star.
        if self._current.matches(TokenType.PUNCTUATION, "."):
            self._advance()
            if self._current.type is TokenType.OPERATOR and self._current.value == "*":
                self._advance()
                return ast.Star(table=name)
            column_name = self._expect_identifier()
            if self._current.matches(TokenType.PUNCTUATION, "("):
                return self._parse_function_call(f"{name}.{column_name}")
            return ast.Column(name=column_name, table=name)
        return ast.Column(name=name)

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._expect_punctuation("(")
        distinct = False
        arguments: List[ast.Expression] = []
        if not self._current.matches(TokenType.PUNCTUATION, ")"):
            if self._accept_keyword("DISTINCT"):
                distinct = True
            if self._current.type is TokenType.OPERATOR and self._current.value == "*":
                self._advance()
                arguments.append(ast.Star())
            else:
                arguments.append(self._parse_expression())
                while self._accept_punctuation(","):
                    arguments.append(self._parse_expression())
        self._expect_punctuation(")")

        window: Optional[ast.WindowSpec] = None
        if self._current.is_keyword("OVER"):
            self._advance()
            window = self._parse_window_spec()
        return ast.FunctionCall(
            name=name.upper(), arguments=arguments, distinct=distinct, window=window
        )

    def _parse_window_spec(self) -> ast.WindowSpec:
        self._expect_punctuation("(")
        partition_by: List[ast.Expression] = []
        order_by: List[ast.OrderItem] = []
        frame: Optional[ast.WindowFrame] = None
        if self._current.is_keyword("PARTITION"):
            self._advance()
            self._expect_keyword("BY")
            partition_by.append(self._parse_expression())
            while self._accept_punctuation(","):
                partition_by.append(self._parse_expression())
        if self._current.is_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punctuation(","):
                order_by.append(self._parse_order_item())
        if self._current.is_keyword("ROWS", "RANGE"):
            frame = self._parse_window_frame()
        self._expect_punctuation(")")
        return ast.WindowSpec(partition_by=partition_by, order_by=order_by, frame=frame)

    def _parse_window_frame(self) -> ast.WindowFrame:
        mode = self._advance().value  # ROWS or RANGE
        if self._accept_keyword("BETWEEN"):
            start = self._parse_frame_bound()
            self._expect_keyword("AND")
            end = self._parse_frame_bound()
            return ast.WindowFrame(mode=mode, start=start, end=end)
        start = self._parse_frame_bound()
        return ast.WindowFrame(mode=mode, start=start, end=ast.FrameBound("CURRENT ROW"))

    def _parse_frame_bound(self) -> ast.FrameBound:
        if self._accept_keyword("UNBOUNDED"):
            if self._accept_keyword("PRECEDING"):
                return ast.FrameBound("UNBOUNDED PRECEDING")
            self._expect_keyword("FOLLOWING")
            return ast.FrameBound("UNBOUNDED FOLLOWING")
        if self._accept_keyword("CURRENT"):
            self._expect_keyword("ROW")
            return ast.FrameBound("CURRENT ROW")
        offset = self._parse_additive()
        if self._accept_keyword("PRECEDING"):
            return ast.FrameBound("PRECEDING", offset=offset)
        self._expect_keyword("FOLLOWING")
        return ast.FrameBound("FOLLOWING", offset=offset)


#: Parse-text memo.  Explicitly lock-protected (rather than relying on
#: ``functools.lru_cache`` internals) because concurrent scheduler workers
#: and session threads parse at the same time: lookups and insertions hold
#: the lock, the parse itself runs outside it (a racing miss parses twice
#: and both threads store an equivalent immutable tree, which is harmless).
_PARSE_CACHE: Dict[str, ast.Query] = {}
_PARSE_CACHE_LOCK = threading.Lock()
_PARSE_CACHE_MAX = 256

#: [hits, misses], bumped under the cache lock; exposed as a metrics probe.
_PARSE_CACHE_STATS = [0, 0]

from repro.obs.metrics import registry as _obs_registry  # noqa: E402

_obs_registry.probe(
    "sql.parse_cache",
    lambda: {"hits": _PARSE_CACHE_STATS[0], "misses": _PARSE_CACHE_STATS[1]},
)


def parse(text: str) -> ast.Query:
    """Parse ``text`` into a query AST (memoized on the exact SQL text).

    Repeated pipeline runs (the processor re-parsing the same module query,
    benchmark loops) get the cached AST back.  Cached trees are shared, which
    is safe under the repo-wide convention that AST nodes are immutable —
    every transformer (:func:`repro.sql.visitor.clone`, the rewriter, the
    fragmenter) deep-copies before mutating.  Parse errors are not cached.
    Thread-safe; see the memo's comment for the locking discipline.
    """
    with _PARSE_CACHE_LOCK:
        cached = _PARSE_CACHE.get(text)
        if cached is not None:
            _PARSE_CACHE_STATS[0] += 1
        else:
            _PARSE_CACHE_STATS[1] += 1
    if cached is not None:
        return cached
    parsed = Parser(text).parse_query()
    with _PARSE_CACHE_LOCK:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX and text not in _PARSE_CACHE:
            # Flush wholesale past the bound, mirroring the engine's plan
            # memos; the vocabulary of live query texts is small.
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = parsed
    return parsed


def parse_expression(text: str) -> ast.Expression:
    """Parse ``text`` into a standalone expression AST."""
    return Parser(text).parse_expression_only()
