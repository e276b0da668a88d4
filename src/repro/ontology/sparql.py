"""A SPARQL-subset query engine: tokenizer, parser and executor.

Supports the fragment the SCAN Data Broker needs (paper Section III-A.1.ii):

.. code-block:: sparql

    PREFIX scan: <http://.../scan-ontology#>
    SELECT DISTINCT ?app ?size
    WHERE {
        ?app rdf:type scan:Application .
        ?app scan:inputFileSize ?size .
        OPTIONAL { ?app scan:performance ?perf . }
        FILTER (?size >= 2 && ?size <= 20)
    }
    ORDER BY ASC(?size) DESC(?app)
    LIMIT 10

Grammar (EBNF-ish)::

    query    := prefix* 'SELECT' 'DISTINCT'? ( '*' | var+ ) 'WHERE'? group
                ('ORDER' 'BY' order+)? ('LIMIT' INT)? ('OFFSET' INT)?
    group    := '{' ( pattern '.'? | 'OPTIONAL' group | 'FILTER' expr
                    | group ('UNION' group)* )* '}'
    pattern  := term term term
    term     := var | '<'IRI'>' | PNAME | literal
    expr     := or-expression over comparisons, BOUND(var), REGEX(var, str)

The executor evaluates basic graph patterns by ordered pattern joins over
the triple store, OPTIONAL as a left join, UNION as a union of alternative
extensions, FILTER on completed bindings.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, Union
from weakref import WeakKeyDictionary

from repro.ontology.triples import IRI, Literal, Term, TripleStore

__all__ = [
    "SparqlError",
    "Variable",
    "SparqlQuery",
    "parse_query",
    "execute_query",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
]


class SparqlError(Exception):
    """Raised for malformed queries or execution failures."""


@dataclass(frozen=True)
class Variable:
    """A SPARQL variable (``?name``)."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Variable, IRI, Literal]


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm


@dataclass
class GroupPattern:
    """A { ... } group: patterns, optional subgroups, filters, unions.

    Each entry of ``unions`` is a list of alternative subgroups
    (``{ A } UNION { B } UNION { C }``); a binding survives if it extends
    through at least one alternative.
    """

    patterns: list[TriplePattern] = field(default_factory=list)
    optionals: list["GroupPattern"] = field(default_factory=list)
    filters: list["Expr"] = field(default_factory=list)
    unions: list[list["GroupPattern"]] = field(default_factory=list)


@dataclass(frozen=True)
class OrderCondition:
    variable: Variable
    descending: bool = False


@dataclass
class SparqlQuery:
    """A parsed SELECT query."""

    variables: Optional[list[Variable]]  # None means SELECT *
    where: GroupPattern
    distinct: bool = False
    order_by: list[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    prefixes: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Expressions (FILTER)
# ---------------------------------------------------------------------------


class Expr:
    """Base class for filter expressions."""

    def evaluate(self, binding: dict[str, Term]) -> Any:  # pragma: no cover
        """The expression value under *binding*."""
        raise NotImplementedError


@dataclass
class VarExpr(Expr):
    var: Variable

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """The variable's bound term (raises if unbound)."""
        try:
            return binding[self.var.name]
        except KeyError:
            raise _UnboundVariable(self.var.name) from None


@dataclass
class ConstExpr(Expr):
    value: Any

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """The constant itself."""
        return self.value


@dataclass
class UnaryExpr(Expr):
    op: str
    operand: Expr

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """Apply ! or unary - to the operand."""
        if self.op == "!":
            return not _truth(self.operand.evaluate(binding))
        if self.op == "-":
            return -_numeric(self.operand.evaluate(binding))
        raise SparqlError(f"unknown unary operator {self.op}")


@dataclass
class BinaryExpr(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """Apply the boolean/comparison/arithmetic operator."""
        op = self.op
        if op == "&&":
            return _truth(self.left.evaluate(binding)) and _truth(
                self.right.evaluate(binding)
            )
        if op == "||":
            return _truth(self.left.evaluate(binding)) or _truth(
                self.right.evaluate(binding)
            )
        lhs = self.left.evaluate(binding)
        rhs = self.right.evaluate(binding)
        if op in ("=", "!="):
            equal = _value(lhs) == _value(rhs)
            return equal if op == "=" else not equal
        lnum, rnum = _numeric(lhs), _numeric(rhs)
        if op == "<":
            return lnum < rnum
        if op == "<=":
            return lnum <= rnum
        if op == ">":
            return lnum > rnum
        if op == ">=":
            return lnum >= rnum
        if op == "+":
            return lnum + rnum
        if op == "-":
            return lnum - rnum
        if op == "*":
            return lnum * rnum
        if op == "/":
            if rnum == 0:
                raise SparqlError("division by zero in FILTER")
            return lnum / rnum
        raise SparqlError(f"unknown operator {op}")


@dataclass
class BoundExpr(Expr):
    var: Variable

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """True iff the variable is bound."""
        return self.var.name in binding


@dataclass
class RegexExpr(Expr):
    operand: Expr
    pattern: str
    flags: str = ""

    def evaluate(self, binding: dict[str, Term]) -> Any:
        """True iff the regex matches the operand text."""
        value = self.operand.evaluate(binding)
        text = str(_value(value))
        re_flags = re.IGNORECASE if "i" in self.flags else 0
        return re.search(self.pattern, text, re_flags) is not None


class _UnboundVariable(Exception):
    """Internal: an expression referenced an unbound variable."""


def _value(term: Any) -> Any:
    if isinstance(term, Literal):
        return term.value
    return term


def _numeric(term: Any) -> float:
    if isinstance(term, Literal):
        return term.as_number()
    if isinstance(term, bool):
        return float(term)
    if isinstance(term, (int, float)):
        return float(term)
    raise SparqlError(f"non-numeric operand {term!r} in FILTER arithmetic")


def _truth(value: Any) -> bool:
    if isinstance(value, Literal):
        value = value.value
    return bool(value)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<IRIREF><[^<>\s]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<NUMBER>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z0-9_.-]*)
  | (?P<KEYWORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>&&|\|\||!=|<=|>=|[{}().,;*=<>!+/-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SparqlError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup
        assert kind is not None
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], store_prefixes: dict[str, str]) -> None:
        self._tokens = tokens
        self._idx = 0
        self._prefixes = dict(store_prefixes)

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        return self._tokens[self._idx] if self._idx < len(self._tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise SparqlError("unexpected end of query")
        self._idx += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text.upper() != text.upper():
            raise SparqlError(f"expected {text!r}, got {tok.text!r} at {tok.pos}")
        return tok

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return (
            tok is not None
            and tok.kind == "KEYWORD"
            and tok.text.upper() == word.upper()
        )

    # -- grammar -----------------------------------------------------------
    def parse(self) -> SparqlQuery:
        while self._at_keyword("PREFIX"):
            self._parse_prefix()
        self._expect("SELECT")
        distinct = False
        if self._at_keyword("DISTINCT"):
            self._next()
            distinct = True
        variables = self._parse_projection()
        if self._at_keyword("FROM"):
            # FROM <graph> accepted and ignored: single-graph store, as in
            # the paper's example query.
            self._next()
            self._next()
        if self._at_keyword("WHERE"):
            self._next()
        where = self._parse_group()
        order_by: list[OrderCondition] = []
        limit: Optional[int] = None
        offset = 0
        if self._at_keyword("ORDER"):
            self._next()
            self._expect("BY")
            order_by = self._parse_order_conditions()
        if self._at_keyword("LIMIT"):
            self._next()
            limit = int(self._next().text)
            if limit < 0:
                raise SparqlError("LIMIT must be >= 0")
        if self._at_keyword("OFFSET"):
            self._next()
            offset = int(self._next().text)
            if offset < 0:
                raise SparqlError("OFFSET must be >= 0")
        if self._peek() is not None:
            tok = self._peek()
            assert tok is not None
            raise SparqlError(f"trailing input at {tok.pos}: {tok.text!r}")
        return SparqlQuery(
            variables=variables,
            where=where,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
            prefixes=self._prefixes,
        )

    def _parse_prefix(self) -> None:
        self._expect("PREFIX")
        tok = self._next()
        if tok.kind == "PNAME" and tok.text.endswith(":"):
            prefix = tok.text[:-1]
        elif tok.kind == "KEYWORD":
            prefix = tok.text
            self._expect(":")
        else:
            raise SparqlError(f"bad PREFIX name at {tok.pos}")
        iri_tok = self._next()
        if iri_tok.kind != "IRIREF":
            raise SparqlError(f"expected <IRI> after PREFIX at {iri_tok.pos}")
        self._prefixes[prefix] = iri_tok.text[1:-1]

    def _parse_projection(self) -> Optional[list[Variable]]:
        tok = self._peek()
        if tok is not None and tok.text == "*":
            self._next()
            return None
        variables: list[Variable] = []
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "VAR":
                break
            self._next()
            variables.append(Variable(tok.text[1:]))
        if not variables:
            raise SparqlError("SELECT requires '*' or at least one variable")
        return variables

    def _parse_group(self) -> GroupPattern:
        self._expect("{")
        group = GroupPattern()
        while True:
            tok = self._peek()
            if tok is None:
                raise SparqlError("unterminated group pattern")
            if tok.text == "}":
                self._next()
                return group
            if self._at_keyword("OPTIONAL"):
                self._next()
                group.optionals.append(self._parse_group())
            elif self._at_keyword("FILTER"):
                self._next()
                group.filters.append(self._parse_bracketed_expr())
            elif tok.text == "{":
                alternatives = [self._parse_group()]
                while self._at_keyword("UNION"):
                    self._next()
                    alternatives.append(self._parse_group())
                group.unions.append(alternatives)
            else:
                group.patterns.append(self._parse_triple_pattern())
                nxt = self._peek()
                if nxt is not None and nxt.text in (".", ";"):
                    self._next()

    def _parse_triple_pattern(self) -> TriplePattern:
        s = self._parse_term()
        p = self._parse_term()
        o = self._parse_term()
        return TriplePattern(s, p, o)

    def _parse_term(self) -> PatternTerm:
        tok = self._next()
        if tok.kind == "VAR":
            return Variable(tok.text[1:])
        if tok.kind == "IRIREF":
            return IRI(tok.text[1:-1])
        if tok.kind == "PNAME":
            return self._expand_pname(tok)
        if tok.kind == "STRING":
            return Literal(_unquote(tok.text))
        if tok.kind == "NUMBER":
            return Literal(_parse_number(tok.text))
        if tok.kind == "KEYWORD" and tok.text == "a":
            # Turtle/SPARQL shorthand for rdf:type.
            return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        if tok.kind == "KEYWORD" and tok.text.lower() in ("true", "false"):
            return Literal(tok.text.lower() == "true")
        raise SparqlError(f"unexpected term {tok.text!r} at {tok.pos}")

    def _expand_pname(self, tok: _Token) -> IRI:
        prefix, local = tok.text.split(":", 1)
        try:
            return IRI(self._prefixes[prefix] + local)
        except KeyError:
            raise SparqlError(
                f"unknown prefix {prefix!r} at {tok.pos}; declare it with PREFIX"
            ) from None

    def _parse_bracketed_expr(self) -> Expr:
        self._expect("(")
        expr = self._parse_or()
        self._expect(")")
        return expr

    # Expression precedence: || < && < comparison < additive < multiplicative
    # < unary.
    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._peek() is not None and self._peek().text == "||":  # type: ignore[union-attr]
            self._next()
            left = BinaryExpr("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_comparison()
        while self._peek() is not None and self._peek().text == "&&":  # type: ignore[union-attr]
            self._next()
            left = BinaryExpr("&&", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        tok = self._peek()
        if tok is not None and tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            return BinaryExpr(tok.text, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self._peek()
            if tok is not None and tok.text in ("+", "-"):
                self._next()
                left = BinaryExpr(tok.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.text in ("*", "/"):
                self._next()
                left = BinaryExpr(tok.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise SparqlError("unexpected end of FILTER expression")
        if tok.text == "!":
            self._next()
            return UnaryExpr("!", self._parse_unary())
        if tok.text == "-":
            self._next()
            return UnaryExpr("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self._next()
        if tok.text == "(":
            expr = self._parse_or()
            self._expect(")")
            return expr
        if tok.kind == "VAR":
            return VarExpr(Variable(tok.text[1:]))
        if tok.kind == "NUMBER":
            return ConstExpr(_parse_number(tok.text))
        if tok.kind == "STRING":
            return ConstExpr(_unquote(tok.text))
        if tok.kind == "KEYWORD":
            word = tok.text.upper()
            if word == "BOUND":
                self._expect("(")
                var_tok = self._next()
                if var_tok.kind != "VAR":
                    raise SparqlError("BOUND() requires a variable")
                self._expect(")")
                return BoundExpr(Variable(var_tok.text[1:]))
            if word == "REGEX":
                self._expect("(")
                operand = self._parse_or()
                self._expect(",")
                pat_tok = self._next()
                if pat_tok.kind != "STRING":
                    raise SparqlError("REGEX() requires a string pattern")
                flags = ""
                if self._peek() is not None and self._peek().text == ",":  # type: ignore[union-attr]
                    self._next()
                    flags_tok = self._next()
                    flags = _unquote(flags_tok.text)
                self._expect(")")
                return RegexExpr(operand, _unquote(pat_tok.text), flags)
            if word in ("TRUE", "FALSE"):
                return ConstExpr(word == "TRUE")
        if tok.kind == "PNAME":
            return ConstExpr(self._expand_pname(tok))
        raise SparqlError(f"unexpected token {tok.text!r} in expression at {tok.pos}")

    def _parse_order_conditions(self) -> list[OrderCondition]:
        conditions: list[OrderCondition] = []
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == "VAR":
                self._next()
                conditions.append(OrderCondition(Variable(tok.text[1:])))
            elif tok.kind == "KEYWORD" and tok.text.upper() in ("ASC", "DESC"):
                descending = tok.text.upper() == "DESC"
                self._next()
                self._expect("(")
                var_tok = self._next()
                if var_tok.kind != "VAR":
                    raise SparqlError("ORDER BY ASC/DESC requires a variable")
                self._expect(")")
                conditions.append(
                    OrderCondition(Variable(var_tok.text[1:]), descending)
                )
            else:
                break
        if not conditions:
            raise SparqlError("ORDER BY requires at least one condition")
        return conditions


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")


def _parse_number(text: str) -> Union[int, float]:
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return float(text)


# ---------------------------------------------------------------------------
# Hot-path caches
# ---------------------------------------------------------------------------
#
# The Data Broker re-issues the same handful of query texts for every
# brokered dataset, so both the parse (query *plan*) and the executed
# result set are memoised:
#
# - the plan cache is a module-level LRU keyed on (query text, the store's
#   prefix map) -- parsing is pure, so a plan can be shared freely;
# - the result cache is per-store (a WeakKeyDictionary, so dropped stores
#   free their cache) keyed on query text and guarded by the store's
#   mutation ``epoch``: any effective add/remove invalidates every cached
#   result for that store.
#
# Cached result rows are copied in and out (dicts of immutable values), so
# callers may mutate what they receive; the hit/miss counters let tests
# check what each cache served.

#: LRU capacity for parsed query plans (per process).
PLAN_CACHE_SIZE = 256
#: LRU capacity for result sets per store.
RESULT_CACHE_SIZE = 128

_plan_cache: "OrderedDict[tuple, SparqlQuery]" = OrderedDict()
_result_caches: "WeakKeyDictionary[TripleStore, dict]" = WeakKeyDictionary()
_CACHE_STATS = {
    "plan_hits": 0,
    "plan_misses": 0,
    "result_hits": 0,
    "result_misses": 0,
}


def cache_stats() -> dict[str, int]:
    """Process-wide plan/result cache hit and miss counters (a copy)."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the hit/miss counters (cache contents are untouched)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def clear_caches() -> None:
    """Drop every cached plan and result set (counters are untouched)."""
    _plan_cache.clear()
    _result_caches.clear()


def _cached_plan(text: str, prefixes: dict[str, str]) -> SparqlQuery:
    key = (text, tuple(sorted(prefixes.items())))
    plan = _plan_cache.get(key)
    if plan is not None:
        _plan_cache.move_to_end(key)
        _CACHE_STATS["plan_hits"] += 1
        return plan
    _CACHE_STATS["plan_misses"] += 1
    plan = _Parser(_tokenize(text), prefixes).parse()
    _plan_cache[key] = plan
    if len(_plan_cache) > PLAN_CACHE_SIZE:
        _plan_cache.popitem(last=False)
    return plan


def _store_result_cache(store: TripleStore) -> "OrderedDict[str, list]":
    """The store's live result cache, invalidated on epoch change."""
    slot = _result_caches.get(store)
    if slot is None or slot["epoch"] != store.epoch:
        slot = {"epoch": store.epoch, "rows": OrderedDict()}
        _result_caches[store] = slot
    return slot["rows"]


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def parse_query(text: str, store: Optional[TripleStore] = None) -> SparqlQuery:
    """Parse *text* into a :class:`SparqlQuery`.

    If *store* is given, its bound prefixes are available without PREFIX
    declarations (as Jena does for its prefix map).  Parses are served
    from the plan cache; treat the returned query as immutable.
    """
    prefixes = store.prefixes if store is not None else {}
    return _cached_plan(text, prefixes)


def execute_query(
    store: TripleStore,
    query: "SparqlQuery | str",
    cache: bool = True,
) -> list[dict[str, Any]]:
    """Run *query* against *store*, returning bindings as plain dicts.

    Result values are Python-native (literals unwrapped); IRIs stay
    :class:`IRI`.  Unbound optional variables are absent from the dict.

    String queries are served through the plan and result caches by
    default (``cache=False`` bypasses both); the result cache is keyed on
    the store's mutation epoch, so any add/remove invalidates it.  Rows
    are copied on the way in and out -- mutating a returned row never
    corrupts the cache.
    """
    if isinstance(query, str):
        rows_cache = _store_result_cache(store) if cache else None
        if rows_cache is not None:
            hit = rows_cache.get(query)
            if hit is not None:
                rows_cache.move_to_end(query)
                _CACHE_STATS["result_hits"] += 1
                return [dict(row) for row in hit]
            _CACHE_STATS["result_misses"] += 1
        text = query
        query = parse_query(text, store) if cache else _Parser(
            _tokenize(text), store.prefixes
        ).parse()
        results = _execute_parsed(store, query)
        if rows_cache is not None:
            rows_cache[text] = [dict(row) for row in results]
            if len(rows_cache) > RESULT_CACHE_SIZE:
                rows_cache.popitem(last=False)
        return results
    return _execute_parsed(store, query)


def _execute_parsed(
    store: TripleStore, query: SparqlQuery
) -> list[dict[str, Any]]:
    bindings = _eval_group(store, query.where, [{}])

    # FILTERs were applied inside groups; now project / order / slice.
    if query.order_by:
        for cond in reversed(query.order_by):
            bindings.sort(
                key=lambda b, c=cond: _sort_key(b.get(c.variable.name)),
                reverse=cond.descending,
            )
    results: list[dict[str, Any]] = []
    for binding in bindings:
        if query.variables is None:
            row = {name: _value(term) for name, term in binding.items()}
        else:
            row = {}
            for var in query.variables:
                if var.name in binding:
                    row[var.name] = _value(binding[var.name])
        results.append(row)
    if query.distinct:
        seen: set[tuple] = set()
        unique: list[dict[str, Any]] = []
        for row in results:
            key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        results = unique
    if query.offset:
        results = results[query.offset :]
    if query.limit is not None:
        results = results[: query.limit]
    return results


def _sort_key(term: Any) -> tuple:
    """Total order over possibly-missing heterogeneous terms."""
    if term is None:
        return (0, 0.0, "")
    if isinstance(term, Literal):
        term = term.value
    if isinstance(term, bool):
        return (1, float(term), "")
    if isinstance(term, (int, float)):
        return (1, float(term), "")
    return (2, 0.0, str(term))


def _eval_group(
    store: TripleStore,
    group: GroupPattern,
    bindings: list[dict[str, Term]],
) -> list[dict[str, Term]]:
    # Required basic graph patterns: sequential join.
    for pattern in group.patterns:
        bindings = _join_pattern(store, pattern, bindings)
        if not bindings:
            break
    # UNION blocks: a binding extends through any one alternative.
    for alternatives in group.unions:
        extended: list[dict[str, Term]] = []
        for binding in bindings:
            for alternative in alternatives:
                extended.extend(
                    _eval_group(store, alternative, [dict(binding)])
                )
        bindings = extended
        if not bindings:
            break
    # OPTIONAL groups: left join each.
    for optional in group.optionals:
        extended: list[dict[str, Term]] = []
        for binding in bindings:
            matches = _eval_group(store, optional, [dict(binding)])
            if matches:
                extended.extend(matches)
            else:
                extended.append(binding)
        bindings = extended
    # FILTERs: keep bindings where every filter is true.  A filter that
    # references an unbound variable evaluates to false (SPARQL "error ->
    # false" semantics for our subset).
    for filt in group.filters:
        kept = []
        for binding in bindings:
            try:
                if _truth(filt.evaluate(binding)):
                    kept.append(binding)
            except _UnboundVariable:
                continue
        bindings = kept
    return bindings


def _join_pattern(
    store: TripleStore,
    pattern: TriplePattern,
    bindings: list[dict[str, Term]],
) -> list[dict[str, Term]]:
    out: list[dict[str, Term]] = []
    for binding in bindings:
        s = _resolve_term(pattern.subject, binding)
        p = _resolve_term(pattern.predicate, binding)
        o = _resolve_term(pattern.object, binding)
        for triple in store.match(
            s if not isinstance(s, Variable) else None,
            p if not isinstance(p, Variable) else None,
            o if not isinstance(o, Variable) else None,
        ):
            new_binding = dict(binding)
            consistent = True
            for var_term, value in (
                (pattern.subject, triple.subject),
                (pattern.predicate, triple.predicate),
                (pattern.object, triple.object),
            ):
                if isinstance(var_term, Variable):
                    existing = new_binding.get(var_term.name)
                    if existing is None:
                        new_binding[var_term.name] = value
                    elif existing != value:
                        consistent = False
                        break
            if consistent:
                out.append(new_binding)
    return out


def _resolve_term(
    term: PatternTerm, binding: dict[str, Term]
) -> "PatternTerm | Term":
    if isinstance(term, Variable):
        bound = binding.get(term.name)
        return bound if bound is not None else term
    return term
