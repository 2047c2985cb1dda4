"""The GSQL lexer and parser ``repro.gsql`` replaced, kept as the oracle
of ``test_gsql_parser_differential.py``.

Both modules are here as they shipped, one after the other; only their
imports changed (absolute instead of relative), and ``Span`` gains back
the two token-based constructors the old parser called.  The lexer
makes ``Token`` named tuples that carry their line and column; the
parser climbs a ladder of one function per precedence level, stamps
every node with a span built from two tokens, compiles each DARPE it
meets, and stamps all four certificates -- cost included -- on every
query.  Do not fix or speed it up: the point of a reference is that it
does not move.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.accum import (
    AndAccum,
    ArrayAccum,
    AvgAccum,
    BagAccum,
    GroupByAccum,
    HeapAccum,
    ListAccum,
    MapAccum,
    MaxAccum,
    MinAccum,
    OrAccum,
    SetAccum,
    SumAccum,
    TupleType,
    lookup_accumulator,
)
from repro.darpe.automaton import CompiledDarpe
from repro.darpe.parser import parse_darpe
from repro.errors import GSQLSyntaxError, QueryCompileError
from repro.core.acctypes import AccumTypeInfo
from repro.core.block import OutputColumn, OutputFragment, SelectBlock
from repro.core.context import GLOBAL, VERTEX
from repro.core.span import Span as _Span
from repro.core.exprs import (
    AggCall,
    ArrowExpr,
    AttrRef,
    Binary,
    Call,
    CaseExpr,
    Expr,
    GlobalAccumRef,
    Literal,
    Method,
    NameRef,
    TupleExpr,
    Unary,
    VertexAccumRef,
)
from repro.core.pattern import Chain, Hop, Pattern, VertexSpec
from repro.core.query import (
    DeclareAccum,
    Foreach,
    SetOpAssign,
    GlobalAccumUpdate,
    If,
    Parameter,
    Print,
    PrintItem,
    PrintSetProjection,
    Query,
    Return,
    RunBlock,
    SetAssign,
    Statement,
    While,
)
from repro.core.stmts import (
    AccStatement,
    AccumForeach,
    AccumIf,
    AccumTarget,
    AccumUpdate,
    AttributeUpdate,
    LocalAssign,
)


class Span(_Span):
    """``repro.core.span.Span`` with the constructors the old parser used."""

    __slots__ = ()

    @classmethod
    def from_token(cls, token: Any) -> "Span":
        """The span of one lexer token."""
        width = max(token.end - token.start, 1)
        return cls(
            token.line,
            token.column,
            token.line,
            token.column + width,
            token.start,
            token.end,
        )

    @classmethod
    def between(cls, first: Any, last: Any) -> "Span":
        """The span from the start of ``first`` to the end of ``last``
        (both lexer tokens)."""
        last_width = max(last.end - last.start, 1)
        return cls(
            first.line,
            first.column,
            last.line,
            last.column + last_width,
            first.start,
            last.end,
        )

KEYWORDS = {
    "CREATE", "QUERY", "FOR", "GRAPH", "SELECT", "DISTINCT", "INTO", "FROM",
    "WHERE", "ACCUM", "POST_ACCUM", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "ASC", "DESC", "WHILE", "DO", "END", "IF", "THEN", "ELSE", "PRINT",
    "RETURN", "TRUE", "FALSE", "AND", "OR", "NOT", "IN", "TYPEDEF", "TUPLE",
    "CASE", "WHEN", "AS", "FOREACH", "USING", "SEMANTICS",
    "UNION", "INTERSECT", "MINUS",
}


class Token(NamedTuple):
    kind: str       # NAME, KEYWORD, NUMBER, STRING, OP, AT, ATAT, PRIME, EOF
    value: str
    line: int
    column: int
    start: int      # offset in source
    end: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word

    def is_op(self, op: str) -> bool:
        return self.kind == "OP" and self.value == op


#: Skipped text, then exactly one token.  Alternatives are ordered so
#: the first that matches is the one the grammar means: ``POST-ACCUM``
#: (Figure 4's hyphenated spelling, spaces allowed) before NAME, an
#: unclosed ``/*`` before the ``/`` operator, two-character operators
#: before their prefixes, ``@@`` before ``@``.  A quote directly after an
#: identifier or keyword is the PRIME suffix and is taken with it, so a
#: quote that reaches STRING always opens a string, and one STRING
#: cannot close is UNTERMINATED as far as it runs.  EOF and the
#: catch-all make the pattern match at every offset: ``finditer`` never
#: skips a character, and whatever reaches ``BAD`` is an error.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | \#[^\n]* | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?: (?P<POST_ACCUM> (?i:post) [ \t]* - [ \t]* (?i:accum) )
          | (?P<NAME> [^\W\d]\w* )
        ) (?P<PRIME> ' )?
      | (?P<NUMBER> \d+ (?: \.\d+ )? (?: [eE][+-]?\d+ )? )
      | (?P<UNCLOSED> /\* )
      | (?P<OP> \+= | == | != | <> | <= | >= | -> | \.\.
              | [-+*/%=<>(){}\[\],;:.|] )
      | (?P<STRING> "(?: [^"\\\n] | \\. )*" | '(?: [^'\\\n] | \\. )*' )
      | (?P<UNTERMINATED> "(?: [^"\\\n] | \\. )* | '(?: [^'\\\n] | \\. )* )
      | (?P<ATAT> @@ )
      | (?P<AT> @ )
      | (?P<EOF> \Z )
      | (?P<BAD> . )
    )
    """,
    re.X | re.S,
)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _word(text: str, line: int, column: int, start: int, end: int) -> Token:
    """The KEYWORD (case-folded) or NAME (case kept) token of one word."""
    word = text[start:end]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token("KEYWORD", upper, line, column, start, end)
    return Token("NAME", word, line, column, start, end)


def tokenize(text: str) -> List[Token]:
    """Tokenize GSQL source; raises :class:`GSQLSyntaxError` on junk."""
    tokens: List[Token] = []
    append = tokens.append
    # The newline that ends the current line; a last line without one
    # ends at ``len(text)``, which the extra newline lets ``find`` say.
    find = (text + "\n").find
    next_nl = find("\n")
    line = 1
    line_start = 0

    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        end = m.end()
        while start > next_nl:
            line += 1
            line_start = next_nl + 1
            next_nl = find("\n", line_start)
        column = start - line_start + 1
        if kind == "OP":
            append(Token("OP", text[start:end], line, column, start, end))
        elif kind == "NAME":
            append(_word(text, line, column, start, end))
        elif kind == "NUMBER":
            append(Token("NUMBER", text[start:end], line, column, start, end))
        elif kind == "AT":
            append(Token("AT", "@", line, column, start, end))
        elif kind == "ATAT":
            append(Token("ATAT", "@@", line, column, start, end))
        elif kind == "STRING":
            value = text[start + 1 : end - 1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
                # An escaped newline inside a string has never started
                # a new line for the positions that follow it.
                while next_nl < end:
                    next_nl = find("\n", next_nl + 1)
            append(Token("STRING", value, line, column, start, end))
        elif kind == "PRIME":
            # The word the prime is the suffix of comes first.
            word_start = m.start("NAME")
            if word_start >= 0:
                append(_word(text, line, word_start - line_start + 1,
                             word_start, start))
            else:
                word_start = m.start("POST_ACCUM")
                append(Token("KEYWORD", "POST_ACCUM", line,
                             word_start - line_start + 1, word_start, start))
            append(Token("PRIME", "'", line, column, start, end))
        elif kind == "POST_ACCUM":
            append(Token("KEYWORD", "POST_ACCUM", line, column, start, end))
        elif kind == "EOF":
            append(Token("EOF", "", line, column, start, start))
            return tokens
        elif kind == "UNCLOSED":
            raise GSQLSyntaxError("unterminated block comment", line, column)
        elif kind == "UNTERMINATED":
            # It ran into an unescaped newline, or else off the end of
            # the text (where a lone trailing backslash stops the match).
            if end < len(text) and text[end] != "\n":
                end = len(text)
            raise GSQLSyntaxError(
                "unterminated string literal", line, end - line_start + 1
            )
        else:
            raise GSQLSyntaxError(
                f"unexpected character {text[start]!r}", line, column
            )
    raise AssertionError("unreachable: _TOKEN matches EOF")  # pragma: no cover



#: Scalar GSQL type names accepted in parameter/local/tuple declarations.
_SCALAR_TYPES = {
    "INT", "UINT", "FLOAT", "DOUBLE", "BOOL", "STRING", "DATETIME", "VERTEX",
    "TIMESTAMP", "DATE",
}

_PY_ELEMENT_TYPES = {
    "INT": int,
    "UINT": int,
    "FLOAT": float,
    "DOUBLE": float,
    "STRING": str,
    "BOOL": bool,
    "DATETIME": int,
    "TIMESTAMP": int,
    "DATE": int,
}


#: The furthest any rule looks past the current token (``peek(2)``).
_LOOKAHEAD = 2


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        # ``advance`` never moves past EOF, so this many more EOFs behind
        # it are all ``peek`` needs to index without a bounds check.
        self.tokens.extend(self.tokens[-1:] * _LOOKAHEAD)
        self.i = 0
        self.tuple_types: Dict[str, TupleType] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.i + offset]

    def advance(self) -> Token:
        token = self.tokens[self.i]
        if token.kind != "EOF":
            self.i += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> GSQLSyntaxError:
        token = token or self.peek()
        return GSQLSyntaxError(
            f"{message} (found {token.value!r})", token.line, token.column
        )

    def accept_kw(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> Token:
        if not self.peek().is_keyword(word):
            raise self.error(f"expected {word}")
        return self.advance()

    def accept_op(self, op: str) -> bool:
        if self.peek().is_op(op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        if not self.peek().is_op(op):
            raise self.error(f"expected {op!r}")
        return self.advance()

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind == "NAME":
            self.advance()
            return token.value
        # Allow non-reserved-sounding keywords as identifiers where
        # unambiguous (e.g. a table named "Order" would clash; GSQL also
        # reserves these).
        raise self.error("expected an identifier")

    # ------------------------------------------------------------------
    # Span helpers
    # ------------------------------------------------------------------
    def _prev(self) -> Token:
        """The most recently consumed token (end anchor for spans)."""
        return self.tokens[self.i - 1] if self.i > 0 else self.tokens[0]

    def _close(self, node: Any, start: Token) -> Any:
        """Stamp ``node`` with the span from ``start`` through the last
        consumed token, unless a more precise span was already set."""
        if getattr(node, "span", None) is None:
            node.span = Span.between(start, self._prev())
        return node

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_queries(self) -> List[Query]:
        queries = []
        while not self.peek().kind == "EOF":
            queries.append(self.parse_query_decl())
        if not queries:
            raise GSQLSyntaxError("no CREATE QUERY found", 1, 1)
        from repro.core.tractable import (
            attach_certificates,
            attach_cost_certificates,
            attach_effect_certificates,
            attach_governor_caps,
        )

        for query in queries:
            query.source = self.text
            # Stamp every SELECT block with its static tractability
            # certificate so the planner's EngineMode.auto() and the
            # runtime guard never need to re-probe declarations.
            attach_certificates(query)
            # Stamp the effect/commutativity certificate next to it —
            # parallel_accum's licence and AccSan's cross-check target.
            attach_effect_certificates(query)
            # Flag E033 (provably non-terminating) WHILE loops so
            # governed/AUTO execution runs them under a soft iteration
            # cap instead of rejecting the query (docs/robustness.md).
            attach_governor_caps(query)
            # Stamp the structural cost certificate last (it reads the
            # governed caps above); consumers holding a stats snapshot
            # re-stamp with concrete closed-form intervals.
            attach_cost_certificates(query)
        return queries

    def parse_query_decl(self) -> Query:
        self.expect_kw("CREATE")
        self.expect_kw("QUERY")
        name = self.expect_name()
        self.expect_op("(")
        params = self.parse_params()
        self.expect_op(")")
        graph_name = None
        if self.accept_kw("FOR"):
            self.expect_kw("GRAPH")
            graph_name = self.expect_name()
        self.expect_op("{")
        statements = self.parse_statements(terminators=("}",))
        self.expect_op("}")
        return Query(name, statements, params, graph_name)

    def parse_params(self) -> List[Parameter]:
        params: List[Parameter] = []
        if self.peek().is_op(")"):
            return params
        while True:
            type_name = self.parse_param_type()
            pname = self.expect_name()
            default = None
            if self.accept_op("="):
                default = self.parse_literal_value()
            params.append(Parameter(pname, type_name, default))
            if not self.accept_op(","):
                break
        return params

    def parse_param_type(self) -> str:
        token = self.peek()
        if token.kind != "NAME":
            raise self.error("expected a parameter type")
        self.advance()
        type_name = token.value
        if type_name.upper() == "VERTEX" and self.accept_op("<"):
            inner = self.expect_name()
            self.expect_op(">")
            return f"vertex<{inner}>"
        return type_name

    def parse_literal_value(self) -> Any:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return _number(token.value)
        if token.kind == "STRING":
            self.advance()
            return token.value
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        if token.is_op("-") and self.peek(1).kind == "NUMBER":
            self.advance()
            return -_number(self.advance().value)
        raise self.error("expected a literal default value")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statements(self, terminators: Sequence[str]) -> List[Statement]:
        statements: List[Statement] = []
        while True:
            token = self.peek()
            if token.kind == "EOF":
                break
            if token.kind == "OP" and token.value in terminators:
                break
            if token.kind == "KEYWORD" and token.value in terminators:
                break
            stmt = self.parse_statement()
            if stmt is not None:
                self._close(stmt, token)
                if isinstance(stmt, _StatementGroup):
                    for member in stmt.statements:
                        self._close(member, token)
                statements.append(stmt)
        return statements

    def parse_statement(self) -> Optional[Statement]:
        token = self.peek()
        if token.is_keyword("TYPEDEF"):
            self.parse_typedef()
            return None
        if token.is_keyword("WHILE"):
            return self.parse_while()
        if token.is_keyword("FOREACH"):
            return self.parse_foreach()
        if token.is_keyword("IF"):
            return self.parse_if()
        if token.is_keyword("PRINT"):
            stmt = self.parse_print()
            self.expect_op(";")
            return stmt
        if token.is_keyword("RETURN"):
            self.advance()
            stmt = Return(self.parse_expr())
            self.expect_op(";")
            return stmt
        if token.is_keyword("SELECT"):
            stmt = self.parse_select(assign_to=None)
            self.expect_op(";")
            return stmt
        if token.kind == "ATAT":
            self.advance()
            name_tok = self.peek()
            name = self.expect_name()
            op = self._expect_assign_op()
            expr = self.parse_expr()
            self.expect_op(";")
            stmt = GlobalAccumUpdate(name, op, expr)
            stmt.span = Span.between(token, name_tok)
            return stmt
        if token.kind == "NAME":
            nxt = self.peek(1)
            if nxt.is_op("<") or nxt.kind in ("AT", "ATAT") or (
                nxt.is_op("(") and token.value.endswith("Accum")
            ):
                stmt = self.parse_accum_decl()
                self.expect_op(";")
                return stmt
            if nxt.is_op("="):
                return self.parse_assignment()
        raise self.error("expected a statement")

    def _expect_assign_op(self) -> str:
        token = self.peek()
        if token.is_op("=") or token.is_op("+="):
            self.advance()
            return token.value
        raise self.error("expected = or +=")

    # -- TYPEDEF TUPLE --------------------------------------------------
    def parse_typedef(self) -> None:
        self.expect_kw("TYPEDEF")
        self.expect_kw("TUPLE")
        self.expect_op("<")
        fields: List[Tuple[str, str]] = []
        while True:
            ftype = self.expect_name()
            fname = self.expect_name()
            fields.append((fname, ftype))
            if not self.accept_op(","):
                break
        self.expect_op(">")
        name = self.expect_name()
        self.expect_op(";")
        self.tuple_types[name] = TupleType(name, fields)

    # -- accumulator declarations -----------------------------------------
    def parse_accum_decl(self) -> Statement:
        factory, type_info = self.parse_accum_type()
        decls: List[DeclareAccum] = []
        while True:
            token = self.peek()
            if token.kind == "ATAT":
                scope = GLOBAL
            elif token.kind == "AT":
                scope = VERTEX
            else:
                raise self.error("expected @name or @@name")
            self.advance()
            name_tok = self.peek()
            name = self.expect_name()
            initial = None
            if self.accept_op("="):
                initial = self.parse_expr()
            decl = DeclareAccum(name, scope, factory, initial, type_info)
            decl.span = Span.between(token, name_tok)
            decls.append(decl)
            if not self.accept_op(","):
                break
        if len(decls) == 1:
            return decls[0]
        return _StatementGroup(decls)

    def parse_accum_type(self) -> Tuple[Callable, AccumTypeInfo]:
        """Parse an accumulator type expression into an instance factory
        plus the declared-type descriptor the analyzer consumes."""
        name = self.expect_name()
        args: List[Any] = []
        if self.accept_op("<"):
            while True:
                args.append(self.parse_type_arg())
                if not self.accept_op(","):
                    break
            self.expect_op(">")
        ctor_args: List[Any] = []
        if name == "HeapAccum":
            ctor_args = self.parse_heap_args()
        elif self.peek().is_op("(") and name == "ArrayAccum":
            self.advance()
            size_token = self.peek()
            if size_token.kind != "NUMBER":
                raise self.error("ArrayAccum size must be a number literal")
            self.advance()
            ctor_args = [int(size_token.value)]
            self.expect_op(")")
        factory = self._build_factory(name, args, ctor_args)
        return factory, self._type_info(name, args)

    def parse_type_arg(self) -> Any:
        """One generic argument: a nested accumulator type, or a scalar
        type optionally followed by a key name (GroupByAccum keys)."""
        token = self.peek()
        if token.kind != "NAME":
            raise self.error("expected a type name")
        if token.value.endswith("Accum"):
            factory, info = self.parse_accum_type()
            return ("accum", factory, info)
        self.advance()
        type_name = token.value
        if self.peek().kind == "NAME":
            key_name = self.advance().value
            return ("keyed", type_name, key_name)
        return ("scalar", type_name)

    def _type_info(self, name: str, args: List[Any]) -> AccumTypeInfo:
        """The declared-type descriptor for a parsed accumulator type."""
        if name == "MapAccum" and len(args) == 2:
            key = args[0][1] if args[0][0] in ("scalar", "keyed") else None
            value: Any = None
            if args[1][0] == "accum":
                value = args[1][2]
            elif args[1][0] in ("scalar", "keyed"):
                value = args[1][1].upper()
            return AccumTypeInfo(name, key=key, value=value)
        if name == "HeapAccum":
            tuple_name = args[0][1] if args else None
            ttype = self.tuple_types.get(tuple_name) if tuple_name else None
            fields = list(ttype.fields) if ttype is not None else None
            return AccumTypeInfo(name, tuple_name=tuple_name, tuple_fields=fields)
        if name == "GroupByAccum":
            group_keys = [(a[1], a[2]) for a in args if a[0] == "keyed"]
            nested = [a[2] for a in args if a[0] == "accum"]
            return AccumTypeInfo(name, group_keys=group_keys, nested=nested)
        element = None
        if args and args[0][0] == "scalar":
            element = args[0][1]
        return AccumTypeInfo(name, element=element)

    def parse_heap_args(self) -> List[Any]:
        self.expect_op("(")
        capacity_token = self.peek()
        if capacity_token.kind == "NUMBER":
            self.advance()
            capacity: Any = int(capacity_token.value)
        elif capacity_token.kind == "NAME":
            self.advance()
            capacity = NameRef(capacity_token.value)  # a query parameter
        else:
            raise self.error("expected HeapAccum capacity")
        sort_spec: List[Tuple[str, str]] = []
        while self.accept_op(","):
            field = self.expect_name()
            order = "ASC"
            if self.accept_kw("ASC"):
                order = "ASC"
            elif self.accept_kw("DESC"):
                order = "DESC"
            sort_spec.append((field, order))
        self.expect_op(")")
        return [capacity, sort_spec]

    def _build_factory(
        self, name: str, args: List[Any], ctor_args: List[Any]
    ) -> Callable:
        """Compile a parsed accumulator type to a zero-arg factory."""
        if name == "SumAccum":
            element = _element_type(args, default=float)
            return lambda: SumAccum(element_type=element)
        if name == "MinAccum":
            return MinAccum
        if name == "MaxAccum":
            return MaxAccum
        if name == "AvgAccum":
            return AvgAccum
        if name == "OrAccum":
            return OrAccum
        if name == "AndAccum":
            return AndAccum
        if name == "SetAccum":
            return SetAccum
        if name == "BagAccum":
            return BagAccum
        if name == "ListAccum":
            return ListAccum
        if name == "ArrayAccum":
            nested = _nested_factory(args)
            size = ctor_args[0] if ctor_args else 0
            return lambda: ArrayAccum(size, nested)
        if name == "MapAccum":
            if len(args) != 2:
                raise QueryCompileError("MapAccum takes <KeyType, ValueType>")
            value_factory = _map_value_factory(args[1])
            return lambda: MapAccum(value_factory)
        if name == "HeapAccum":
            if len(args) != 1 or args[0][0] not in ("scalar", "keyed"):
                raise QueryCompileError("HeapAccum takes a tuple type name")
            tuple_name = args[0][1]
            ttype = self.tuple_types.get(tuple_name)
            if ttype is None:
                raise QueryCompileError(
                    f"unknown tuple type {tuple_name!r}; declare it with "
                    f"TYPEDEF TUPLE first"
                )
            capacity, sort_spec = ctor_args
            if isinstance(capacity, NameRef):
                param = capacity.name

                def heap_builder(ctx) -> Callable:
                    cap = int(ctx.param(param))
                    return lambda: HeapAccum(ttype, cap, sort_spec)

                heap_builder.takes_context = True  # type: ignore[attr-defined]
                return heap_builder
            return lambda: HeapAccum(ttype, capacity, sort_spec)
        if name == "GroupByAccum":
            key_names = [a[2] for a in args if a[0] == "keyed"]
            factories = [a[1] for a in args if a[0] == "accum"]
            if not key_names or not factories:
                raise QueryCompileError(
                    "GroupByAccum takes keyed scalar types followed by "
                    "nested accumulator types"
                )
            return lambda: GroupByAccum(key_names, factories)
        # Fall back to the registry for user-defined accumulators.
        cls = lookup_accumulator(name)
        return cls

    # -- assignments (vertex sets, select-assign) ------------------------
    def parse_assignment(self) -> Statement:
        name = self.expect_name()
        self.expect_op("=")
        token = self.peek()
        if token.is_keyword("SELECT"):
            stmt = self.parse_select(assign_to=name)
            self.expect_op(";")
            return stmt
        if token.is_op("{"):
            self.advance()
            items: List[str] = []
            while True:
                item = self.expect_name()
                if self.accept_op("."):
                    self.expect_op("*")
                    item += ".*"
                items.append(item)
                if not self.accept_op(","):
                    break
            self.expect_op("}")
            self.expect_op(";")
            return SetAssign(name, items)
        if token.kind == "NAME" and self.peek(1).is_op(";"):
            other = self.expect_name()
            self.expect_op(";")
            return SetAssign(name, other)
        if token.kind == "NAME" and self.peek(1).kind == "KEYWORD" and self.peek(1).value in SetOpAssign.OPS:
            left = self.expect_name()
            op = self.advance().value
            right = self.expect_name()
            self.expect_op(";")
            return SetOpAssign(name, left, op, right)
        raise self.error("expected SELECT, '{...}' or a vertex-set name")

    # -- SELECT blocks -----------------------------------------------------
    def parse_select(self, assign_to: Optional[str]) -> Statement:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        fragments: List[OutputFragment] = []
        select_var: Optional[str] = None
        set_aliases: List[Tuple[str, str]] = []  # (set name, variable)

        while True:
            columns = self.parse_output_columns()
            if self.accept_kw("INTO"):
                into_tok = self.peek()
                into = self.expect_name()
                fragment = OutputFragment(columns, into)
                fragment.span = Span.from_token(into_tok)
                fragments.append(fragment)
                if (
                    len(columns) == 1
                    and isinstance(columns[0].expr, NameRef)
                ):
                    # "SELECT DISTINCT o INTO Others" (Figure 3): the table
                    # is also usable as a vertex set in later FROM clauses.
                    set_aliases.append((into, columns[0].expr.name))
                if self.accept_op(";"):
                    continue
                break
            # No INTO: this must be the single-variable form.
            if len(columns) == 1 and isinstance(columns[0].expr, NameRef):
                select_var = columns[0].expr.name
                break
            raise self.error("multi-column SELECT needs INTO <table>")

        self.expect_kw("FROM")
        pattern = self.parse_pattern()
        semantics = None
        if self.accept_kw("USING"):
            # USING SEMANTICS 'no-repeated-edge': the per-block matching-
            # semantics override (Section 6.1's planned syntactic sugar).
            self.expect_kw("SEMANTICS")
            token = self.peek()
            if token.kind != "STRING":
                raise self.error("expected a semantics name string")
            self.advance()
            from repro.paths.semantics import PathSemantics

            try:
                semantics = PathSemantics(token.value)
            except ValueError:
                choices = ", ".join(s.value for s in PathSemantics)
                raise GSQLSyntaxError(
                    f"unknown semantics {token.value!r}; one of: {choices}",
                    token.line,
                    token.column,
                ) from None
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        accum: List[AccStatement] = []
        post_accum: List[AccStatement] = []
        if self.accept_kw("ACCUM"):
            accum = self.parse_acc_statements()
        if self.accept_kw("POST_ACCUM"):
            post_accum = self.parse_acc_statements()
        group_by: List[Expr] = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_kw("HAVING") else None
        order_by: List[Tuple[Expr, bool]] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                expr = self.parse_expr()
                desc = False
                if self.accept_kw("DESC"):
                    desc = True
                elif self.accept_kw("ASC"):
                    desc = False
                order_by.append((expr, desc))
                if not self.accept_op(","):
                    break
        limit = self.parse_expr() if self.accept_kw("LIMIT") else None

        if select_var is None and assign_to is not None and set_aliases:
            select_var = set_aliases[0][1]
        if select_var is None and set_aliases:
            select_var = set_aliases[0][1]

        block = SelectBlock(
            pattern=pattern,
            select_var=select_var,
            fragments=fragments,
            distinct=distinct,
            where=where,
            accum=accum,
            post_accum=post_accum,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            semantics=semantics,
        )
        statements: List[Statement] = [RunBlock(block, assign_to=assign_to)]
        for set_name, _ in set_aliases:
            if assign_to != set_name:
                statements.append(_AliasVertexSet(block, set_name))
        if len(statements) == 1:
            return statements[0]
        return _StatementGroup(statements)

    def parse_output_columns(self) -> List[OutputColumn]:
        columns: List[OutputColumn] = []
        while True:
            expr = self.parse_expr()
            alias = None
            if self.accept_kw("AS"):
                alias = self.expect_name()
            elif isinstance(expr, AttrRef):
                alias = expr.attr
            elif isinstance(expr, VertexAccumRef):
                alias = expr.name
            elif isinstance(expr, GlobalAccumRef):
                alias = expr.name
            elif isinstance(expr, NameRef):
                alias = expr.name
            columns.append(OutputColumn(expr, alias))
            if not self.accept_op(","):
                break
        return columns

    # -- patterns --------------------------------------------------------
    def parse_pattern(self) -> Pattern:
        chains = [self.parse_chain()]
        while self.accept_op(","):
            chains.append(self.parse_chain())
        return Pattern(chains)

    def parse_chain(self) -> Chain:
        source = self.parse_vertex_spec()
        hops: List[Hop] = []
        while self.peek().is_op("-") and self.peek(1).is_op("("):
            self.advance()  # '-'
            self.advance()  # '('
            darpe_start = self.peek()
            darpe_text, edge_var = self.parse_darpe_tokens()
            self.expect_op("-")
            target = self.parse_vertex_spec()
            compiled = CompiledDarpe(parse_darpe(darpe_text), darpe_text)
            hop = Hop(compiled, target, edge_var)
            hop.span = Span.between(darpe_start, self._prev())
            hops.append(hop)
        return Chain(source, hops)

    def parse_vertex_spec(self) -> VertexSpec:
        start = self.peek()
        name = self.expect_name()
        var = None
        if self.accept_op(":"):
            var = self.expect_name()
        spec = VertexSpec(name, var)
        spec.span = Span.between(start, self._prev())
        return spec

    def parse_darpe_tokens(self) -> Tuple[str, Optional[str]]:
        """Consume tokens up to the hop's closing ')' and slice the DARPE
        text verbatim from the source; a depth-0 ``:var`` names the edge."""
        depth = 0
        start_offset = self.peek().start
        end_offset = start_offset
        edge_var: Optional[str] = None
        while True:
            token = self.peek()
            if token.kind == "EOF":
                raise self.error("unterminated edge pattern")
            if token.is_op("(") :
                depth += 1
            elif token.is_op(")"):
                if depth == 0:
                    self.advance()
                    break
                depth -= 1
            elif token.is_op(":") and depth == 0:
                self.advance()
                edge_var = self.expect_name()
                continue
            end_offset = token.end
            self.advance()
        darpe_text = self.text[start_offset:end_offset]
        if not darpe_text.strip():
            raise self.error("empty edge pattern")
        return darpe_text, edge_var

    # -- ACCUM statements ---------------------------------------------------
    def parse_acc_statements(self) -> List[AccStatement]:
        statements = [self.parse_acc_statement()]
        while self.accept_op(","):
            statements.append(self.parse_acc_statement())
        return statements

    def parse_acc_statement(self) -> AccStatement:
        token = self.peek()
        # Control flow inside ACCUM/POST_ACCUM bodies.
        if token.is_keyword("IF"):
            return self.parse_acc_if()
        if token.is_keyword("FOREACH"):
            return self.parse_acc_foreach()
        # Typed local declaration: FLOAT salesPrice = ...
        if (
            token.kind == "NAME"
            and token.value.upper() in _SCALAR_TYPES
            and self.peek(1).kind == "NAME"
            and self.peek(2).is_op("=")
        ):
            type_name = self.advance().value
            name = self.expect_name()
            self.expect_op("=")
            return self._close(
                LocalAssign(name, self.parse_expr(), type_name), token
            )
        # Global accumulator target.
        if token.kind == "ATAT":
            self.advance()
            name_tok = self.peek()
            name = self.expect_name()
            op = self._expect_assign_op()
            stmt = AccumUpdate(AccumTarget(name), op, self.parse_expr())
            stmt.span = Span.between(token, name_tok)
            return stmt
        # Untyped local: name = expr (no '.' before '=').
        if token.kind == "NAME" and self.peek(1).is_op("="):
            name = self.advance().value
            self.expect_op("=")
            return self._close(LocalAssign(name, self.parse_expr()), token)
        # Vertex accumulator target: <postfix>.@name op expr.
        expr = self.parse_postfix()
        if isinstance(expr, VertexAccumRef) and not expr.primed:
            op = self._expect_assign_op()
            stmt = AccumUpdate(
                AccumTarget(expr.name, expr.base), op, self.parse_expr()
            )
            stmt.span = getattr(expr, "span", None)
            return self._close(stmt, token)
        if isinstance(expr, AttrRef) and self.accept_op("="):
            # v.attr = expr: attribute write-back (POST_ACCUM only).
            return self._close(
                AttributeUpdate(expr.base, expr.attr, self.parse_expr()), token
            )
        raise self.error("expected an accumulator or local-variable statement")

    def parse_acc_if(self) -> AccStatement:
        """IF cond THEN stmt, ... [ELSE stmt, ...] END inside an ACCUM or
        POST_ACCUM clause (branch bodies are comma-separated)."""
        start = self.expect_kw("IF")
        cond = self.parse_expr()
        self.expect_kw("THEN")
        then = self.parse_acc_statements()
        otherwise: List[AccStatement] = []
        if self.accept_kw("ELSE"):
            otherwise = self.parse_acc_statements()
        self.expect_kw("END")
        return self._close(AccumIf(cond, then, otherwise), start)

    def parse_acc_foreach(self) -> AccStatement:
        """FOREACH var IN expr DO stmt, ... END inside an ACCUM or
        POST_ACCUM clause."""
        start = self.expect_kw("FOREACH")
        var = self.expect_name()
        self.expect_kw("IN")
        collection = self.parse_expr()
        self.expect_kw("DO")
        body = self.parse_acc_statements()
        self.expect_kw("END")
        return self._close(AccumForeach(var, collection, body), start)

    # -- control flow -----------------------------------------------------
    def parse_while(self) -> Statement:
        self.expect_kw("WHILE")
        cond = self.parse_expr()
        limit = self.parse_expr() if self.accept_kw("LIMIT") else None
        self.expect_kw("DO")
        body = self.parse_statements(terminators=("END",))
        self.expect_kw("END")
        self.accept_op(";")
        return While(cond, body, limit)

    def parse_foreach(self) -> Statement:
        self.expect_kw("FOREACH")
        var = self.expect_name()
        self.expect_kw("IN")
        collection = self.parse_expr()
        self.expect_kw("DO")
        body = self.parse_statements(terminators=("END",))
        self.expect_kw("END")
        self.accept_op(";")
        return Foreach(var, collection, body)

    def parse_if(self) -> Statement:
        self.expect_kw("IF")
        cond = self.parse_expr()
        self.expect_kw("THEN")
        then = self.parse_statements(terminators=("ELSE", "END"))
        otherwise: List[Statement] = []
        if self.accept_kw("ELSE"):
            otherwise = self.parse_statements(terminators=("END",))
        self.expect_kw("END")
        self.accept_op(";")
        return If(cond, then, otherwise)

    # -- PRINT ----------------------------------------------------------
    def parse_print(self) -> Statement:
        self.expect_kw("PRINT")
        items: List[Any] = []
        while True:
            token = self.peek()
            if token.kind == "NAME" and self.peek(1).is_op("["):
                set_name = self.advance().value
                self.advance()  # '['
                columns: List[PrintItem] = []
                while True:
                    expr = self.parse_expr()
                    alias = None
                    if self.accept_kw("AS"):
                        alias = self.expect_name()
                    else:
                        alias = _derive_alias(expr)
                    columns.append(PrintItem(expr, alias))
                    if not self.accept_op(","):
                        break
                self.expect_op("]")
                items.append(PrintSetProjection(set_name, columns))
            else:
                expr = self.parse_expr()
                if self.accept_kw("AS"):
                    alias = self.expect_name()
                else:
                    alias = _derive_alias(expr)
                items.append(PrintItem(expr, alias))
            if not self.accept_op(","):
                break
        return Print(items)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        start = self.peek()
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = self._spanned(Binary("OR", left, self.parse_and()), start)
        return left

    def parse_and(self) -> Expr:
        start = self.peek()
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = self._spanned(Binary("AND", left, self.parse_not()), start)
        return left

    def parse_not(self) -> Expr:
        start = self.peek()
        if self.accept_kw("NOT"):
            if self.peek().is_keyword("IN"):
                raise self.error("NOT IN must follow an expression")
            return self._spanned(Unary("NOT", self.parse_not()), start)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        start = self.peek()
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "OP" and token.value in ("==", "=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "==" if token.value == "=" else token.value
            return self._spanned(Binary(op, left, self.parse_additive()), start)
        if token.is_keyword("IN"):
            self.advance()
            return self._spanned(Binary("IN", left, self.parse_additive()), start)
        if token.is_keyword("NOT") and self.peek(1).is_keyword("IN"):
            self.advance()
            self.advance()
            return self._spanned(
                Binary("NOT IN", left, self.parse_additive()), start
            )
        return left

    def parse_additive(self) -> Expr:
        start = self.peek()
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.is_op("+") or token.is_op("-"):
                self.advance()
                left = self._spanned(
                    Binary(token.value, left, self.parse_multiplicative()), start
                )
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        start = self.peek()
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value in ("*", "/", "%"):
                self.advance()
                left = self._spanned(
                    Binary(token.value, left, self.parse_unary()), start
                )
            else:
                return left

    def parse_unary(self) -> Expr:
        token = self.peek()
        if token.is_op("-") or token.is_op("+"):
            self.advance()
            return self._spanned(Unary(token.value, self.parse_unary()), token)
        return self.parse_postfix()

    def _spanned(self, expr: Expr, start: Token) -> Expr:
        """Stamp a freshly built expression node with the span from
        ``start`` through the last consumed token."""
        expr.span = Span.between(start, self._prev())
        return expr

    def parse_postfix(self) -> Expr:
        start = self.peek()
        expr = self.parse_primary()
        while self.accept_op("."):
            if self.peek().kind == "AT":
                self.advance()
                name = self.expect_name()
                primed = False
                if self.peek().kind == "PRIME":
                    self.advance()
                    primed = True
                expr = self._spanned(VertexAccumRef(expr, name, primed), start)
                continue
            member = self.expect_name()
            if self.accept_op("("):
                args = self.parse_call_args()
                expr = self._spanned(Method(expr, member, args), start)
            else:
                expr = self._spanned(AttrRef(expr, member), start)
        return expr

    def parse_call_args(self) -> List[Expr]:
        args: List[Expr] = []
        if self.accept_op(")"):
            return args
        while True:
            args.append(self.parse_expr())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return args

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return self._spanned(Literal(_number(token.value)), token)
        if token.kind == "STRING":
            self.advance()
            return self._spanned(Literal(token.value), token)
        if token.is_keyword("TRUE"):
            self.advance()
            return self._spanned(Literal(True), token)
        if token.is_keyword("FALSE"):
            self.advance()
            return self._spanned(Literal(False), token)
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.kind == "ATAT":
            self.advance()
            name = self.expect_name()
            primed = False
            if self.peek().kind == "PRIME":
                self.advance()
                primed = True
            return self._spanned(GlobalAccumRef(name, primed), token)
        if token.kind == "NAME":
            if self.peek(1).is_op("("):
                return self.parse_call_or_aggregate()
            self.advance()
            return self._spanned(NameRef(token.value), token)
        if token.is_op("("):
            return self.parse_parenthesized()
        raise self.error("expected an expression")

    def parse_call_or_aggregate(self) -> Expr:
        start = self.peek()
        name = self.expect_name()
        self.expect_op("(")
        lower = name.lower()
        if lower == "count" and self.accept_op("*"):
            self.expect_op(")")
            return self._spanned(AggCall("count", None), start)
        distinct = False
        if self.peek().is_keyword("DISTINCT"):
            self.advance()
            distinct = True
        args: List[Expr] = []
        if not self.accept_op(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        if lower in ("count", "sum", "avg") and len(args) == 1:
            return self._spanned(AggCall(lower, args[0], distinct), start)
        if lower in ("min", "max") and len(args) == 1:
            return self._spanned(AggCall(lower, args[0], distinct), start)
        if distinct:
            raise self.error("DISTINCT is only valid inside aggregates")
        return self._spanned(Call(name, args), start)

    def parse_parenthesized(self) -> Expr:
        start = self.expect_op("(")
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        if self.accept_op("->"):
            values = [self.parse_expr()]
            while self.accept_op(","):
                values.append(self.parse_expr())
            self.expect_op(")")
            return self._spanned(ArrowExpr(exprs, values), start)
        self.expect_op(")")
        if len(exprs) == 1:
            return exprs[0]
        return self._spanned(TupleExpr(exprs), start)

    def parse_case(self) -> Expr:
        start = self.expect_kw("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            whens.append((cond, self.parse_expr()))
        default = self.parse_expr() if self.accept_kw("ELSE") else None
        self.expect_kw("END")
        if not whens:
            raise self.error("CASE needs at least one WHEN branch")
        return self._spanned(CaseExpr(whens, default), start)


class _StatementGroup(Statement):
    """Several statements produced by one source statement (e.g. a
    declaration list ``SumAccum<float> @a, @b, @@c``)."""

    def __init__(self, statements: List[Statement]):
        self.statements = statements

    def execute(self, ctx, mode) -> None:
        for stmt in self.statements:
            stmt.execute(ctx, mode)


class _AliasVertexSet(Statement):
    """Expose a block's vertex-set result under its INTO name (Figure 3's
    OthersWithCommonLikes is both a table and a FROM source)."""

    def __init__(self, block: SelectBlock, name: str):
        self.block = block
        self.name = name

    def execute(self, ctx, mode) -> None:
        # The block already ran (RunBlock precedes this in the group); we
        # rebuild the set from its table, whose single column holds vertices.
        table = ctx.table(self.name)
        from repro.core.values import VertexSet

        vset = VertexSet(ctx.graph)
        for row in table:
            vset.add(row[0])
        ctx.set_vertex_set(self.name, vset)


def _derive_alias(expr: Expr) -> Optional[str]:
    if isinstance(expr, AttrRef):
        return expr.attr
    if isinstance(expr, (VertexAccumRef, GlobalAccumRef)):
        return expr.name
    if isinstance(expr, NameRef):
        return expr.name
    return None


def _number(text: str) -> Any:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _element_type(args: List[Any], default: type) -> type:
    if not args:
        return default
    kind = args[0]
    if kind[0] != "scalar":
        raise QueryCompileError("expected a scalar element type")
    return _PY_ELEMENT_TYPES.get(kind[1].upper(), default)


def _nested_factory(args: List[Any]) -> Optional[Callable]:
    for arg in args:
        if arg[0] == "accum":
            return arg[1]
    return None


def _map_value_factory(arg: Any) -> Callable:
    if arg[0] == "accum":
        return arg[1]
    scalar = arg[1].upper() if arg[0] in ("scalar", "keyed") else "FLOAT"
    element = _PY_ELEMENT_TYPES.get(scalar, float)
    if element is str:
        return lambda: SumAccum(element_type=str)
    if element is bool:
        return OrAccum
    return lambda: SumAccum(element_type=element)


def parse_query(text: str) -> Query:
    """Parse GSQL text containing exactly one ``CREATE QUERY``."""
    queries = _Parser(text).parse_queries()
    if len(queries) != 1:
        raise QueryCompileError(
            f"expected one query, found {len(queries)}; use parse_queries"
        )
    return queries[0]


def parse_queries(text: str) -> Dict[str, Query]:
    """Parse GSQL text containing any number of ``CREATE QUERY``
    declarations; returns them by name."""
    return {q.name: q for q in _Parser(text).parse_queries()}


__all__ = ["parse_query", "parse_queries"]
