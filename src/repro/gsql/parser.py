"""Parser + compiler for the GSQL subset.

Parses ``CREATE QUERY`` declarations and compiles them directly to
:class:`repro.core.Query` objects.  The subset covers every query the
paper shows: Figures 1-4, the Qn path-counting family, the Appendix B
grouping queries, TYPEDEF TUPLE + HeapAccum declarations, multi-output
SELECT, WHILE/IF control flow, PRINT and RETURN.

Token tests read the lexer's tuples by index; expressions are parsed by
precedence climbing over :data:`_BINARY`; spans come from token offsets.
Each query is stamped with the certificates execution reads, not the
cost certificate (``docs/compilation.md``, "The front end").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import _exec
from ..accum import (
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
from ..darpe.automaton import CompiledDarpe
from ..darpe.parser import parse_darpe
from ..errors import (
    AccumulatorError,
    DarpeSyntaxError,
    GSQLSyntaxError,
    QueryCompileError,
)
from ..core.acctypes import AccumTypeInfo
from ..core.block import OutputColumn, OutputFragment, SelectBlock
from ..core.context import GLOBAL, VERTEX
from ..core.span import Span
from ..core.exprs import (
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
from ..core.pattern import Chain, Hop, Pattern, VertexSpec
from ..core.query import (
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
from ..core.stmts import (
    AccStatement,
    AccumForeach,
    AccumIf,
    AccumTarget,
    AccumUpdate,
    AttributeUpdate,
    LocalAssign,
)
from ..core.tractable import (
    attach_certificates,
    attach_effect_certificates,
    attach_governor_caps,
)
from .lexer import KEYWORDS, Token, lex

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

#: Accumulator types whose class is their zero-argument factory.
_PLAIN_ACCUMS = {
    cls.__name__: cls
    for cls in (MinAccum, MaxAccum, AvgAccum, OrAccum, AndAccum, SetAccum,
                BagAccum, ListAccum)
}

#: Binary operators by token kind: (precedence, AST operator).  A higher
#: precedence binds tighter.  Prefix NOT sits at :data:`_NOT`, between
#: AND and the comparisons, and prefix +/- at :data:`_UNARY`, above ``*``.
#: Comparisons (``NOT IN`` included) do not chain.
_BINARY = {
    "OR": (1, "OR"),
    "AND": (2, "AND"),
    "==": (4, "=="), "=": (4, "=="), "!=": (4, "!="), "<>": (4, "<>"),
    "<": (4, "<"), "<=": (4, "<="), ">": (4, ">"), ">=": (4, ">="),
    "IN": (4, "IN"),
    "+": (5, "+"), "-": (5, "-"),
    "*": (6, "*"), "/": (6, "/"), "%": (6, "%"),
}
_NOT, _COMPARISON, _UNARY = 3, 4, 7
_NOT_IN = (_COMPARISON, "NOT IN")

#: The furthest any rule looks past the current token.
_LOOKAHEAD = 2

#: ``Span`` built from a ready tuple, without the named-tuple constructor.
_new_tuple = tuple.__new__

#: Compiled DARPEs by text (see :func:`_compiled_darpe`).
_DARPES: Dict[str, CompiledDarpe] = {}
_DARPES_LIMIT = 256


def _compiled_darpe(text: str) -> CompiledDarpe:
    # One CompiledDarpe per distinct DARPE text: it is immutable, and
    # every evaluation takes its own LazyDFA from it, so hops of any
    # query may share one.  Dropped whole when full.
    compiled = _DARPES.get(text)
    if compiled is None:
        if len(_DARPES) >= _DARPES_LIMIT:
            _DARPES.clear()
        compiled = _DARPES[text] = CompiledDarpe(parse_darpe(text), text)
    return compiled


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.lines = lex(text)
        self.starts = self.lines.starts()
        # Nothing consumes EOF, so this many more EOFs behind it let any
        # rule index ahead without a bounds check.
        self.tokens.extend(self.tokens[-1:] * _LOOKAHEAD)
        self.i = 0
        self.tuple_types: Dict[str, TupleType] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def error(self, message: str, token: Optional[Token] = None) -> GSQLSyntaxError:
        token = token or self.tokens[self.i]
        return GSQLSyntaxError(
            f"{message} (found {token[1]!r})", *self.lines.position(token[2])
        )

    def expect(self, kind: str) -> Token:
        token = self.tokens[self.i]
        if token[0] != kind:
            what = "an identifier" if kind == "NAME" else (
                kind if kind in KEYWORDS else repr(kind)
            )
            raise self.error(f"expected {what}")
        self.i += 1
        return token

    def _comma_list(self, parse_one: Callable[[], Any]) -> List[Any]:
        # One or more items, comma-separated.
        items = [parse_one()]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            items.append(parse_one())
        return items

    def _span(self, first: Token, last: Token) -> Span:
        """The span from the start of ``first`` to the end of ``last``
        (consumed tokens, so never the empty EOF)."""
        starts = self.starts
        start, end = first[2], last[3]
        line = bisect_right(starts, start)
        column = start - starts[line - 1] + 1
        if last is first:
            return _new_tuple(Span, (
                line, column, line, column + end - start, start, end,
            ))
        last_start = last[2]
        end_line = bisect_right(starts, last_start)
        end_column = end - starts[end_line - 1] + 1
        return _new_tuple(Span, (
            line, column, end_line, end_column, start, end,
        ))

    def _spanned(self, node: Any, first: Token) -> Any:
        """Stamp ``node`` with the span from ``first`` through the last
        consumed token."""
        node.span = self._span(first, self.tokens[self.i - 1])
        return node

    def _close(self, node: Any, first: Token) -> Any:
        # _spanned, unless a more precise span was already set.
        if getattr(node, "span", None) is None:
            node.span = self._span(first, self.tokens[self.i - 1])
        return node

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_queries(self) -> List[Query]:
        queries = []
        try:
            while self.tokens[self.i][0] != "EOF":
                queries.append(self.parse_query_decl())
        except RecursionError:
            raise self.error("expression nested too deeply") from None
        if not queries:
            raise GSQLSyntaxError("no CREATE QUERY found", 1, 1)
        for query in queries:
            query.source = self.text
        return queries

    def parse_query_decl(self) -> Query:
        self.expect("CREATE")
        self.expect("QUERY")
        name = self.expect("NAME")[1]
        self.expect("(")
        params = self.parse_params()
        self.expect(")")
        graph_name = None
        if self.tokens[self.i][0] == "FOR":
            self.i += 1
            self.expect("GRAPH")
            graph_name = self.expect("NAME")[1]
        self.expect("{")
        statements = self.parse_statements(("}",))
        self.expect("}")
        return Query(name, statements, params, graph_name)

    def parse_params(self) -> List[Parameter]:
        if self.tokens[self.i][0] == ")":
            return []
        return self._comma_list(self.parse_param)

    def parse_param(self) -> Parameter:
        type_name = self.parse_param_type()
        name = self.expect("NAME")[1]
        if self.tokens[self.i][0] != "=":
            return Parameter(name, type_name, None)
        self.i += 1
        return Parameter(name, type_name, self.parse_literal_value())

    def parse_param_type(self) -> str:
        if self.tokens[self.i][0] != "NAME":
            raise self.error("expected a parameter type")
        type_name = self.expect("NAME")[1]
        if type_name.upper() == "VERTEX" and self.tokens[self.i][0] == "<":
            self.i += 1
            inner = self.expect("NAME")[1]
            self.expect(">")
            return f"vertex<{inner}>"
        return type_name

    def parse_literal_value(self) -> Any:
        tokens = self.tokens
        kind, value = tokens[self.i][:2]
        if kind == "NUMBER" or kind == "STRING":
            self.i += 1
            return self._number(tokens[self.i - 1]) if kind == "NUMBER" else value
        if kind == "TRUE" or kind == "FALSE":
            self.i += 1
            return kind == "TRUE"
        if kind == "-" and tokens[self.i + 1][0] == "NUMBER":
            self.i += 2
            return -self._number(tokens[self.i - 1])
        raise self.error("expected a literal default value")

    def _integer(self) -> int:
        # Consume the current NUMBER token, which must spell an integer.
        token = self.tokens[self.i]
        if not token[1].isdigit():
            raise self.error("expected an integer")
        self.i += 1
        return self._number(token)

    def _number(self, token: Token) -> Any:
        # The value of a NUMBER token; int() refuses over 4300 digits.
        text = token[1]
        try:
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        except ValueError:
            raise GSQLSyntaxError(
                f"a number literal of {len(text)} digits is too long",
                *self.lines.position(token[2]),
            ) from None

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statements(self, terminators: Sequence[str]) -> List[Statement]:
        statements: List[Statement] = []
        tokens = self.tokens
        while True:
            token = tokens[self.i]
            if token[0] == "EOF" or token[0] in terminators:
                return statements
            stmt = self.parse_statement()
            if stmt is not None:
                self._close(stmt, token)
                if isinstance(stmt, _StatementGroup):
                    for member in stmt.statements:
                        self._close(member, token)
                statements.append(stmt)

    def parse_statement(self) -> Optional[Statement]:
        tokens = self.tokens
        token = tokens[self.i]
        kind = token[0]
        if kind == "TYPEDEF":
            self.parse_typedef()
            return None
        if kind == "WHILE":
            return self.parse_while()
        if kind == "FOREACH":
            return self.parse_foreach()
        if kind == "IF":
            return self.parse_if()
        if kind == "@@":
            stmt = self._global_update(GlobalAccumUpdate)
        elif kind == "PRINT":
            stmt = self.parse_print()
        elif kind == "RETURN":
            self.i += 1
            stmt = Return(self.parse_expr())
        elif kind == "SELECT":
            stmt = self.parse_select(assign_to=None)
        elif kind == "NAME" and (
            tokens[self.i + 1][0] in ("<", "@", "@@")
            or (tokens[self.i + 1][0] == "(" and token[1].endswith("Accum"))
        ):
            stmt = self.parse_accum_decl()
        elif kind == "NAME" and tokens[self.i + 1][0] == "=":
            return self.parse_assignment()
        else:
            raise self.error("expected a statement")
        self.expect(";")
        return stmt

    def _global_update(self, make: Callable[[str, str, Expr], Any]) -> Any:
        # ``@@name (= | +=) expr`` as ``make(name, op, expr)``, spanned
        # over ``@@name``.
        start = self.expect("@@")
        name_tok = self.expect("NAME")
        op = self._expect_assign_op()
        stmt = make(name_tok[1], op, self.parse_expr())
        stmt.span = self._span(start, name_tok)
        return stmt

    def _expect_assign_op(self) -> str:
        kind = self.tokens[self.i][0]
        if kind == "=" or kind == "+=":
            self.i += 1
            return kind
        raise self.error("expected = or +=")

    def _block_end(self) -> None:
        # END, optionally followed by ';'.
        self.expect("END")
        if self.tokens[self.i][0] == ";":
            self.i += 1

    def _optional_expr(self, kind: str) -> Optional[Expr]:
        # The expression after a ``kind`` token, if one comes next.
        if self.tokens[self.i][0] != kind:
            return None
        self.i += 1
        return self.parse_expr()

    # -- TYPEDEF TUPLE --------------------------------------------------
    def parse_typedef(self) -> None:
        self.expect("TYPEDEF")
        self.expect("TUPLE")
        self.expect("<")
        fields = self._comma_list(self._tuple_field)
        self.expect(">")
        name = self.expect("NAME")[1]
        self.expect(";")
        self.tuple_types[name] = TupleType(name, fields)

    def _tuple_field(self) -> Tuple[str, str]:
        # ``TYPE name``, as (name, type).
        ftype = self.expect("NAME")[1]
        return self.expect("NAME")[1], ftype

    # -- accumulator declarations -----------------------------------------
    def parse_accum_decl(self) -> Statement:
        factory, type_info = self.parse_accum_type()
        decls = self._comma_list(lambda: self._declarator(factory, type_info))
        if len(decls) == 1:
            return decls[0]
        return _StatementGroup(decls)

    def _declarator(self, factory: Callable, type_info: AccumTypeInfo) -> DeclareAccum:
        token = self.tokens[self.i]
        if token[0] == "@@":
            scope = GLOBAL
        elif token[0] == "@":
            scope = VERTEX
        else:
            raise self.error("expected @name or @@name")
        self.i += 1
        name_tok = self.expect("NAME")
        initial = self._optional_expr("=")
        decl = DeclareAccum(name_tok[1], scope, factory, initial, type_info)
        decl.span = self._span(token, name_tok)
        return decl

    def parse_accum_type(self) -> Tuple[Callable, AccumTypeInfo]:
        """Parse an accumulator type expression into an instance factory
        plus the declared-type descriptor the analyzer consumes."""
        name = self.expect("NAME")[1]
        tokens = self.tokens
        args: List[Any] = []
        if tokens[self.i][0] == "<":
            self.i += 1
            args = self._comma_list(self.parse_type_arg)
            self.expect(">")
        ctor_args: List[Any] = []
        if name == "HeapAccum":
            ctor_args = self.parse_heap_args()
        elif tokens[self.i][0] == "(" and name == "ArrayAccum":
            self.i += 1
            if tokens[self.i][0] != "NUMBER":
                raise self.error("ArrayAccum size must be a number literal")
            ctor_args = [self._integer()]
            self.expect(")")
        factory = self._build_factory(name, args, ctor_args)
        return factory, self._type_info(name, args)

    def parse_type_arg(self) -> Any:
        """One generic argument: a nested accumulator type, or a scalar
        type optionally followed by a key name (GroupByAccum keys)."""
        token = self.tokens[self.i]
        if token[0] != "NAME":
            raise self.error("expected a type name")
        if token[1].endswith("Accum"):
            factory, info = self.parse_accum_type()
            return ("accum", factory, info)
        self.i += 1
        if self.tokens[self.i][0] == "NAME":
            self.i += 1
            return ("keyed", token[1], self.tokens[self.i - 1][1])
        return ("scalar", token[1])

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
        self.expect("(")
        tokens = self.tokens
        capacity: Any
        if tokens[self.i][0] == "NAME":
            self.i += 1
            capacity = NameRef(tokens[self.i - 1][1])  # a query parameter
        elif tokens[self.i][0] == "NUMBER":
            capacity = self._integer()
        else:
            raise self.error("expected HeapAccum capacity")
        sort_spec: List[Tuple[str, str]] = []
        while tokens[self.i][0] == ",":
            self.i += 1
            field = self.expect("NAME")[1]
            order = tokens[self.i][0]
            if order == "ASC" or order == "DESC":
                self.i += 1
            else:
                order = "ASC"
            sort_spec.append((field, order))
        self.expect(")")
        return [capacity, sort_spec]

    def _build_factory(
        self, name: str, args: List[Any], ctor_args: List[Any]
    ) -> Callable:
        """Compile a parsed accumulator type to a zero-arg factory."""
        if name == "SumAccum":
            element = _element_type(args, default=float)
            return lambda: SumAccum(element_type=element)
        if name in _PLAIN_ACCUMS:
            return _PLAIN_ACCUMS[name]
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
        return lookup_accumulator(name)

    # -- assignments (vertex sets, select-assign) ------------------------
    def parse_assignment(self) -> Statement:
        name = self.expect("NAME")[1]
        self.expect("=")
        tokens = self.tokens
        token = tokens[self.i]
        if token[0] == "SELECT":
            stmt = self.parse_select(assign_to=name)
            self.expect(";")
            return stmt
        if token[0] == "{":
            self.i += 1
            items = self._comma_list(self._set_item)
            self.expect("}")
            self.expect(";")
            return SetAssign(name, items)
        follow = tokens[self.i + 1][0]
        if token[0] == "NAME" and follow == ";":
            self.i += 2
            return SetAssign(name, token[1])
        if token[0] == "NAME" and follow in SetOpAssign.OPS:
            self.i += 2
            right = self.expect("NAME")[1]
            self.expect(";")
            return SetOpAssign(name, token[1], follow, right)
        raise self.error("expected SELECT, '{...}' or a vertex-set name")

    def _set_item(self) -> str:
        # ``Name`` or ``Type.*`` inside a vertex-set literal.
        item = self.expect("NAME")[1]
        if self.tokens[self.i][0] != ".":
            return item
        self.i += 1
        self.expect("*")
        return item + ".*"

    # -- SELECT blocks -----------------------------------------------------
    def parse_select(self, assign_to: Optional[str]) -> Statement:
        self.expect("SELECT")
        tokens = self.tokens
        distinct = tokens[self.i][0] == "DISTINCT"
        self.i += distinct
        fragments: List[OutputFragment] = []
        select_var: Optional[str] = None
        set_aliases: List[Tuple[str, str]] = []  # (set name, variable)

        while True:
            columns = self._comma_list(lambda: OutputColumn(*self._aliased_expr()))
            lone_name = len(columns) == 1 and isinstance(columns[0].expr, NameRef)
            if tokens[self.i][0] == "INTO":
                self.i += 1
                into_tok = self.expect("NAME")
                fragment = OutputFragment(columns, into_tok[1])
                fragment.span = self._span(into_tok, into_tok)
                fragments.append(fragment)
                if lone_name:
                    # "SELECT DISTINCT o INTO Others" (Figure 3): the table
                    # is also usable as a vertex set in later FROM clauses.
                    set_aliases.append((into_tok[1], columns[0].expr.name))
                if tokens[self.i][0] == ";":
                    self.i += 1
                    continue
                break
            # No INTO: this must be the single-variable form.
            if lone_name:
                select_var = columns[0].expr.name
                break
            raise self.error("multi-column SELECT needs INTO <table>")

        self.expect("FROM")
        pattern = self.parse_pattern()
        semantics = None
        if tokens[self.i][0] == "USING":
            # USING SEMANTICS 'no-repeated-edge': the per-block matching-
            # semantics override (Section 6.1's planned syntactic sugar).
            self.i += 1
            self.expect("SEMANTICS")
            token = tokens[self.i]
            if token[0] != "STRING":
                raise self.error("expected a semantics name string")
            self.i += 1
            from ..paths.semantics import PathSemantics

            try:
                semantics = PathSemantics(token[1])
            except ValueError:
                choices = ", ".join(s.value for s in PathSemantics)
                raise GSQLSyntaxError(
                    f"unknown semantics {token[1]!r}; one of: {choices}",
                    *self.lines.position(token[2]),
                ) from None
        where = self._optional_expr("WHERE")
        accum: List[AccStatement] = []
        post_accum: List[AccStatement] = []
        if tokens[self.i][0] == "ACCUM":
            self.i += 1
            accum = self._comma_list(self.parse_acc_statement)
        if tokens[self.i][0] == "POST_ACCUM":
            self.i += 1
            post_accum = self._comma_list(self.parse_acc_statement)
        group_by: List[Expr] = []
        if tokens[self.i][0] == "GROUP":
            self.i += 1
            self.expect("BY")
            group_by = self._comma_list(self.parse_expr)
        having = self._optional_expr("HAVING")
        order_by: List[Tuple[Expr, bool]] = []
        if tokens[self.i][0] == "ORDER":
            self.i += 1
            self.expect("BY")
            order_by = self._comma_list(self._order_key)
        limit = self._optional_expr("LIMIT")

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

    def _order_key(self) -> Tuple[Expr, bool]:
        # ``expr [ASC|DESC]`` and whether it is descending.
        expr = self.parse_expr()
        desc = self.tokens[self.i][0] == "DESC"
        if desc or self.tokens[self.i][0] == "ASC":
            self.i += 1
        return expr, desc

    def _aliased_expr(self) -> Tuple[Expr, Optional[str]]:
        # ``expr [AS name]`` and its alias (derived when not given).
        expr = self.parse_expr()
        if self.tokens[self.i][0] == "AS":
            self.i += 1
            return expr, self.expect("NAME")[1]
        return expr, _derive_alias(expr)

    # -- patterns --------------------------------------------------------
    def parse_pattern(self) -> Pattern:
        return Pattern(self._comma_list(self.parse_chain))

    def parse_chain(self) -> Chain:
        source = self.parse_vertex_spec()
        hops: List[Hop] = []
        tokens = self.tokens
        while tokens[self.i][0] == "-" and tokens[self.i + 1][0] == "(":
            self.i += 2
            darpe_start = tokens[self.i]
            darpe_text, edge_var = self.parse_darpe_tokens()
            self.expect("-")
            target = self.parse_vertex_spec()
            try:
                compiled = _compiled_darpe(darpe_text)
            except DarpeSyntaxError as exc:
                reason = str(exc).split("\n", 1)[0]
                offset = darpe_start[2] + max(exc.position, 0)
                raise GSQLSyntaxError(
                    f"bad edge pattern {darpe_text!r}: {reason}",
                    *self.lines.position(offset),
                ) from None
            hops.append(self._spanned(Hop(compiled, target, edge_var), darpe_start))
        return Chain(source, hops)

    def parse_vertex_spec(self) -> VertexSpec:
        start = self.tokens[self.i]
        name = self.expect("NAME")[1]
        var = None
        if self.tokens[self.i][0] == ":":
            self.i += 1
            var = self.expect("NAME")[1]
        return self._spanned(VertexSpec(name, var), start)

    def parse_darpe_tokens(self) -> Tuple[str, Optional[str]]:
        """Consume tokens up to the hop's closing ')' and slice the DARPE
        text verbatim from the source; a depth-0 ``:var`` names the edge."""
        tokens = self.tokens
        depth = 0
        start_offset = end_offset = tokens[self.i][2]
        edge_var: Optional[str] = None
        while True:
            token = tokens[self.i]
            kind = token[0]
            if kind == "EOF":
                raise self.error("unterminated edge pattern")
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    self.i += 1
                    break
                depth -= 1
            elif kind == ":" and depth == 0:
                self.i += 1
                edge_var = self.expect("NAME")[1]
                continue
            end_offset = token[3]
            self.i += 1
        darpe_text = self.text[start_offset:end_offset]
        if not darpe_text.strip():
            raise self.error("empty edge pattern")
        return darpe_text, edge_var

    # -- ACCUM statements ---------------------------------------------------
    def parse_acc_statement(self) -> AccStatement:
        tokens = self.tokens
        token = tokens[self.i]
        kind = token[0]
        # Control flow inside ACCUM/POST_ACCUM bodies.
        if kind == "IF":
            return self.parse_acc_if()
        if kind == "FOREACH":
            return self.parse_acc_foreach()
        if kind == "NAME":
            follow = tokens[self.i + 1][0]
            # Typed local declaration: FLOAT salesPrice = ...
            if (
                token[1].upper() in _SCALAR_TYPES
                and follow == "NAME"
                and tokens[self.i + 2][0] == "="
            ):
                self.i += 3
                name = tokens[self.i - 2][1]
                return self._close(
                    LocalAssign(name, self.parse_expr(), token[1]), token
                )
            # Untyped local: name = expr (no '.' before '=').
            if follow == "=":
                self.i += 2
                return self._close(LocalAssign(token[1], self.parse_expr()), token)
        # Global accumulator target.
        if kind == "@@":
            return self._global_update(
                lambda name, op, expr: AccumUpdate(AccumTarget(name), op, expr)
            )
        # Vertex accumulator target: <postfix>.@name op expr.
        expr = self.parse_postfix()
        if isinstance(expr, VertexAccumRef) and not expr.primed:
            op = self._expect_assign_op()
            stmt = AccumUpdate(
                AccumTarget(expr.name, expr.base), op, self.parse_expr()
            )
            stmt.span = expr.span
            return stmt
        if isinstance(expr, AttrRef) and tokens[self.i][0] == "=":
            # v.attr = expr: attribute write-back (POST_ACCUM only).
            self.i += 1
            return self._close(
                AttributeUpdate(expr.base, expr.attr, self.parse_expr()), token
            )
        raise self.error("expected an accumulator or local-variable statement")

    def parse_acc_if(self) -> AccStatement:
        """IF cond THEN stmt, ... [ELSE stmt, ...] END inside an ACCUM or
        POST_ACCUM clause (branch bodies are comma-separated)."""
        start = self.expect("IF")
        cond = self.parse_expr()
        self.expect("THEN")
        then = self._comma_list(self.parse_acc_statement)
        otherwise: List[AccStatement] = []
        if self.tokens[self.i][0] == "ELSE":
            self.i += 1
            otherwise = self._comma_list(self.parse_acc_statement)
        self.expect("END")
        return self._close(AccumIf(cond, then, otherwise), start)

    def parse_acc_foreach(self) -> AccStatement:
        """FOREACH var IN expr DO stmt, ... END inside an ACCUM or
        POST_ACCUM clause."""
        start = self.expect("FOREACH")
        var = self.expect("NAME")[1]
        self.expect("IN")
        collection = self.parse_expr()
        self.expect("DO")
        body = self._comma_list(self.parse_acc_statement)
        self.expect("END")
        return self._close(AccumForeach(var, collection, body), start)

    # -- control flow -----------------------------------------------------
    def parse_while(self) -> Statement:
        self.expect("WHILE")
        cond = self.parse_expr()
        limit = self._optional_expr("LIMIT")
        self.expect("DO")
        body = self.parse_statements(("END",))
        self._block_end()
        return While(cond, body, limit)

    def parse_foreach(self) -> Statement:
        self.expect("FOREACH")
        var = self.expect("NAME")[1]
        self.expect("IN")
        collection = self.parse_expr()
        self.expect("DO")
        body = self.parse_statements(("END",))
        self._block_end()
        return Foreach(var, collection, body)

    def parse_if(self) -> Statement:
        self.expect("IF")
        cond = self.parse_expr()
        self.expect("THEN")
        then = self.parse_statements(("ELSE", "END"))
        otherwise: List[Statement] = []
        if self.tokens[self.i][0] == "ELSE":
            self.i += 1
            otherwise = self.parse_statements(("END",))
        self._block_end()
        return If(cond, then, otherwise)

    # -- PRINT ----------------------------------------------------------
    def parse_print(self) -> Statement:
        self.expect("PRINT")
        return Print(self._comma_list(self._print_item))

    def _print_item(self) -> Any:
        # ``expr [AS name]``, or a projection ``Set[expr [AS name], ...]``.
        token = self.tokens[self.i]
        if token[0] != "NAME" or self.tokens[self.i + 1][0] != "[":
            return PrintItem(*self._aliased_expr())
        self.i += 2
        columns = self._comma_list(lambda: PrintItem(*self._aliased_expr()))
        self.expect("]")
        return PrintSetProjection(token[1], columns)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expr(self, floor: int = 1) -> Expr:
        """An operand, then every binary operator of precedence at least
        ``floor``, left-associative; a right operand takes operators that
        bind tighter than its own."""
        tokens = self.tokens
        first = tokens[self.i]
        kind = first[0]
        if kind == "NOT" and floor <= _NOT:
            self.i += 1
            if tokens[self.i][0] == "IN":
                raise self.error("NOT IN must follow an expression")
            left = self._spanned(Unary("NOT", self.parse_expr(_NOT)), first)
            ceiling = _NOT  # only AND and OR may follow it
        elif kind == "-" or kind == "+":
            self.i += 1
            left = self._spanned(Unary(kind, self.parse_expr(_UNARY)), first)
            ceiling = _UNARY
        else:
            left = self.parse_postfix()
            ceiling = _UNARY
        while True:
            kind = tokens[self.i][0]
            entry = _BINARY.get(kind)
            width = 1
            if entry is None:
                if kind != "NOT" or tokens[self.i + 1][0] != "IN":
                    return left
                entry, width = _NOT_IN, 2
            precedence, op = entry
            if precedence < floor or precedence >= ceiling:
                return left
            self.i += width
            left = self._spanned(
                Binary(op, left, self.parse_expr(precedence + 1)), first
            )
            # What binds tighter went into the right operand, so only looser
            # operators may follow (and no second comparison: not chained).
            ceiling = precedence + (precedence != _COMPARISON)

    def parse_postfix(self) -> Expr:
        tokens = self.tokens
        first = tokens[self.i]
        expr = self.parse_primary()
        while tokens[self.i][0] == ".":
            self.i += 1
            if tokens[self.i][0] == "@":
                self.i += 1
                name = self.expect("NAME")[1]
                primed = tokens[self.i][0] == "'"
                self.i += primed
                expr = VertexAccumRef(expr, name, primed)
            else:
                member = self.expect("NAME")[1]
                if tokens[self.i][0] == "(":
                    self.i += 1
                    expr = Method(expr, member, self._call_args())
                else:
                    expr = AttrRef(expr, member)
            expr.span = self._span(first, tokens[self.i - 1])
        return expr

    def _call_args(self) -> List[Expr]:
        # The arguments after a call's '(' through its ')'.
        if self.tokens[self.i][0] == ")":
            self.i += 1
            return []
        args = self._comma_list(self.parse_expr)
        self.expect(")")
        return args

    def parse_primary(self) -> Expr:
        tokens = self.tokens
        token = tokens[self.i]
        kind = token[0]
        if kind == "NAME":
            if tokens[self.i + 1][0] == "(":
                return self.parse_call_or_aggregate()
            self.i += 1
            expr: Expr = NameRef(token[1])
        elif kind == "NUMBER":
            self.i += 1
            expr = Literal(self._number(token))
        elif kind == "STRING":
            self.i += 1
            expr = Literal(token[1])
        elif kind == "TRUE" or kind == "FALSE":
            self.i += 1
            expr = Literal(kind == "TRUE")
        elif kind == "@@":
            self.i += 1
            name = self.expect("NAME")[1]
            primed = tokens[self.i][0] == "'"
            self.i += primed
            expr = GlobalAccumRef(name, primed)
        elif kind == "(":
            return self.parse_parenthesized()
        elif kind == "CASE":
            return self.parse_case()
        else:
            raise self.error("expected an expression")
        expr.span = self._span(token, tokens[self.i - 1])
        return expr

    def parse_call_or_aggregate(self) -> Expr:
        tokens = self.tokens
        start = tokens[self.i]
        name = start[1]
        self.i += 2  # the name and '('
        lower = name.lower()
        if lower == "count" and tokens[self.i][0] == "*":
            self.i += 1
            self.expect(")")
            return self._spanned(AggCall("count", None), start)
        distinct = tokens[self.i][0] == "DISTINCT"
        self.i += distinct
        args = self._call_args()
        if lower in ("count", "sum", "avg", "min", "max") and len(args) == 1:
            return self._spanned(AggCall(lower, args[0], distinct), start)
        if distinct:
            raise self.error("DISTINCT is only valid inside aggregates")
        return self._spanned(Call(name, args), start)

    def parse_parenthesized(self) -> Expr:
        start = self.expect("(")
        exprs = self._comma_list(self.parse_expr)
        if self.tokens[self.i][0] == "->":
            self.i += 1
            values = self._comma_list(self.parse_expr)
            self.expect(")")
            return self._spanned(ArrowExpr(exprs, values), start)
        self.expect(")")
        if len(exprs) == 1:
            return exprs[0]
        return self._spanned(TupleExpr(exprs), start)

    def parse_case(self) -> Expr:
        start = self.expect("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self.tokens[self.i][0] == "WHEN":
            self.i += 1
            cond = self.parse_expr()
            self.expect("THEN")
            whens.append((cond, self.parse_expr()))
        default = self._optional_expr("ELSE")
        self.expect("END")
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
        from ..core.values import VertexSet

        vset = VertexSet(ctx.graph)
        for row in table:
            vset.add(row[0])
        ctx.set_vertex_set(self.name, vset)


def _derive_alias(expr: Expr) -> Optional[str]:
    if isinstance(expr, AttrRef):
        return expr.attr
    if isinstance(expr, (VertexAccumRef, GlobalAccumRef, NameRef)):
        return expr.name
    return None


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


def _parse(text: str) -> List[Query]:
    # Syntax, then the certificates execution reads; with a collector
    # bound, a "parse" span around both and a "certify" span around the
    # second.
    col = _exec.current().col
    span = col.span("parse") if col is not None else None
    try:
        queries = _Parser(text).parse_queries()
        certify = col.span("certify") if span is not None else None
        for query in queries:
            # Tractability (the planner's EngineMode.auto() and the
            # runtime guard read it), effects (parallel_accum's licence
            # and AccSan's cross-check target) and the soft iteration cap
            # on E033 (provably non-terminating) WHILE loops.
            attach_certificates(query)
            attach_effect_certificates(query)
            attach_governor_caps(query)
        if certify is not None:
            col.close(certify)
    except AccumulatorError as exc:
        # A declaration the accumulator types refuse (an unknown type, a
        # tuple with a duplicate field) is the query's compile error.
        raise QueryCompileError(str(exc)) from None
    finally:
        if span is not None:
            col.close(span)
    return queries


def parse_query(text: str) -> Query:
    """Parse GSQL text containing exactly one ``CREATE QUERY``."""
    queries = _parse(text)
    if len(queries) != 1:
        raise QueryCompileError(
            f"expected one query, found {len(queries)}; use parse_queries"
        )
    return queries[0]


def parse_queries(text: str) -> Dict[str, Query]:
    """Parse GSQL text containing any number of ``CREATE QUERY``
    declarations; returns them by name."""
    return {q.name: q for q in _parse(text)}


__all__ = ["parse_query", "parse_queries"]
