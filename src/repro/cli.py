"""Command-line interface: run GSQL files against graphs on disk.

Subcommands::

    python -m repro run QUERY.gsql --graph graph.json [--param k=5] ...
    python -m repro explain QUERY.gsql
    python -m repro profile QUERY.gsql --graph graph.json [--format json]
    python -m repro lint PATH... [--graph graph.json] [--format json]
    python -m repro check PATH... [--graph graph.json] [--format json] [--dot cfg.dot] [--effects]
    python -m repro generate-snb out.json --scale 0.5 --seed 42
    python -m repro semantics GRAPH.json SOURCE DARPE [--semantics ...]
    python -m repro serve --graph [NAME=]graph.json [--port 8080] [--workers 4]
    python -m repro ingest BATCH.json --graph graph.json [--wal-dir DIR]
    python -m repro fsck --graph graph.json [--wal-dir DIR] [--format json]

``run`` executes a ``CREATE QUERY`` file against a JSON graph (see
``repro.graph.io``), prints PRINT output and result tables, and can
switch engines with ``--engine counting|nre|nrv|asp-enum``.  The query
is lowered by :mod:`repro.compile` on its first run (``explain`` prints
the lowered plan's summary).

``profile`` is EXPLAIN ANALYZE: it runs the query under the
:mod:`repro.obs` collector and renders the span tree (per-block,
per-hop timings with binding-table rows/multiplicity) plus the engine
counter table, as text or JSON (``--output`` also writes the JSON trace
to a file for offline analysis).

``lint`` runs the :mod:`repro.analysis` rule set over ``.gsql`` files,
Python files embedding GSQL in triple-quoted strings, or directories of
either; it exits non-zero when any *error*-severity diagnostic (or parse
failure) is found, so it slots into CI.

``check`` is ``lint`` plus the flow-sensitive layer: it builds each
query's control-flow graph, solves the accumulator dataflow to a fixed
point (E030–W034), prints one tractability certificate per SELECT
block, and can export the CFGs as Graphviz dot (``--dot``).  The JSON
payload adds ``certificates`` and per-query solver summaries to the
lint shape.

``serve`` starts the fault-tolerant HTTP query service
(:mod:`repro.server`): a blocking listener whose handler threads each
carry one request from accept to close, admission control with budget
classes, a
process/thread worker pool with crash detection, and bounded
deterministic retry.  With ``--wal-dir`` every served graph becomes a
durable :class:`~repro.graph.mutation.GraphStore` — ``POST /ingest``
batches are WAL-committed and survive crashes.

``ingest`` applies a JSON batch of mutation operations (an array of op
documents, or ``{"ops": [...]}``) to a graph: with ``--wal-dir`` the
batch is WAL-committed (recovering any existing log first); without it
the updated graph is written back atomically.  A batch the graph's
state rejects (e.g. an edge whose endpoint is missing) exits 1 without
applying anything.

``fsck`` runs the durability invariant checker
(:mod:`repro.graph.fsck`) over a graph — optionally the graph
recovered from ``--wal-dir`` — and exits non-zero on any violation.

Exit codes are the shared taxonomy from :mod:`repro.errors`:
0 ok, 1 usage-or-lint, 2 governor-abort, 3 accsan-violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, List, Optional, Tuple

from .errors import EXIT_ABORT, EXIT_ACCSAN, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE

# ``run`` and ``profile`` also exit 4 (query-runtime-error), printing one
# ``path: message`` line, for an error the query raised while it ran.
# (The module docstring above, a GSQL corpus text, stays as it is: the
# parser differential's test id hashes it.)

# Each subcommand imports what it runs inside its handler: ``import
# repro.cli`` and ``--help`` compile no engine module, and ``repro serve``
# none of the algorithm library, generator or baselines.

#: ``--engine`` choices (:data:`repro.core.pattern.EngineMode.NAMES`).
_ENGINES = ("asp-enum", "auto", "counting", "nre", "nrv")


def _parse_param(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"parameters take the form name=value, got {text!r}"
        )
    name, raw = text.split("=", 1)
    for caster in (int, float):
        try:
            return name, caster(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return name, raw.lower() == "true"
    return name, raw


def _read_source(path: str) -> str:
    """Read a file, or exit 1 with a one-line error on an unreadable
    path (no traceback) — the shared error path for every subcommand."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"{path}: {reason}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_query(path: str):
    """Read and parse a ``CREATE QUERY`` file via :func:`_read_source`."""
    from .errors import GSQLSyntaxError, QueryCompileError
    from .gsql.parser import parse_query

    # A syntax or compile error exits 1 with one ``path:line:col:
    # message`` line, no traceback.  (The docstring above is a GSQL
    # corpus text: the parser differential's test id hashes it.)
    source = _read_source(path)
    try:
        return parse_query(source)
    except GSQLSyntaxError as exc:
        where = f"{path}:{exc.line}:{exc.column}" if exc.line >= 0 else path
        print(f"{where}: {exc.detail}", file=sys.stderr)
    except QueryCompileError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_graph(path: str):
    """Load a JSON graph, or exit 1 with a one-line diagnostic on a
    missing or malformed file (no traceback) — the graph-side twin of
    :func:`_read_source`.  :func:`~repro.graph.io.load_graph_json`
    raises :class:`~repro.errors.GraphError` with the offending
    path/line already in the message, so this just routes it to stderr.
    """
    from .errors import GraphError
    from .graph.io import load_graph_json

    try:
        return load_graph_json(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"{path}: {reason}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except GraphError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _recover_graph_or_exit(wal_dir: str, base: Any):
    """Replay ``wal_dir`` over ``base`` for read-only subcommands, or
    exit 1 on a corrupt/unreplayable log (no traceback).  ``heal=False``
    keeps these subcommands strictly read-only: a torn tail is skipped
    during replay but only a writer open truncates it on disk."""
    from .errors import MutationError, WalCorruptionError
    from .graph.mutation import recover_graph

    try:
        graph, _report = recover_graph(wal_dir, base=base, heal=False)
    except (OSError, MutationError, WalCorruptionError) as exc:
        print(f"{wal_dir}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return graph


def _print_value(value: Any) -> str:
    from .core.values import Table

    if isinstance(value, Table):
        lines = ["  " + " | ".join(value.columns)]
        for row in value:
            lines.append("  " + " | ".join(str(c) for c in row))
        return "\n".join(lines)
    return f"  {value!r}"


def _build_governor(args: argparse.Namespace, graph: Any = None, query: Any = None):
    """An :class:`ExecutionGovernor` from the budget flags, or None when
    no flag was given (so ungoverned runs stay on the zero-cost path).

    Under ``--auto-budget`` the caps derive from the query's cost
    certificate re-stamped with ``graph``'s statistics (predicted upper
    bound x ``--headroom``); explicit flags still win slot-by-slot, so
    ``--auto-budget --max-paths N`` pins paths at N while the remaining
    caps stay predicted.
    """
    from .governor import Budget, ExecutionGovernor

    auto = Budget()
    if getattr(args, "auto_budget", False) and graph is not None:
        from .core.tractable import attach_cost_certificates
        from .graph.stats import stats_snapshot

        attach_cost_certificates(
            query, schema=getattr(graph, "schema", None),
            stats=stats_snapshot(graph),
        )
        auto = ExecutionGovernor.from_certificate(
            query.cost_certificate, headroom=args.headroom
        ).budget

    def pick(explicit, slot):
        return explicit if explicit is not None else getattr(auto, slot)

    budget = Budget(
        deadline_seconds=args.timeout,
        max_acc_executions=pick(args.max_acc_execs, "max_acc_executions"),
        max_product_states=pick(
            args.max_product_states, "max_product_states"
        ),
        max_paths=pick(args.max_paths, "max_paths"),
        max_accum_bytes=pick(args.max_accum_bytes, "max_accum_bytes"),
        max_while_iterations=args.max_while_iters,
    )
    if budget.is_unlimited:
        return None
    return ExecutionGovernor(budget)


def _print_abort(exc) -> None:
    reason = getattr(exc.reason, "value", exc.reason)
    print(
        f"aborted: reason={reason} limit={exc.limit_name}="
        f"{exc.limit_value} observed={exc.observed} "
        f"elapsed={exc.elapsed_seconds:.3f}s",
        file=sys.stderr,
    )


def cmd_run(args: argparse.Namespace) -> int:
    import contextlib

    from .core.pattern import EngineMode
    from .errors import AccSanViolation, QueryAbortedError, ReproError
    from .governor import govern

    graph = _load_graph(args.graph)
    if args.wal_dir:
        graph = _recover_graph_or_exit(args.wal_dir, graph)
    query = _load_query(args.query_file)
    mode = EngineMode.named(args.engine)
    params = dict(args.param or [])
    governor = _build_governor(args, graph=graph, query=query)
    sanitizer_scope: Any = contextlib.nullcontext(None)
    if args.sanitize:
        from . import accsan

        sanitizer_scope = accsan.sanitize(schedules=args.sanitize_schedules)
    try:
        with govern(governor), sanitizer_scope as sanitizer:
            result = query.run(graph, mode=mode, **params)
    except QueryAbortedError as exc:
        _print_abort(exc)
        return EXIT_ABORT
    except AccSanViolation as exc:
        print(f"AccSan violation: {exc}", file=sys.stderr)
        return EXIT_ACCSAN
    except ReproError as exc:
        print(f"{args.query_file}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if sanitizer is not None:
        print(sanitizer.report(), file=sys.stderr)
    for record in result.printed:
        for key, value in record.items():
            print(f"{key}:")
            if isinstance(value, list):
                for row in value:
                    print(f"  {row}")
            else:
                print(f"  {value}")
    for name, table in result.tables.items():
        print(f"table {name} ({len(table)} rows):")
        print(_print_value(table))
    if result.returned is not None:
        print("returned:")
        print(_print_value(result.returned))
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.cost import analyze_cost
    from .analysis.model import cached_model
    from .core.explain import explain_query

    schema, stats = _load_lint_schema(
        getattr(args, "graph", None), with_stats=True
    )
    query = _load_query(args.query_file)
    print(explain_query(query))
    cost = analyze_cost(cached_model(query, schema), stats=stats)
    print()
    print(f"COST query: {cost.query_certificate.describe()}")
    for block_fact, cert in cost.blocks:
        at = f"L{block_fact.span.line}" if block_fact.span else "block"
        print(f"COST {at}: {cert.describe()}")
    from .compile import compile_query

    print()
    print(compile_query(query).describe())
    issues = _validation_errors(query)
    if issues:
        print("\nvalidation issues:")
        for issue in issues:
            print(f"  [{issue.rule_name}] {issue.message}")
        return EXIT_USAGE
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    from .core.pattern import EngineMode
    from .errors import ReproError
    from .obs import profile_query

    graph = _load_graph(args.graph)
    query = _load_query(args.query_file)
    mode = EngineMode.named(args.engine)
    params = dict(args.param or [])
    governor = _build_governor(args, graph=graph, query=query)
    # Stamp closed-form cost certificates so the report's predicted-vs-
    # observed section compares against this graph's statistics.
    from .core.tractable import attach_cost_certificates
    from .graph.stats import stats_snapshot

    attach_cost_certificates(
        query, schema=getattr(graph, "schema", None),
        stats=stats_snapshot(graph),
    )
    try:
        report = profile_query(query, graph, mode=mode, governor=governor, **params)
    except ReproError as exc:
        print(f"{args.query_file}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if governor is not None and governor.aborted is not None:
        _print_abort(governor.aborted)
        return EXIT_ABORT
    return EXIT_OK


#: What ``repro validate`` (and the trailer of ``explain``) reports: the
#: name-resolution errors, undeclared/duplicate/mis-scoped accumulators
#: and unknown sets, vertex types and edge types.
_VALIDATE_CODES = frozenset(f"GSQL-E00{n}" for n in range(1, 7))


def _validation_errors(query, schema=None) -> list:
    # The _VALIDATE_CODES diagnostics of ``query``, in walk order.
    from .analysis import run_rules
    from .analysis.model import cached_model

    found = [
        d for d in run_rules(cached_model(query, schema))
        if d.code in _VALIDATE_CODES
    ]
    found.sort(key=lambda d: d.seq)
    return found


def cmd_validate(args: argparse.Namespace) -> int:
    schema = None
    if args.graph:
        # JSON graphs are schema-free; synthesize a schema from the types
        # actually present so pattern positions can be checked.
        from .graph.schema import GraphSchema

        graph = _load_graph(args.graph)
        schema = graph.schema or GraphSchema(graph.name)
        if graph.schema is None:
            for vtype in graph.vertex_types():
                schema.vertex(vtype)
            for etype in graph.edge_types():
                schema.edge(etype)
    query = _load_query(args.query_file)
    issues = _validation_errors(query, schema)
    for issue in issues:
        print(f"[{issue.rule_name}] {issue.message}")
    if not issues:
        print("ok")
    return EXIT_USAGE if issues else EXIT_OK


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------
_TRIPLE_QUOTED = re.compile(r'("""|\'\'\')(.*?)\1', re.S)


def _gsql_units(path: str) -> List[Tuple[str, str]]:
    """(label, gsql_text) units found at ``path``.

    ``.gsql`` files contribute their whole text; ``.py`` files contribute
    every triple-quoted string containing ``CREATE QUERY``; directories
    are walked recursively for both.
    """
    units: List[Tuple[str, str]] = []
    if os.path.isdir(path):
        for root, _dirs, files in sorted(os.walk(path)):
            for fname in sorted(files):
                if fname.endswith((".gsql", ".py")):
                    units.extend(_gsql_units(os.path.join(root, fname)))
        return units
    text = _read_source(path)
    if path.endswith(".py"):
        for index, match in enumerate(_TRIPLE_QUOTED.finditer(text)):
            body = match.group(2)
            if "CREATE QUERY" in body:
                units.append((f"{path}[{index}]", body))
    elif "CREATE QUERY" in text:
        units.append((path, text))
    return units


def _collect_units(paths: List[str]) -> List[Tuple[str, str]]:
    """All GSQL units under ``paths``; a missing path exits 1 with a
    one-line message (via :func:`_read_source`), like every subcommand."""
    units: List[Tuple[str, str]] = []
    for path in paths:
        found = _gsql_units(path)
        if not found and not os.path.isdir(path):
            print(f"{path}: no GSQL found", file=sys.stderr)
        units.extend(found)
    return units


def _load_lint_schema(graph_path: Optional[str], with_stats: bool = False):
    """Schema synthesized from a JSON graph — and, with ``with_stats``,
    the :class:`~repro.graph.stats.GraphStatsSnapshot` the cost analysis
    turns into closed-form bounds (one graph load covers both)."""
    if not graph_path:
        return (None, None) if with_stats else None
    from .graph.schema import GraphSchema

    graph = _load_graph(graph_path)
    schema = graph.schema or GraphSchema(graph.name)
    if graph.schema is None:
        for vtype in graph.vertex_types():
            schema.vertex(vtype)
        for etype in graph.edge_types():
            schema.edge(etype)
    if with_stats:
        from .graph.stats import stats_snapshot

        return schema, stats_snapshot(graph)
    return schema


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import Severity, analyze
    from .analysis.diagnostics import Diagnostic
    from .core.span import Span
    from .errors import GSQLSyntaxError, QueryCompileError
    from .gsql import parse_queries

    schema, stats = _load_lint_schema(args.graph, with_stats=True)
    units = _collect_units(args.paths)

    records: List[dict] = []
    errors = warnings = 0
    rendered: List[str] = []
    for label, source in units:
        try:
            queries = parse_queries(source)
        except (GSQLSyntaxError, QueryCompileError) as exc:
            span = None
            if isinstance(exc, GSQLSyntaxError) and exc.line > 0:
                span = Span.at(exc.line, max(exc.column, 1))
            diag = Diagnostic(
                "GSQL-E000", Severity.ERROR, str(exc), span,
                rule_name="syntax-error",
            )
            errors += 1
            rendered.append(diag.render(source, label))
            records.append({"file": label, "query": None, **diag.to_dict()})
            continue
        for name, query in queries.items():
            for diag in analyze(
                query, schema=schema, source=source, stats=stats
            ):
                if diag.is_error:
                    errors += 1
                else:
                    warnings += 1
                rendered.append(diag.render(source, f"{label}:{name}"))
                records.append(
                    {"file": label, "query": name, **diag.to_dict()}
                )

    if args.format == "json":
        print(json.dumps(
            {"errors": errors, "warnings": warnings, "diagnostics": records},
            indent=2,
        ))
    else:
        for text in rendered:
            print(text)
        checked = len(units)
        print(
            f"{checked} source{'s' if checked != 1 else ''} checked: "
            f"{errors} error{'s' if errors != 1 else ''}, "
            f"{warnings} warning{'s' if warnings != 1 else ''}"
        )
    return EXIT_USAGE if errors else EXIT_OK


# ----------------------------------------------------------------------
# check (flow-sensitive analysis + certificates)
# ----------------------------------------------------------------------
def _fmt_interval(pair) -> str:
    """``[lo, hi]`` rendering for a serialized interval (None = inf)."""
    lo, hi = pair
    return f"[{lo}, {'inf' if hi is None else hi}]"
def check_units(
    units: List[Tuple[str, str]], schema=None, stats=None
) -> Tuple[dict, List[str], List[str]]:
    """Run the full analyzer + dataflow over GSQL units.

    Returns ``(payload, rendered_diagnostics, dot_graphs)`` where
    ``payload`` is the JSON document ``repro check --format json``
    prints; the corpus goldens (``tests/test_golden.py``) import this
    directly.  ``stats`` (a
    :class:`~repro.graph.stats.GraphStatsSnapshot`) turns the payload's
    ``cost`` certificates from structural bounds into closed-form ones.
    """
    from .analysis import Severity, analyze
    from .analysis.cost import analyze_cost
    from .analysis.dataflow import analyze_dataflow, block_certificates
    from .analysis.diagnostics import Diagnostic
    from .analysis.effects import analyze_effects
    from .analysis.model import cached_model
    from .core.span import Span
    from .errors import GSQLSyntaxError, QueryCompileError
    from .gsql import parse_queries

    records: List[dict] = []
    certificates: List[dict] = []
    effects: List[dict] = []
    costs: List[dict] = []
    query_summaries: List[dict] = []
    rendered: List[str] = []
    dot_graphs: List[str] = []
    errors = warnings = 0
    for label, source in units:
        try:
            queries = parse_queries(source)
        except (GSQLSyntaxError, QueryCompileError) as exc:
            span = None
            if isinstance(exc, GSQLSyntaxError) and exc.line > 0:
                span = Span.at(exc.line, max(exc.column, 1))
            diag = Diagnostic(
                "GSQL-E000", Severity.ERROR, str(exc), span,
                rule_name="syntax-error",
            )
            errors += 1
            rendered.append(diag.render(source, label))
            records.append({"file": label, "query": None, **diag.to_dict()})
            continue
        for name, query in queries.items():
            for diag in analyze(
                query, schema=schema, source=source, stats=stats
            ):
                if diag.is_error:
                    errors += 1
                else:
                    warnings += 1
                rendered.append(diag.render(source, f"{label}:{name}"))
                records.append(
                    {"file": label, "query": name, **diag.to_dict()}
                )
            model = cached_model(query, schema)
            flow = analyze_dataflow(model)
            for block_fact, cert in block_certificates(model):
                certificates.append({
                    "file": label,
                    "query": name,
                    "line": block_fact.span.line if block_fact.span else None,
                    "pattern": repr(block_fact.block.pattern),
                    "status": cert.status.value,
                    "witnesses": list(cert.witnesses),
                })
            for block_fact, summary, cert in analyze_effects(model).blocks:
                effects.append({
                    "file": label,
                    "query": name,
                    "line": block_fact.span.line if block_fact.span else None,
                    "pattern": repr(block_fact.block.pattern),
                    "status": cert.status.value,
                    "delta_maintainable": cert.delta_maintainable,
                    "witnesses": list(cert.witnesses),
                    "writes": sorted(
                        ("@@" if g else "@") + n
                        for g, n in summary.written_keys
                    ),
                })
            cost = analyze_cost(model, stats=stats)
            for block_fact, cost_cert in cost.blocks:
                costs.append({
                    "file": label,
                    "query": name,
                    "line": block_fact.span.line if block_fact.span else None,
                    "pattern": repr(block_fact.block.pattern),
                    **cost_cert.to_dict(),
                })
            query_summaries.append({
                "file": label,
                "query": name,
                "converged": flow.converged,
                "iterations": flow.iterations,
                "cfg_nodes": len(flow.cfg.nodes),
                "accumulators": {
                    ("@@" if key[0] else "@") + key[1]: flow.state_names(key)
                    for key in sorted(flow.keys, key=lambda k: (not k[0], k[1]))
                },
                "cost": cost.query_certificate.to_dict(),
            })
            dot_graphs.append(flow.cfg.to_dot(f"{name}"))
    payload = {
        "errors": errors,
        "warnings": warnings,
        "diagnostics": records,
        "certificates": certificates,
        "effects": effects,
        "cost": costs,
        "queries": query_summaries,
    }
    return payload, rendered, dot_graphs


def cmd_check(args: argparse.Namespace) -> int:
    schema, stats = _load_lint_schema(args.graph, with_stats=True)
    units = _collect_units(args.paths)
    payload, rendered, dot_graphs = check_units(units, schema, stats=stats)

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write("\n".join(dot_graphs))
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for text in rendered:
            print(text)
        for cert in payload["certificates"]:
            line = f":{cert['line']}" if cert["line"] else ""
            print(
                f"{cert['file']}:{cert['query']}{line}: certificate "
                f"{cert['status']} [{cert['pattern']}]"
            )
            for witness in cert["witnesses"]:
                print(f"  * {witness}")
        if getattr(args, "effects", False):
            for eff in payload["effects"]:
                line = f":{eff['line']}" if eff["line"] else ""
                delta = " delta-maintainable" if eff["delta_maintainable"] else ""
                print(
                    f"{eff['file']}:{eff['query']}{line}: effects "
                    f"{eff['status']}{delta} [{eff['pattern']}] "
                    f"writes {', '.join(eff['writes']) or '(none)'}"
                )
                for witness in eff["witnesses"]:
                    print(f"  * {witness}")
        if getattr(args, "cost", False):
            for row in payload["cost"]:
                line = f":{row['line']}" if row["line"] else ""
                bounds = " ".join(
                    f"{metric}={_fmt_interval(row[metric])}"
                    for metric in (
                        "frontier", "product_states", "paths",
                        "acc_executions", "accum_bytes",
                    )
                )
                print(
                    f"{row['file']}:{row['query']}{line}: cost "
                    f"{row['confidence']} {bounds} [{row['pattern']}]"
                )
                for witness in row["witnesses"]:
                    print(f"  * {witness}")
        diverged = [q for q in payload["queries"] if not q["converged"]]
        for q in diverged:
            print(
                f"{q['file']}:{q['query']}: dataflow solver did NOT "
                f"converge after {q['iterations']} iterations",
                file=sys.stderr,
            )
        checked = len(units)
        errors, warnings = payload["errors"], payload["warnings"]
        print(
            f"{checked} source{'s' if checked != 1 else ''} checked: "
            f"{errors} error{'s' if errors != 1 else ''}, "
            f"{warnings} warning{'s' if warnings != 1 else ''}, "
            f"{len(payload['certificates'])} certificate"
            f"{'s' if len(payload['certificates']) != 1 else ''}"
        )
    return EXIT_USAGE if payload["errors"] else EXIT_OK


def cmd_generate_snb(args: argparse.Namespace) -> int:
    from .graph.io import save_graph_json
    from .ldbc.generator import generate_snb_graph

    graph = generate_snb_graph(scale_factor=args.scale, seed=args.seed)
    save_graph_json(graph, args.output)
    summary = graph.summary()
    print(json.dumps(summary))
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the fault-tolerant query service (see repro.server)."""
    from .errors import GraphError, WalCorruptionError
    from .server import QueryService, RetryPolicy
    from .server.app import serve

    graph_paths = {}
    for spec in args.graph or []:
        name, _, path = spec.rpartition("=")
        if not name:
            name, path = "default", spec
        graph_paths[name] = path
    if not graph_paths:
        print("serve needs at least one --graph [name=]PATH", file=sys.stderr)
        return EXIT_USAGE
    graphs = None
    if args.pool_mode == "thread":
        graphs = {
            name: _load_graph(path)
            for name, path in sorted(graph_paths.items())
        }
    try:
        service = QueryService(
            graphs=graphs,
            graph_paths=graph_paths,
            pool_size=args.workers,
            pool_mode=args.pool_mode,
            max_queue_depth=args.max_queue_depth,
            max_tenant_inflight=args.max_tenant_inflight,
            retry=RetryPolicy(
                max_attempts=args.max_attempts, seed=args.retry_seed
            ),
            wal_dir=args.wal_dir,
            wal_fsync=not args.no_fsync,
        )
    except (OSError, ValueError, GraphError, WalCorruptionError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def banner(server) -> None:
        # Printed once the socket is bound: --port 0 shows the real port.
        print(
            f"repro serve: {args.pool_mode} pool x{args.workers} on "
            f"http://{server.host}:{server.port} "
            f"(graphs: {', '.join(sorted(graph_paths))})",
            file=sys.stderr,
            flush=True,
        )

    serve(service, host=args.host, port=args.port, on_listening=banner)
    return EXIT_OK


def cmd_semantics(args: argparse.Namespace) -> int:
    from .darpe.automaton import CompiledDarpe
    from .enumeration.engine import match_counts
    from .paths.sdmc import single_source_sdmc
    from .paths.semantics import PathSemantics

    graph = _load_graph(args.graph)
    darpe = CompiledDarpe.parse(args.darpe)
    source: Any = args.source
    if source not in graph:
        try:
            source = int(args.source)
        except ValueError:
            pass
    if args.semantics == "all-shortest-paths":
        found = single_source_sdmc(graph, source, darpe)
        rows = {vid: res.count for vid, res in found.items()}
    else:
        semantics = PathSemantics(args.semantics)
        rows = match_counts(
            graph, source, darpe, semantics,
            max_length=args.max_length, budget=args.budget,
        )
    for target, count in sorted(rows.items(), key=lambda kv: str(kv[0])):
        print(f"{target}\t{count}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    """Apply a JSON mutation batch to a graph, WAL-committed when
    ``--wal-dir`` is given (see docs/robustness.md, "Durability &
    mutation")."""
    from .errors import (
        GraphError,
        MutationConflictError,
        MutationError,
        WalCorruptionError,
    )
    from .graph.io import save_graph_json
    from .graph.mutation import GraphStore, MutationBatch

    if not args.graph and not args.wal_dir:
        print("ingest needs --graph and/or --wal-dir", file=sys.stderr)
        return EXIT_USAGE
    base = _load_graph(args.graph) if args.graph else None
    try:
        doc = json.loads(_read_source(args.batch))
    except ValueError as exc:
        print(f"{args.batch}: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ops = doc.get("ops") if isinstance(doc, dict) else doc
    if not isinstance(ops, list) or not ops:
        print(
            f'{args.batch}: expected a JSON array of ops or {{"ops": [...]}}',
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        batch = MutationBatch.from_ops(ops)
    except (TypeError, ValueError) as exc:
        print(f"{args.batch}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.wal_dir:
            store = GraphStore.open(
                args.wal_dir, base=base, fsync=not args.no_fsync
            )
        else:
            store = GraphStore(base)
        with store:
            result = store.apply(batch)
            # Without a WAL the only durable artifact is the JSON graph
            # itself, so write it back (atomically) unless redirected.
            out = args.out or (None if args.wal_dir else args.graph)
            if out:
                save_graph_json(store.live, out)
    except MutationConflictError as exc:
        print(f"conflict: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, MutationError, WalCorruptionError, GraphError) as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({
        "epoch": result.epoch, "ops": result.ops, "durable": result.durable,
    }))
    return EXIT_OK


def cmd_fsck(args: argparse.Namespace) -> int:
    """Run the durability invariant checker; exit 1 on any violation."""
    from .errors import MutationError, WalCorruptionError
    from .graph.fsck import fsck_graph

    if not args.graph and not args.wal_dir:
        print("fsck needs --graph and/or --wal-dir", file=sys.stderr)
        return EXIT_USAGE
    graph = _load_graph(args.graph) if args.graph else None
    if args.wal_dir:
        graph = _recover_graph_or_exit(args.wal_dir, graph)
    try:
        report = fsck_graph(graph, wal_dir=args.wal_dir)
    except (OSError, MutationError, WalCorruptionError) as exc:
        print(f"fsck: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for violation in report.violations:
            print(f"{violation.check}: {violation.detail}")
        verdict = (
            "ok" if report.ok
            else f"{len(report.violations)} violation"
                 f"{'s' if len(report.violations) != 1 else ''}"
        )
        print(
            f"fsck: {len(report.checks)} checks over {report.vertices} "
            f"vertices / {report.edges} edges: {verdict}"
        )
    return EXIT_OK if report.ok else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    from .paths.semantics import PathSemantics

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_governor_flags(p: argparse.ArgumentParser) -> None:
        gov = p.add_argument_group(
            "execution governor",
            "per-query budget; exceeding a limit aborts with exit code 2 "
            "(certified-tractable blocks degrade instead — see "
            "docs/robustness.md)",
        )
        gov.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock deadline for the whole query",
        )
        gov.add_argument(
            "--max-paths", type=int, default=None, metavar="N",
            help="cap on paths materialized by the enumeration engine",
        )
        gov.add_argument(
            "--max-acc-execs", type=int, default=None, metavar="N",
            help="cap on ACCUM acc-executions across the query",
        )
        gov.add_argument(
            "--max-product-states", type=int, default=None, metavar="N",
            help="cap on SDMC product states visited",
        )
        gov.add_argument(
            "--max-accum-bytes", type=int, default=None, metavar="N",
            help="cap on estimated accumulator memory",
        )
        gov.add_argument(
            "--max-while-iters", type=int, default=None, metavar="N",
            help="soft per-loop WHILE iteration cap (stops with a warning)",
        )
        gov.add_argument(
            "--auto-budget", action="store_true",
            help="derive the caps from the query's static cost "
                 "certificate against this graph's statistics "
                 "(predicted upper bound x headroom; explicit flags "
                 "win slot-by-slot)",
        )
        gov.add_argument(
            "--headroom", type=float, default=2.0, metavar="X",
            help="--auto-budget multiplier over the predicted bound "
                 "(default 2.0)",
        )

    run_p = sub.add_parser("run", help="run a GSQL query file against a JSON graph")
    run_p.add_argument("query_file")
    run_p.add_argument("--graph", required=True)
    run_p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="replay this write-ahead log over the graph before running "
             "(read-only: a torn tail is skipped, not healed)",
    )
    run_p.add_argument("--engine", choices=_ENGINES, default="counting")
    run_p.add_argument(
        "--param", action="append", type=_parse_param, metavar="NAME=VALUE"
    )
    run_p.add_argument(
        "--sanitize", action="store_true",
        help="run under AccSan: replay every Reduce phase under permuted "
             "schedules; exit 3 if a COMMUTATIVE-certified block diverges",
    )
    run_p.add_argument(
        "--sanitize-schedules", type=int, default=8, metavar="K",
        help="number of permuted schedules per Reduce phase (default 8)",
    )
    add_governor_flags(run_p)
    run_p.set_defaults(fn=cmd_run)

    explain_p = sub.add_parser("explain", help="print a query's evaluation plan")
    explain_p.add_argument("query_file")
    explain_p.add_argument(
        "--graph", default=None,
        help="JSON graph whose statistics turn the COST lines from "
             "structural bounds into closed-form predictions",
    )
    explain_p.set_defaults(fn=cmd_explain)

    profile_p = sub.add_parser(
        "profile",
        help="EXPLAIN ANALYZE: run a query and report per-block timings "
             "and engine counters",
    )
    profile_p.add_argument("query_file")
    profile_p.add_argument("--graph", required=True)
    profile_p.add_argument("--engine", choices=_ENGINES, default="counting")
    profile_p.add_argument(
        "--param", action="append", type=_parse_param, metavar="NAME=VALUE"
    )
    profile_p.add_argument("--format", choices=("text", "json"), default="text")
    profile_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON trace to PATH",
    )
    add_governor_flags(profile_p)
    profile_p.set_defaults(fn=cmd_profile)

    validate_p = sub.add_parser(
        "validate", help="statically check a query (optionally against a graph)"
    )
    validate_p.add_argument("query_file")
    validate_p.add_argument("--graph", default=None)
    validate_p.set_defaults(fn=cmd_validate)

    lint_p = sub.add_parser(
        "lint",
        help="run the static-analysis rules over GSQL files or directories",
    )
    lint_p.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=".gsql file, .py file with embedded GSQL, or a directory",
    )
    lint_p.add_argument("--graph", default=None,
                        help="JSON graph for schema-aware checks")
    lint_p.add_argument("--format", choices=("text", "json"), default="text")
    lint_p.set_defaults(fn=cmd_lint)

    check_p = sub.add_parser(
        "check",
        help="flow-sensitive dataflow analysis: lint diagnostics plus "
             "per-block tractability certificates and CFG export",
    )
    check_p.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=".gsql file, .py file with embedded GSQL, or a directory",
    )
    check_p.add_argument("--graph", default=None,
                         help="JSON graph for schema-aware checks")
    check_p.add_argument("--format", choices=("text", "json"), default="text")
    check_p.add_argument(
        "--dot", default=None, metavar="PATH",
        help="write the control-flow graphs as Graphviz dot to PATH",
    )
    check_p.add_argument(
        "--effects", action="store_true",
        help="also print the per-block effect/commutativity certificates "
             "(always present in the JSON payload)",
    )
    check_p.add_argument(
        "--cost", action="store_true",
        help="also print the per-block cost certificates — predicted "
             "cardinality/memory intervals, closed-form when --graph "
             "supplies statistics (always present in the JSON payload)",
    )
    check_p.set_defaults(fn=cmd_check)

    gen_p = sub.add_parser("generate-snb", help="write an SNB-like graph as JSON")
    gen_p.add_argument("output")
    gen_p.add_argument("--scale", type=float, default=0.1)
    gen_p.add_argument("--seed", type=int, default=42)
    gen_p.set_defaults(fn=cmd_generate_snb)

    serve_p = sub.add_parser(
        "serve",
        help="run the fault-tolerant HTTP query service: blocking listener, "
             "one handler thread per request in flight, worker pool behind "
             "admission control (see docs/robustness.md, 'Service layer')",
    )
    serve_p.add_argument(
        "--graph",
        action="append",
        metavar="[NAME=]PATH",
        help="JSON graph to serve (repeatable; bare PATH mounts as 'default')",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080)
    serve_p.add_argument(
        "--workers", type=int, default=4, help="worker pool size"
    )
    serve_p.add_argument(
        "--pool-mode",
        choices=["process", "thread"],
        default="process",
        help="worker transport: isolated processes (default) or in-process threads",
    )
    serve_p.add_argument("--max-queue-depth", type=int, default=16)
    serve_p.add_argument("--max-tenant-inflight", type=int, default=8)
    serve_p.add_argument(
        "--max-attempts", type=int, default=3, help="retry attempt cap"
    )
    serve_p.add_argument(
        "--retry-seed", type=int, default=0, help="jitter determinism seed"
    )
    serve_p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="durable ingestion: each graph gets a write-ahead log under "
             "DIR/<name>; POST /ingest batches survive crashes",
    )
    serve_p.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL commit (faster, loses the power-failure "
             "guarantee; process-crash durability is unaffected)",
    )
    serve_p.set_defaults(fn=cmd_serve)

    ingest_p = sub.add_parser(
        "ingest",
        help="apply a JSON mutation batch to a graph (WAL-committed "
             "with --wal-dir; see docs/robustness.md)",
    )
    ingest_p.add_argument(
        "batch", metavar="BATCH",
        help='JSON file: an array of op documents or {"ops": [...]}',
    )
    ingest_p.add_argument(
        "--graph", default=None,
        help="base JSON graph (updated in place — atomically — unless "
             "--wal-dir or --out is given)",
    )
    ingest_p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="write-ahead log directory: recover it first, then commit "
             "the batch durably",
    )
    ingest_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the post-batch graph as JSON to PATH",
    )
    ingest_p.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL commit",
    )
    ingest_p.set_defaults(fn=cmd_ingest)

    fsck_p = sub.add_parser(
        "fsck",
        help="check graph/WAL durability invariants; exit 1 on violations",
    )
    fsck_p.add_argument(
        "--graph", default=None, help="JSON graph to check"
    )
    fsck_p.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="replay this write-ahead log over the graph (read-only) "
             "and cross-check its epoch",
    )
    fsck_p.add_argument("--format", choices=("text", "json"), default="text")
    fsck_p.set_defaults(fn=cmd_fsck)

    sem_p = sub.add_parser(
        "semantics", help="per-target match counts for a DARPE from a source"
    )
    sem_p.add_argument("graph")
    sem_p.add_argument("source")
    sem_p.add_argument("darpe")
    sem_p.add_argument(
        "--semantics",
        choices=[s.value for s in PathSemantics],
        default="all-shortest-paths",
    )
    sem_p.add_argument("--max-length", type=int, default=None)
    sem_p.add_argument("--budget", type=int, default=None)
    sem_p.set_defaults(fn=cmd_semantics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
