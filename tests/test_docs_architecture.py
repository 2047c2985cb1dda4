"""Doc-drift guard: docs/architecture.md's module map must match the
actual ``src/repro`` package listing, and the compilation docs must
exist and cross-link."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
SRC = REPO / "src" / "repro"


def actual_modules():
    """Top-level modules/packages of repro (dunders excluded)."""
    names = set()
    for entry in SRC.iterdir():
        if entry.name.startswith("__"):
            continue
        if entry.is_dir() and (entry / "__init__.py").exists():
            names.add(entry.name)
        elif entry.suffix == ".py":
            names.add(entry.stem)
    return names


def documented_modules():
    """Module names from the architecture doc's module-map table."""
    text = (DOCS / "architecture.md").read_text()
    section = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([A-Za-z_][\w.]*)` \|", section, re.M))


class TestModuleMap:
    def test_every_module_documented(self):
        missing = actual_modules() - documented_modules()
        assert not missing, (
            f"modules missing from docs/architecture.md module map: "
            f"{sorted(missing)} — add a row per module"
        )

    def test_no_stale_doc_rows(self):
        stale = documented_modules() - actual_modules()
        assert not stale, (
            f"docs/architecture.md module map lists modules that no "
            f"longer exist: {sorted(stale)}"
        )

    def test_map_is_not_trivially_empty(self):
        assert len(documented_modules()) >= 15


class TestCompilationDocs:
    def test_compilation_doc_exists(self):
        doc = DOCS / "compilation.md"
        assert doc.exists()
        text = doc.read_text()
        for needle in (
            "plan cache",
            "CompiledQuery",
            "Query.run",
            "compile.cache.hit",
            "BENCH_12.json",
        ):
            assert needle in text, f"docs/compilation.md lost {needle!r}"

    def test_docs_describe_one_execution_path(self):
        """The interpreter twin and its opt-outs are gone; no page may
        keep advertising them."""
        pages = [REPO / "README.md", *sorted(DOCS.glob("*.md"))]
        for page in pages:
            text = page.read_text()
            for gone in (
                "--no-compile",
                '"compile": false',
                "compile_enabled",
                "check_compile_speedup",
                "planner.auto_source.compiled",
                "execution: path=",
            ):
                assert gone not in text, f"{page.name} still mentions {gone!r}"

    def test_cross_links(self):
        assert "compilation.md" in (DOCS / "architecture.md").read_text()
        assert "compilation.md" in (DOCS / "observability.md").read_text()
        assert "compilation.md" in (DOCS / "robustness.md").read_text()

    def test_observability_lists_compile_counters(self):
        text = (DOCS / "observability.md").read_text()
        for counter in (
            "compile.cache.hit",
            "compile.cache.miss",
            "compile.cache.eviction",
            "compile.cache.invalidated",
            "analysis.model_builds",
        ):
            assert counter in text, (
                f"docs/observability.md is missing the {counter} counter"
            )

    def test_docs_name_the_hop_kernel_and_the_bucket_view(self):
        """The FROM clause's lowering is documented where each layer is:
        the hop kernel with what it memoises and why that is sound, its
        bound comparisons and why their errors are the closures', the
        symbol columns as the adjacency seam, the SDMC level loop and its
        one plan builder, the unchanged sdmc.* counters."""
        compilation = (DOCS / "compilation.md").read_text()
        for needle in (
            "**Hop kernel**",
            "acceptor",
            "memoised per distinct vertex",
            "one reused `EvalEnv`",
            "Memoising is sound because",
            "Edge-variable filters are **not** memoised",
            "**Bound comparisons.**",
            "`lower_pushed_filter`",
            "Error parity follows",
        ):
            assert needle in compilation, f"docs/compilation.md lost {needle!r}"
        architecture = (DOCS / "architecture.md").read_text()
        for needle in (
            "hop kernel", "`Graph.columns(direction)`", "`Graph.vertex_getter()`",
            "`bucket_expander`", "`column_plan`", "one flat loop per",
            "**Traversal order**",
        ):
            assert needle in architecture, f"docs/architecture.md lost {needle!r}"
        assert "**one admission routine**" in compilation
        assert "two resolvers" not in compilation
        observability = (DOCS / "observability.md").read_text()
        for needle in ("`sdmc.edges_scanned`", "unchanged in meaning and value"):
            assert needle in observability, (
                f"docs/observability.md lost {needle!r}"
            )
        for page in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
            text = page.read_text()
            for gone in (
                "_passes_filters", "step_over", "VertexSpec.allows",
                # the per-vertex buckets of Step objects and their seam
                "Graph.buckets(", "`Step` in its place",
            ):
                assert gone not in text, f"{page.name} still mentions {gone!r}"

    def test_docs_describe_slot_rows_and_scopes(self):
        """Binding rows are slot tuples and names are resolved at
        lowering: the compilation page says what is decided when, and no
        page keeps describing dict rows or a per-row environment."""
        def flat(page):  # needles must survive re-wrapping
            return " ".join(page.read_text().split())

        compilation = flat(DOCS / "compilation.md")
        for needle in (
            "## Slots and scopes",
            "**Decided at lowering.**",
            "**Stays dynamic, and why.**",
            "**The shadowing rule**",
            "ACCUM-local > pattern variable > parameter > vertex set > table",
            "**One environment per phase.**",
            "`values + (target,)`",
            "level-at-a-time",
            "tests/test_core_name_resolution.py",
        ):
            assert needle in compilation, f"docs/compilation.md lost {needle!r}"
        architecture = flat(DOCS / "architecture.md")
        for needle in ("`(values, multiplicity)`", "one slot per pattern variable"):
            assert needle in architecture, f"docs/architecture.md lost {needle!r}"
        for page in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
            text = flat(page)
            for gone in (
                ".bindings[", "fresh `EvalEnv` per row",
                "fresh environment per row", "one `BindingRow` per",
            ):
                assert gone not in text, f"{page.name} still mentions {gone!r}"

    def test_docs_describe_per_context_activation(self):
        """The collector, governor and sanitizer are per-context state in
        one record; only the fault plan is process-wide; thread workers
        overlap.  The removed machinery is named nowhere."""
        def flat(page):  # needles must survive re-wrapping
            return " ".join(page.read_text().split())

        observability = flat(DOCS / "observability.md")
        for needle in (
            "one context read per instrumented call",
            "`_exec.current()`",
            "`src/repro/_exec.py`",
        ):
            assert needle in observability, (
                f"docs/observability.md lost {needle!r}"
            )
        robustness = flat(DOCS / "robustness.md")
        for needle in (
            "### Per-context activation",
            "per-context by construction",
            "The fault plan alone is process-wide",
            "concurrent thread-pool queries",
            "unlogged POST_ACCUM attribute write-back",
            "reads EOF and exits",
        ):
            assert needle in robustness, f"docs/robustness.md lost {needle!r}"
        architecture = flat(DOCS / "architecture.md")
        assert "| `_exec` |" in architecture
        for page in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
            text = flat(page)
            for gone in (
                "_ENGINE_LOCK", "_activation.py", "`_activation`",
                "repro._activation", "engine lock", "_ACTIVE",
                "validate_query", "analyze_query",
            ):
                assert gone not in text, f"{page.name} still mentions {gone!r}"

    def test_one_lowering_for_both_accumulator_clauses(self):
        """ACCUM and POST_ACCUM are lowered by one ladder: the docs say
        so, and the source keeps no statement interpreter or clone ladder
        beside it — one ``isinstance(stmt, AccumIf)`` in the executor
        (the AST's own ``walk_acc_statements`` aside)."""
        compilation = " ".join((DOCS / "compilation.md").read_text().split())
        for needle in (
            "**One accumulator-clause kernel, three sinks.**",
            "`repro.core.parallel._Partial`",
            "whose `set` is `acc.assign`",
            "**What the lowering counters count**",
            "counts ACCUM kernels only",
        ):
            assert needle in compilation, f"docs/compilation.md lost {needle!r}"
        assert "What the lowering counters count" in (
            DOCS / "observability.md"
        ).read_text()
        ladders = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            for gone in ("_run_post_statement", "_clone_acc_statement"):
                assert gone not in text, f"{path} still mentions {gone}"
            if path.parent.name in ("compile", "core"):
                text = text.split("def walk_acc_statements(")[0]
                ladders += [path.name] * text.count("isinstance(stmt, AccumIf)")
        assert ladders == ["lowering.py"]

    def test_docs_describe_the_blocking_listener(self):
        """The HTTP front end is handler threads over a blocking socket:
        the service-layer page carries the threading model, and neither
        it nor the README keeps describing an event loop."""
        robustness = " ".join((DOCS / "robustness.md").read_text().split())
        for needle in (
            "### Threading model",
            "from `accept()` to `close()`",
            "| step | who does it | what bounds it |",
            "handler cap",
            "admission limits",
            "pool size",
            "on demand",
            "holds a *thread* for the 10 s header timeout",
        ):
            assert needle in robustness, f"docs/robustness.md lost {needle!r}"
        for page in (REPO / "README.md", DOCS / "robustness.md"):
            text = page.read_text()
            for gone in ("asyncio", "run_in_executor"):
                assert gone not in text, f"{page.name} still mentions {gone!r}"

    def test_readme_mentions_speed(self):
        text = (REPO / "README.md").read_text()
        assert "How fast is it?" in text
        assert "plan cache" in text
        assert "parsed once per request" in text


class TestDurabilityDocs:
    """docs/robustness.md's "Durability & mutation" section must track
    the live fsck catalog, fault-site catalog and counter surface."""

    def _section(self):
        text = (DOCS / "robustness.md").read_text()
        assert "## Durability & mutation" in text
        return text.split("## Durability & mutation", 1)[1]

    def test_fsck_catalog_documented(self):
        from repro.graph.fsck import check_catalog

        section = self._section()
        for name, _desc in check_catalog():
            assert f"`{name}`" in section, (
                f"docs/robustness.md durability section is missing the "
                f"{name} fsck check"
            )

    def test_write_fault_sites_documented(self):
        from repro.governor import faults

        section = self._section()
        write_sites = [
            name for name, _ in faults.catalog()
            if name.startswith(("wal.", "mutation.", "epoch."))
        ]
        assert len(write_sites) == 5
        for site in write_sites:
            assert f"`{site}`" in section, (
                f"docs/robustness.md durability section is missing the "
                f"{site} fault site"
            )

    def test_conflict_outcome_documented(self):
        text = (DOCS / "robustness.md").read_text()
        assert "| `conflict` | 409 | no |" in text

    def test_wal_record_format_documented(self):
        section = self._section()
        for needle in (
            "CRC32", "epoch", "fsync", "recover_graph",
            "test_golden.py", "tests/golden/wal.json",
        ):
            assert needle in section, (
                f"docs/robustness.md durability section lost {needle!r}"
            )

    def test_epoch_lifecycle_describes_sharing_and_carried_statistics(self):
        section = " ".join(self._section().split())  # re-wrap proof
        for needle in (
            "**What a version shares.**", "**What a commit copies.**",
            "**Where statistics are advanced.**", "`epoch.publish` fault site",
            "cannot fail or poison a commit", "`Graph.set_vertex_attr`",
            "lost on recovery", "cyclic garbage collector",
            "`mutation.copied_elements`",
        ):
            assert needle in section, (
                f"docs/robustness.md durability section lost {needle!r}"
            )
        architecture = (DOCS / "architecture.md").read_text()
        for needle in ("`Graph.clone` is copy-on-write", "advanced per commit"):
            assert needle in architecture, f"docs/architecture.md lost {needle!r}"

    def test_observability_lists_durability_counters(self):
        text = (DOCS / "observability.md").read_text()
        for counter in (
            "wal.appends", "wal.bytes", "wal.fsyncs", "wal.rotations",
            "wal.truncated_bytes", "mutation.batches", "mutation.ops",
            "mutation.conflicts", "mutation.poisoned",
            "mutation.copied_elements", "mutation.stats_dropped",
            "mutation.recovered_records", "fsck.runs", "fsck.violations",
            "server.ingest.batches", "server.ingest.ops",
            "server.ingest.conflicts",
        ):
            assert counter in text, (
                f"docs/observability.md is missing the {counter} counter"
            )

    def test_architecture_mentions_durability_modules(self):
        text = (DOCS / "architecture.md").read_text()
        for needle in ("wal", "mutation", "fsck"):
            assert needle in text
