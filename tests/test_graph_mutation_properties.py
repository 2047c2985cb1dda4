"""Property tests: deletion cascades keep every derived view consistent,
and committed versions stay what they were.

A randomized (seeded, reproducible) mutation sequence runs against both
the real :class:`Graph` and a trivially-correct reference model (plain
sets of vertices and edge tuples).  After every ``delete_vertex``
cascade the graph's ``outdegree``/``indegree``/``num_edges``/
``degree_histogram``/``induced_subgraph`` must agree with the model —
the invariants ``docs/robustness.md`` promises survive any mutation
sequence.

The second half is the differential for copy-on-write versions and
carried statistics: Hypothesis generates small typed graphs (directed
and undirected types, self-loops, parallel edges) and sequences of
batches of all four op kinds — ``delete_vertex`` cascades,
delete-then-re-add of one id inside a batch, edge-attribute upserts,
conflicting batches — and after every commit the store's live version
must be what the same ops produce applied in place to an independent
deep copy, every pinned version must be what it was, and the carried
:class:`GraphStatsSnapshot` must equal a rescan.
"""

import copy
import random
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MutationConflictError
from repro.graph import FORWARD, REVERSE, UNDIRECTED, Graph
from repro.graph.fsck import fsck_graph
from repro.graph.graph import induced_subgraph
from repro.graph.mutation import (
    GraphStore,
    MutationBatch,
    apply_ops,
    recover_graph,
)
from repro.graph.stats import stats_snapshot
from repro.graph.wal import list_segments

from .test_graph_stats import rescan_snapshot


class ModelConflict(Exception):
    """The reference model's verdict that a batch must be rejected."""


class ReferenceModel:
    """Vertices and edges as plain data; degrees recomputed from scratch."""

    def __init__(self):
        self.vertices = {}  # vid -> vtype
        self.edges = {}     # eid -> (source, target, etype, directed)
        self.vertex_attrs = {}  # vid -> attrs
        self.edge_attrs = {}    # eid -> attrs
        self.directedness = {}  # etype -> directed, as first observed
        self.next_eid = 0

    def add_vertex(self, vid, vtype, attrs=None):
        self.vertices[vid] = vtype
        self.vertex_attrs[vid] = dict(attrs or {})

    def add_edge(self, eid, source, target, etype, directed, attrs=None):
        self.edges[eid] = (source, target, etype, directed)
        self.edge_attrs[eid] = dict(attrs or {})
        self.directedness.setdefault(etype, directed)
        self.next_eid = max(self.next_eid, eid + 1)

    def delete_edge(self, eid):
        del self.edges[eid]
        self.edge_attrs.pop(eid, None)

    def delete_vertex(self, vid):
        incident = sorted(
            eid for eid, (s, t, _e, _d) in self.edges.items()
            if s == vid or t == vid
        )
        for eid in incident:
            self.delete_edge(eid)
        del self.vertices[vid]
        self.vertex_attrs.pop(vid, None)
        return incident

    # -- the batch semantics of repro.graph.mutation, on plain data -----
    def matching_edges(self, source, target, etype):
        """Edge ids an upsert/delete of ``(source, target, etype)``
        addresses: that orientation only for directed edges, either
        endpoint order for undirected ones."""
        return sorted(
            eid for eid, (s, t, e, directed) in self.edges.items()
            if e == etype and (
                (s, t) == (source, target)
                or (not directed and (t, s) == (source, target))
            )
        )

    def _apply_one(self, op):
        kind, attrs = op["op"], op.get("attrs", {})
        if kind == "upsert_vertex":
            vid, vtype = op["id"], op.get("type")
            if vid in self.vertices:
                if vtype is not None and vtype != self.vertices[vid]:
                    raise ModelConflict("type change")
                self.vertex_attrs[vid].update(attrs)
            elif vtype is None:
                raise ModelConflict("insert without a type")
            else:
                self.add_vertex(vid, vtype, attrs)
        elif kind == "upsert_edge":
            source, target, etype = op["source"], op["target"], op["type"]
            directed = op.get("directed")
            matches = self.matching_edges(source, target, etype)
            if matches:
                if directed is not None and directed != self.edges[matches[0]][3]:
                    raise ModelConflict("directedness change")
                self.edge_attrs[matches[0]].update(attrs)
                return
            if source not in self.vertices or target not in self.vertices:
                raise ModelConflict("missing endpoint")
            if directed is None:
                directed = self.directedness.get(etype, True)
            if self.directedness.setdefault(etype, directed) != directed:
                raise ModelConflict("inconsistent directedness")
            self.add_edge(self.next_eid, source, target, etype, directed, attrs)
        elif kind == "delete_vertex":
            if op["id"] not in self.vertices:
                raise ModelConflict("no such vertex")
            self.delete_vertex(op["id"])
        else:
            matches = self.matching_edges(op["source"], op["target"], op["type"])
            if not matches:
                raise ModelConflict("no such edge")
            for eid in matches:
                self.delete_edge(eid)

    def apply(self, ops):
        """All of ``ops`` or none of them (raising :class:`ModelConflict`)."""
        saved = copy.deepcopy(self.__dict__)
        try:
            for op in ops:
                self._apply_one(op)
        except ModelConflict:
            self.__dict__.update(saved)
            raise

    def outdegree(self, vid):
        total = 0
        for s, t, _e, directed in self.edges.values():
            if directed:
                total += s == vid
            else:
                total += (s == vid) + (t == vid and s != t)
        return total

    def indegree(self, vid):
        total = 0
        for s, t, _e, directed in self.edges.values():
            if directed:
                total += t == vid
            else:
                total += (s == vid) + (t == vid and s != t)
        return total

    def degree_histogram(self):
        hist = {}
        for vid in self.vertices:
            d = self.outdegree(vid)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def induced_edges(self, keep):
        return sorted(
            (s, t, e, d) for s, t, e, d in self.edges.values()
            if s in keep and t in keep
        )


def _assert_agrees(graph, model):
    assert graph.num_vertices == len(model.vertices)
    assert graph.num_edges == len(model.edges)
    assert {v.vid: v.type for v in graph.vertices()} == model.vertices
    assert {
        e.eid: (e.source, e.target, e.type, e.directed) for e in graph.edges()
    } == model.edges
    for vid in model.vertices:
        assert graph.outdegree(vid) == model.outdegree(vid), vid
        assert graph.indegree(vid) == model.indegree(vid), vid
    assert graph.degree_histogram() == model.degree_histogram()


def _random_sequence(seed, steps):
    rng = random.Random(seed)
    graph = Graph(name=f"prop-{seed}")
    model = ReferenceModel()
    types = ("Person", "City", "Tag")
    etypes = {"Knows": True, "Near": False, "Likes": True}
    next_vid = 0
    for step in range(steps):
        roll = rng.random()
        ids = sorted(model.vertices, key=repr)
        if roll < 0.35 or len(ids) < 2:
            vid = f"v{next_vid}"
            next_vid += 1
            vtype = rng.choice(types)
            graph.add_vertex(vid, vtype)
            model.add_vertex(vid, vtype)
        elif roll < 0.70:
            etype = rng.choice(sorted(etypes))
            source, target = rng.choice(ids), rng.choice(ids)
            edge = graph.add_edge(
                source, target, etype, directed=etypes[etype]
            )
            model.add_edge(edge.eid, source, target, etype, etypes[etype])
        elif roll < 0.85 and model.edges:
            eid = rng.choice(sorted(model.edges))
            graph.delete_edge(eid)
            model.delete_edge(eid)
        else:
            vid = rng.choice(ids)
            cascaded = graph.delete_vertex(vid)
            assert cascaded == model.delete_vertex(vid), (
                f"seed {seed} step {step}: cascade mismatch for {vid}"
            )
            # The cascade is the moment bookkeeping can rot: check the
            # full derived surface right here, every time.
            _assert_agrees(graph, model)
        yield step, graph, model, rng


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_random_sequences_keep_derived_views_consistent(seed):
    for step, graph, model, rng in _random_sequence(seed, steps=120):
        if step % 10 == 0:
            _assert_agrees(graph, model)
    # Terminal state: everything agrees, and fsck sees no rot.
    _assert_agrees(graph, model)
    assert fsck_graph(graph).ok


@pytest.mark.parametrize("seed", [3, 99])
def test_induced_subgraph_consistent_after_cascades(seed):
    for step, graph, model, rng in _random_sequence(seed, steps=80):
        if step % 20 != 19 or not model.vertices:
            continue
        keep = {
            vid for vid in model.vertices if rng.random() < 0.5
        }
        sub = induced_subgraph(graph, keep)
        assert sub.num_vertices == len(keep)
        got = sorted(
            (e.source, e.target, e.type, e.directed) for e in sub.edges()
        )
        assert got == model.induced_edges(keep)
        assert fsck_graph(sub).ok


def test_self_loop_cascade():
    g = Graph(name="loops")
    g.add_vertex("x", "V")
    g.add_vertex("y", "V")
    g.add_edge("x", "x", "E")                      # directed self-loop
    g.add_edge("x", "x", "U", directed=False)      # undirected self-loop
    g.add_edge("x", "y", "E")
    assert g.outdegree("x") == 3 and g.indegree("x") == 2
    cascaded = g.delete_vertex("x")
    assert cascaded == [0, 1, 2]
    assert g.num_edges == 0
    assert g.outdegree("y") == 0 and g.indegree("y") == 0
    assert g.degree_histogram() == {0: 1}
    assert fsck_graph(g).ok


# ---------------------------------------------------------------------------
# Copy-on-write versions and carried statistics, differentially
# ---------------------------------------------------------------------------

IDS = [f"v{i}" for i in range(6)]
VTYPE = {vid: ("P" if i % 2 == 0 else "Q") for i, vid in enumerate(IDS)}
ETYPES = {"D": True, "L": True, "U": False}

def _attr_maps(min_size):
    return st.dictionaries(
        st.sampled_from(["a", "b"]),
        st.sampled_from([0, 1, "x", [1]]),  # [1] is unhashable: never tallied
        min_size=min_size, max_size=2,
    )


_attrs, _some_attrs = _attr_maps(0), _attr_maps(1)


@st.composite
def _recipes(draw):
    """An initial graph as data: vertices, then edges among them —
    self-loops and parallel edges included."""
    vids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    vertices = [(vid, draw(_attrs)) for vid in vids]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(vids), st.sampled_from(vids),
                  st.sampled_from(sorted(ETYPES)), _attrs),
        max_size=8,
    ))
    return vertices, edges


def _build(recipe):
    vertices, edges = recipe
    graph = Graph(name="generated")
    for vid, attrs in vertices:
        graph.add_vertex(vid, VTYPE[vid], **attrs)
    for source, target, etype, attrs in edges:
        graph.add_edge(source, target, etype, directed=ETYPES[etype], **attrs)
    return graph


def _model_of(recipe):
    vertices, edges = recipe
    model = ReferenceModel()
    for vid, attrs in vertices:
        model.add_vertex(vid, VTYPE[vid], attrs)
    for eid, (source, target, etype, attrs) in enumerate(edges):
        model.add_edge(eid, source, target, etype, ETYPES[etype], attrs)
    return model


_pick = st.integers(min_value=0, max_value=59)

#: Batches are generated as *intents* with integer selectors and turned
#: into op documents against the graph as it stands before the batch
#: (:func:`_resolve`), so most ops address elements that exist — edge
#: attribute upserts hit real edges, deletes cascade — while conflicts
#: still arise from the raw ops and from ops of one batch invalidating
#: each other (an edge to a vertex the batch just deleted).
_intents = st.one_of(
    st.tuples(st.just("touch_vertex"), _pick, _some_attrs),
    st.tuples(st.just("link"), _pick, _pick, st.sampled_from(sorted(ETYPES)), _attrs),
    st.tuples(st.just("touch_edge"), _pick, _some_attrs),
    st.tuples(st.just("delete_vertex"), _pick),
    st.tuples(st.just("delete_edge"), _pick),
    st.tuples(st.just("re_add"), _pick, _pick, st.sampled_from(sorted(ETYPES)), _attrs),
    st.tuples(st.just("raw"), st.one_of(
        st.builds(
            lambda vid, vtype, attrs: {
                "op": "upsert_vertex", "id": vid, "attrs": attrs,
                **({"type": vtype or VTYPE[vid]} if vtype != "" else {}),
            },
            st.sampled_from(IDS), st.sampled_from([None] * 6 + ["", "Wrong"]), _attrs,
        ),
        st.builds(
            lambda s, t, e, flip: {
                "op": "upsert_edge", "source": s, "target": t, "type": e,
                "directed": ETYPES[e] != flip,
            },
            st.sampled_from(IDS), st.sampled_from(IDS),
            st.sampled_from(sorted(ETYPES)), st.sampled_from([False] * 6 + [True]),
        ),
        st.builds(lambda vid: {"op": "delete_vertex", "id": vid}, st.sampled_from(IDS)),
        st.builds(
            lambda s, t, e: {"op": "delete_edge", "source": s, "target": t, "type": e},
            st.sampled_from(IDS), st.sampled_from(IDS), st.sampled_from(sorted(ETYPES)),
        ),
    )),
)
_batches = st.lists(_intents, min_size=1, max_size=5)


def _resolve(intents, graph):
    """The op documents a batch of intents means against ``graph``."""
    vids = list(graph.vertex_ids())
    edges = list(graph.edges())
    ops = []
    for kind, *args in intents:
        if kind == "raw":
            ops.append(args[0])
        elif not vids or (kind in ("touch_edge", "delete_edge") and not edges):
            ops.append({"op": "upsert_vertex", "id": IDS[args[0] % len(IDS)],
                        "type": VTYPE[IDS[args[0] % len(IDS)]]})
        elif kind == "touch_vertex":
            ops.append({"op": "upsert_vertex", "id": vids[args[0] % len(vids)],
                        "attrs": args[1]})
        elif kind == "link":
            a, b, etype, attrs = args
            ops.append({"op": "upsert_edge", "source": vids[a % len(vids)],
                        "target": vids[b % len(vids)], "type": etype,
                        "directed": ETYPES[etype], "attrs": attrs})
        elif kind == "touch_edge":
            edge = edges[args[0] % len(edges)]
            ops.append({"op": "upsert_edge", "source": edge.source,
                        "target": edge.target, "type": edge.type, "attrs": args[1]})
        elif kind == "delete_vertex":
            ops.append({"op": "delete_vertex", "id": vids[args[0] % len(vids)]})
        elif kind == "delete_edge":
            edge = edges[args[0] % len(edges)]
            ops.append({"op": "delete_edge", "source": edge.source,
                        "target": edge.target, "type": edge.type})
        else:  # re_add: the same id, a new vertex, inside one batch
            a, b, etype, attrs = args
            vid = vids[a % len(vids)]
            ops += [
                {"op": "delete_vertex", "id": vid},
                {"op": "upsert_vertex", "id": vid, "type": VTYPE[vid], "attrs": attrs},
                {"op": "upsert_edge", "source": vid, "target": vids[b % len(vids)],
                 "type": etype, "directed": ETYPES[etype]},
            ]
    return ops


def canonical(graph):
    """Everything a reader can observe of ``graph``, *in iteration
    order*: equal dumps mean byte-identical query results."""
    return {
        "epoch": graph.epoch,
        "next_eid": graph._next_eid,
        "directedness": list(graph._edge_type_directed.items()),
        "vertices": [(v.vid, v.type, list(v.attrs.items())) for v in graph.vertices()],
        "edges": [
            (e.eid, e.type, e.source, e.target, e.directed, list(e.attrs.items()))
            for e in graph.edges()
        ],
        "types": [(t, list(graph.vertex_ids(t))) for t in graph.vertex_types()],
        "columns": [
            (direction, [
                (etype, [
                    (vid, list(neighbors), list(eids),
                     [list(graph.edge(eid).attrs.items()) for eid in eids])
                    for vid, (neighbors, eids) in column.items()
                ])
                for etype, column in graph.columns(direction).items()
            ])
            for direction in (FORWARD, REVERSE, UNDIRECTED)
        ],
    }


def _wal_bytes(wal_dir):
    return [(Path(seg).name, Path(seg).stat().st_size) for seg in list_segments(wal_dir)]


@settings(max_examples=100, deadline=None)
@given(recipe=_recipes(), batches=st.lists(_batches, min_size=1, max_size=6),
       profile_first=st.booleans())
def test_commits_equal_in_place_application_and_leave_pinned_versions_alone(
    recipe, batches, profile_first
):
    reference = _build(recipe)  # never cloned: the plain in-place path
    model = _model_of(recipe)
    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = Path(tmp) / "wal"
        store = GraphStore.open(wal_dir, base=_build(recipe), fsync=False)
        if profile_first:
            stats_snapshot(store.live)
        pinned = []
        try:
            for intents in batches:
                ops = _resolve(intents, reference)
                pin = store.pin()
                pinned.append((pin, canonical(pin.graph)))
                live, carried, wal = store.live, store.live._stats, _wal_bytes(wal_dir)
                trial = copy.deepcopy(reference)
                try:
                    apply_ops(trial, ops)
                except MutationConflictError:
                    # (e) a conflict leaves the live version, its
                    # snapshot and the WAL untouched
                    with pytest.raises(ModelConflict):
                        model.apply(ops)
                    with pytest.raises(MutationConflictError):
                        store.apply(MutationBatch.from_ops(ops))
                    assert store.live is live and live._stats is carried
                    assert _wal_bytes(wal_dir) == wal
                else:
                    model.apply(ops)
                    result = store.apply(MutationBatch.from_ops(ops))
                    trial.epoch = result.epoch
                    reference = trial
                # (a) live == the same ops applied in place, order and all
                assert canonical(store.live) == canonical(reference)
                _assert_agrees(store.live, model)
                assert {v.vid: v.attrs for v in store.live.vertices()} == model.vertex_attrs
                assert {e.eid: e.attrs for e in store.live.edges()} == model.edge_attrs
                # (d) carried statistics == a rescan, field for field
                snapshot = stats_snapshot(store.live)
                assert snapshot._asdict() == rescan_snapshot(store.live)._asdict()
                assert store.live._stats.snapshot is snapshot
                # (b) + (c) every retained version is what it was, and clean
                for pin, dump in pinned:
                    assert canonical(pin.graph) == dump
                    assert fsck_graph(pin.graph).ok
                report = fsck_graph(store.live, wal_dir=wal_dir)
                assert report.ok, report.violations
            # The log replays to the same graph (attribute maps compared
            # as maps: a WAL record stores its attrs with sorted keys).
            recovered, _ = recover_graph(wal_dir, base=_build(recipe))
            assert fsck_graph(recovered, wal_dir=wal_dir).ok
            _assert_agrees(recovered, model)
            assert {v.vid: v.attrs for v in recovered.vertices()} == model.vertex_attrs
            assert {e.eid: e.attrs for e in recovered.edges()} == model.edge_attrs
        finally:
            for pin, _dump in pinned:
                pin.release()
            store.close()


@settings(max_examples=60, deadline=None)
@given(recipe=_recipes(), ops=_batches, more=_batches)
def test_in_place_mutation_after_a_clone_never_shows_through(recipe, ops, more):
    # (f) both directions: the original stays mutable after clone(),
    # and neither side sees the other's writes (a conflict part-way
    # through leaves the earlier ops applied — fine, they still must
    # not leak).
    original = _build(recipe)
    clone = original.clone()
    frozen = canonical(clone)
    try:
        apply_ops(original, _resolve(ops, original))
    except MutationConflictError:
        pass
    assert canonical(clone) == frozen
    after = canonical(original)
    try:
        apply_ops(clone, _resolve(more, clone))
    except MutationConflictError:
        pass
    assert canonical(original) == after
    assert fsck_graph(original).ok and fsck_graph(clone).ok
    assert stats_snapshot(original) == rescan_snapshot(original)
    assert stats_snapshot(clone) == rescan_snapshot(clone)


def test_pinned_reader_sees_one_constant_answer_across_200_commits():
    graph = Graph(name="hot")
    for i in range(20):
        graph.add_vertex(f"p{i}", "P", rank=i % 3)
    for i in range(20):
        graph.add_edge(f"p{i}", f"p{(i + 1) % 20}", "D")
        graph.add_edge(f"p{i}", f"p{(i + 7) % 20}", "U", directed=False)
    store = GraphStore(graph)
    stats_snapshot(store.live)
    pin = store.pin()
    want = canonical(pin.graph)
    stop = threading.Event()
    seen = []

    def reader():
        try:
            while not stop.is_set():
                seen.append(canonical(pin.graph) == want)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
            seen.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave reader and committer finely
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(200):
            a, b = f"p{i % 20}", f"p{(i * 3 + 1) % 20}"
            batch = (
                MutationBatch()
                .upsert_vertex(f"n{i}", "P", rank=i)
                .upsert_edge(f"n{i}", a, "D")
                .upsert_edge(a, b, "U", directed=False, w=i)
                .upsert_vertex(b, rank=i)
            )
            if i:
                batch.delete_vertex(f"n{i - 1}")
            store.apply(batch)
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert len(seen) > 1 and all(ok is True for ok in seen), [s for s in seen if s is not True][:1]
    assert canonical(pin.graph) == want
    assert store.epoch == 200
    assert stats_snapshot(store.live) == rescan_snapshot(store.live)
    assert fsck_graph(pin.graph).ok and fsck_graph(store.live).ok
    pin.release()
