"""The benchmark's own inputs: GSQL texts and seeded request streams.

The texts are owned here, not imported from ``repro.ldbc`` — a later
change to the library's query builders must not silently change what
the benchmark sends.  The program under test only ever sees them as
request bodies (or as a file handed to ``repro run``).

IC texts come in two forms from one template: *parameterised* (the
numeric bound is a declared query parameter — the plan-cache-friendly
shape ``ic_warm`` sends, and the shape every oracle run uses) and
*inlined* (the bound is a literal in the text and the query carries a
per-request name — the ad-hoc shape ``frontend_cold`` sends).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple


class Request(NamedTuple):
    """One unit of client work.  ``path`` is the HTTP route (``""`` for
    a CLI invocation, whose ``body`` is unused)."""

    kind: str
    path: str
    body: bytes
    #: Whatever the verifier needs to recompute the right answer.
    check: Dict[str, Any]
    #: Which of its lap's requests this is: the same slot is the same
    #: work in every lap, for every seed.
    slot: int = 0


# ---------------------------------------------------------------------------
# IC templates.  {name} query name, {decl} extra parameter declaration,
# {num} the numeric bound (a parameter name or a literal), {hops}.
# IC3 and IC6 have no numeric parameter in the library's analogues; the
# benchmark adds one bounded filter to each so every kind can carry a
# per-request literal that changes the answer.
# ---------------------------------------------------------------------------

_IC_TEMPLATES: Dict[str, str] = {
    "ic3": """
CREATE QUERY {name}(vertex<Person> p, string countryX, string countryY{decl}) FOR GRAPH SNB {{
  SumAccum<int> @msgX, @msgY;

  F = SELECT o
      FROM   Person:p -(Knows*1..{hops})- Person:o
      WHERE  o <> p;

  X = SELECT f
      FROM   F:f -(<CommentCreator)- Comment:m -(CommentIn>)- Country:c
      WHERE  c.name == countryX
      ACCUM  f.@msgX += 1;

  Y = SELECT f
      FROM   F:f -(<CommentCreator)- Comment:m -(CommentIn>)- Country:c
      WHERE  c.name == countryY
      ACCUM  f.@msgY += 1;

  SELECT f.firstName AS firstName, f.lastName AS lastName,
             f.@msgX AS xCount, f.@msgY AS yCount,
             f.@msgX + f.@msgY AS total INTO Results
      FROM   F:f
      WHERE  f.@msgX > 0 AND f.@msgY > 0 AND f.birthday < {num}
      ORDER BY f.@msgX + f.@msgY DESC, f.lastName ASC
      LIMIT 20;

  RETURN Results;
}}
""",
    "ic5": """
CREATE QUERY {name}(vertex<Person> p{decl}) FOR GRAPH SNB {{
  OrAccum @isFriend;
  SumAccum<int> @memberPosts;

  F = SELECT o
      FROM   Person:p -(Knows*1..{hops})- Person:o
      WHERE  o <> p
      ACCUM  o.@isFriend += TRUE;

  FO = SELECT fo
       FROM   F:f -(<HasMember:e)- Forum:fo
       WHERE  e.joinDate > {num};

  S = SELECT fo
      FROM   FO:fo -(ContainerOf>)- Post:po -(PostCreator>)- Person:f
      WHERE  f.@isFriend
      ACCUM  fo.@memberPosts += 1;

  SELECT fo.title AS title, fo.@memberPosts AS postCount INTO Results
      FROM   FO:fo
      ORDER BY fo.@memberPosts DESC, fo.title ASC
      LIMIT 20;

  RETURN Results;
}}
""",
    "ic6": """
CREATE QUERY {name}(vertex<Person> p, string tagName{decl}) FOR GRAPH SNB {{
  SumAccum<int> @postCount;

  F = SELECT o
      FROM   Person:p -(Knows*1..{hops})- Person:o
      WHERE  o <> p;

  P = SELECT po
      FROM   F:f -(<PostCreator)- Post:po -(HasTag>)- Tag:t
      WHERE  t.name == tagName AND po.creationDate < {num};

  T = SELECT t2
      FROM   P:po -(HasTag>)- Tag:t2
      WHERE  t2.name != tagName
      ACCUM  t2.@postCount += 1;

  SELECT t2.name AS tagName, t2.@postCount AS postCount INTO Results
      FROM   T:t2
      ORDER BY t2.@postCount DESC, t2.name ASC
      LIMIT 10;

  RETURN Results;
}}
""",
    "ic9": """
CREATE QUERY {name}(vertex<Person> p{decl}) FOR GRAPH SNB {{
  TYPEDEF TUPLE <INT creationDate, INT length, STRING author> Msg;
  HeapAccum<Msg>(20, creationDate DESC, length DESC) @@recent;

  F = SELECT o
      FROM   Person:p -(Knows*1..{hops})- Person:o
      WHERE  o <> p;

  C = SELECT m
      FROM   F:f -(<CommentCreator)- Comment:m
      WHERE  m.creationDate < {num}
      ACCUM  @@recent += (m.creationDate, m.length, f.lastName);

  PO = SELECT m
       FROM   F:f -(<PostCreator)- Post:m
       WHERE  m.creationDate < {num}
       ACCUM  @@recent += (m.creationDate, m.length, f.lastName);

  PRINT @@recent;
}}
""",
    "ic11": """
CREATE QUERY {name}(vertex<Person> p, string countryName{decl}) FOR GRAPH SNB {{
  MinAccum<int> @minWorkFrom;

  F = SELECT o
      FROM   Person:p -(Knows*1..{hops})- Person:o
      WHERE  o <> p;

  W = SELECT f
      FROM   F:f -(WorkAt>:w)- Company:co -(CompanyIn>)- Country:c
      WHERE  c.name == countryName AND w.workFrom < {num}
      ACCUM  f.@minWorkFrom += w.workFrom;

  SELECT f.firstName AS firstName, f.lastName AS lastName,
             f.@minWorkFrom AS workFrom INTO Results
      FROM   W:f
      ORDER BY f.@minWorkFrom ASC, f.lastName ASC
      LIMIT 10;

  RETURN Results;
}}
""",
}

IC_KINDS = tuple(_IC_TEMPLATES)

#: Non-numeric parameters, fixed (the generator's vocabulary).
_IC_FIXED: Dict[str, Dict[str, str]] = {
    "ic3": {"countryX": "Arcadia", "countryY": "Borduria"},
    "ic5": {},
    "ic6": {"tagName": "opera-0"},
    "ic9": {},
    "ic11": {"countryName": "Cascadia"},
}

#: The numeric bound of each kind: its default (``ic_warm``) and the
#: range ``frontend_cold`` draws a per-request literal from.
_IC_NUMERIC: Dict[str, Tuple[int, Tuple[int, int]]] = {
    "ic3": (19900101, (1960, 2001)),    # birthday  < yyyy0101
    "ic5": (20100601, (2009, 2012)),    # joinDate  > yyyymmdd
    "ic6": (20120601, (2010, 2013)),    # post date < yyyymmdd
    "ic9": (20120601, (2010, 2013)),    # msg date  < yyyymmdd
    "ic11": (2010, (1996, 2013)),       # workFrom  < yyyy
}

#: ORDER BY key of each kind's result rows, as (column index, descending).
IC_ORDER: Dict[str, Tuple[Tuple[int, bool], ...]] = {
    "ic3": ((4, True), (1, False)),
    "ic5": ((1, True), (0, False)),
    "ic6": ((1, True), (0, False)),
    "ic9": ((0, True), (1, True)),
    "ic11": ((2, False), (1, False)),
}
IC_LIMIT = {"ic3": 20, "ic5": 20, "ic6": 10, "ic9": 20, "ic11": 10}


def ic_text(kind: str, hops: int, name: Optional[str] = None,
            literal: Optional[int] = None) -> str:
    """Parameterised form (``literal`` is None: the bound is the declared
    parameter ``num``) or inlined form (the bound is ``literal``)."""
    return _IC_TEMPLATES[kind].format(
        name=name or kind,
        hops=hops,
        decl=", int num" if literal is None else "",
        num="num" if literal is None else literal,
    )


def ic_params(kind: str, person: str, numeric: Optional[int] = None) -> Dict[str, Any]:
    """Parameters of the parameterised form."""
    bound = _IC_NUMERIC[kind][0] if numeric is None else numeric
    return {"p": person, **_IC_FIXED[kind], "num": bound}


def draw_literal(kind: str, rng: random.Random) -> int:
    lo, hi = _IC_NUMERIC[kind][1]
    year = rng.randint(lo, hi)
    if kind == "ic11":
        return year
    return year * 10000 + rng.randint(1, 12) * 100 + rng.randint(1, 28)


def _query_body(text: str, params: Dict[str, Any]) -> bytes:
    return json.dumps({"query": text, "params": params}).encode("utf-8")


def ic_request(kind: str, hops: int, person: str) -> Request:
    """A warm-shape IC request: fixed text per (kind, hops)."""
    params = ic_params(kind, person)
    return Request(
        f"{kind}_h{hops}", "/query", _query_body(ic_text(kind, hops), params),
        {"ic": kind, "hops": hops, "params": params},
    )


# ---------------------------------------------------------------------------
# the other texts
# ---------------------------------------------------------------------------

QN_TEXT = """
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;

  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;

  PRINT R[R.name, R.@pathCount];
}
"""

#: Figure 4 of the paper, plus a PRINT of every score so the response
#: body carries the result.
PAGERANK_TEXT = """
CREATE QUERY PageRank (float maxChange, int maxIteration, float dampingFactor) {
  MaxAccum<float> @@maxDifference = 9999.0;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;

  AllV = {Page.*};

  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
     @@maxDifference = 0;
     S = SELECT v
         FROM       AllV:v -(LinkTo>)- Page:n
         ACCUM      n.@received_score += v.@score / v.outdegree()
         POST_ACCUM v.@score = 1 - dampingFactor + dampingFactor * v.@received_score,
                    v.@received_score = 0,
                    @@maxDifference += abs(v.@score - v.@score');
  END;

  PRINT AllV[AllV.name, AllV.@score];
}
"""
PAGERANK_PARAMS = {"maxChange": 0.0, "maxIteration": 3, "dampingFactor": 0.85}

PERSON_COUNT_TEXT = """
CREATE QUERY personCount() FOR GRAPH SNB {
  SumAccum<int> @@n;
  P = {Person.*};
  S = SELECT p FROM P:p ACCUM @@n += 1;
  PRINT @@n;
}
"""


# ---------------------------------------------------------------------------
# request streams.  Each yields *units*: lists of requests the window
# never splits (one request, or one ingest cycle).  A fixed number of
# consecutive units is a *lap*, and every lap asks for the same work —
# the same slots — whatever the seed: the seed orders the slots within
# each lap and draws what does not change how heavy a request is (query
# names, literals, batch contents).  So two runs, or two seeds, differ in
# nothing the program can be faster or slower at.  The same seed gives
# the same stream; streams never end.
# ---------------------------------------------------------------------------

#: The ten (kind, hops) texts ``ic_warm`` keeps in the plan cache.
IC_WARM_TEXTS = [(kind, hops) for hops in (2, 3) for kind in IC_KINDS]


def ic_warm_stream(rng: random.Random, pool: List[str]) -> Iterator[List[Request]]:
    """IC3/5/6/9/11 × hops {2,3} (ten texts, so the plan cache always
    hits), every text from every start person of ``pool``: one lap is
    that whole cross product in a seeded order."""
    slots = [
        ic_request(kind, hops, person) for kind, hops in IC_WARM_TEXTS for person in pool
    ]
    slots = [request._replace(slot=slot) for slot, request in enumerate(slots)]
    while True:
        for request in rng.sample(slots, len(slots)):
            yield [request]


def ic_warm_texts() -> List[Request]:
    """One request per distinct text, for the warm-up laps."""
    return [ic_request(kind, hops, "person:0") for kind, hops in IC_WARM_TEXTS]


def frontend_cold_stream(rng: random.Random, pool: List[str]) -> Iterator[List[Request]]:
    """IC h2 texts that never repeat: a per-request query name *and* a
    per-request numeric literal, so neither exact-text nor
    literal-normalising caches can hit.  One lap is every kind from every
    start person of ``pool``, in a seeded order."""
    tag = rng.randrange(16 ** 6)
    serial = 0
    slots = [(kind, person) for kind in IC_KINDS for person in pool]
    while True:
        for slot in rng.sample(range(len(slots)), len(slots)):
            kind, person = slots[slot]
            literal = draw_literal(kind, rng)
            params = ic_params(kind, person, literal)
            sent = {k: v for k, v in params.items() if k != "num"}
            text = ic_text(kind, 2, name=f"{kind}_{tag:06x}_{serial}", literal=literal)
            serial += 1
            yield [Request(
                f"{kind}_h2", "/query", _query_body(text, sent),
                {"ic": kind, "hops": 2, "params": params}, slot,
            )]


def qn_request(n: int) -> Request:
    params = {"srcName": "v0", "tgtName": f"v{n}"}
    return Request("qn", "/query", _query_body(QN_TEXT, params), {"n": n})


def pagerank_request() -> Request:
    return Request("pagerank", "/query", _query_body(PAGERANK_TEXT, PAGERANK_PARAMS), {})


def constant_stream(request: Request, lap: int) -> Iterator[List[Request]]:
    """The same request for ever; its place in the lap is its slot."""
    while True:
        for slot in range(lap):
            yield [request._replace(slot=slot)]


#: An inserted Person lives this many cycles before the stream deletes
#: it; after the first LAG cycles the graph's size is stationary.
INGEST_LAG = 8
_FIRST = ["Ada", "Bo", "Cy", "Di", "Ed", "Flo"]
_LAST = ["Ames", "Bell", "Cole", "Dorn", "Ezra", "Finn", "Gray", "Hale"]
_BROWSERS = ["Firefox", "Chrome", "Safari", "Opera"]


def ingest_ops(cycle: int, rng: random.Random, persons: List[str], tag: str) -> List[Dict[str, Any]]:
    """Ten operations (eight during the first ``INGEST_LAG`` cycles): two
    new Persons, three Knows edges from them into the base network, three
    attribute upserts on base Persons, and the deletion of the two Persons
    inserted ``INGEST_LAG`` cycles ago."""
    fresh = [f"bench:{tag}:{cycle}:{j}" for j in (0, 1)]
    ops: List[Dict[str, Any]] = []
    for vid in fresh:
        ops.append({
            "op": "upsert_vertex", "id": vid, "type": "Person",
            "attrs": {
                "firstName": rng.choice(_FIRST), "lastName": rng.choice(_LAST),
                "gender": rng.choice(["male", "female"]),
                "birthday": rng.randint(1950, 2000) * 10000 + 101,
                "browserUsed": rng.choice(_BROWSERS),
                "creationDate": 20120000 + rng.randint(1, 12) * 100 + rng.randint(1, 28),
            },
        })
    for source, target in zip((fresh[0], fresh[0], fresh[1]), rng.sample(persons, 3)):
        ops.append({
            "op": "upsert_edge", "source": source, "target": target,
            "type": "Knows", "attrs": {"creationDate": 20120601},
        })
    for vid in rng.sample(persons, 3):
        ops.append({
            "op": "upsert_vertex", "id": vid,
            "attrs": {"browserUsed": rng.choice(_BROWSERS)},
        })
    if cycle >= INGEST_LAG:
        for j in (0, 1):
            ops.append({"op": "delete_vertex", "id": f"bench:{tag}:{cycle - INGEST_LAG}:{j}"})
    return ops


def ingest_mixed_stream(rng: random.Random, persons: List[str],
                        pool: List[str]) -> Iterator[List[Request]]:
    """One ``POST /ingest`` then four ``POST /query`` per cycle: IC11 h2
    (the first read after the commit), the read-your-write Person count,
    IC9 h3, the count again.  Five equal shares whose latencies do not
    overlap — counts < IC11-after-commit < IC9 h3 < ingest — so the
    median sits in the middle of the first-read-after-commit share and
    the 90th percentile in the middle of the ingest share, not on a
    boundary between two kinds.  One lap is one cycle per start person
    of ``pool`` (both reads start from it), in a seeded order."""
    tag = f"{rng.randrange(16 ** 6):06x}"
    base = len(persons)
    cycle = 0
    while True:
        for index in rng.sample(range(len(pool)), len(pool)):
            ops = ingest_ops(cycle, rng, persons, tag)
            count = Request("count", "/query", _query_body(PERSON_COUNT_TEXT, {}),
                            {"persons": base + 2 * min(cycle + 1, INGEST_LAG)})
            unit = [
                Request("ingest", "/ingest", json.dumps({"ops": ops}).encode("utf-8"),
                        {"ops": len(ops), "cycle": cycle}),
                ic_request("ic11", 2, pool[index]),
                count,
                ic_request("ic9", 3, pool[index]),
                count,
            ]
            yield [r._replace(slot=5 * index + j) for j, r in enumerate(unit)]
            cycle += 1


def cli_cold_stream(rng: random.Random, pool: List[str]) -> Iterator[List[Request]]:
    """``repro run ic9_h2.gsql`` from every start person of ``pool``, in a
    seeded order."""
    slots = [
        Request("cli_ic9_h2", "", b"", {"ic": "ic9", "hops": 2, "params": ic_params("ic9", p)}, i)
        for i, p in enumerate(pool)
    ]
    while True:
        for request in rng.sample(slots, len(slots)):
            yield [request]
