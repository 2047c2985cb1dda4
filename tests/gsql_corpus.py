"""The GSQL texts the lexer and parser differentials run over.

``REPOSITORY_TEXTS`` is every text the repository holds: the lint corpus
(``examples`` and the paper queries), the broken corpus and every other
query under ``tests``, the IC / algorithm library under ``src`` and the
benchmark templates.  ``BENCHMARK_TEXTS`` is what the end-to-end
benchmark sends: Qn, PageRank, the ten warm IC texts and one lap of
never-repeating ``frontend_cold``.  Both are ``(label, text)`` pairs.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

from repro.cli import _gsql_units

REPO = Path(__file__).resolve().parent.parent


def _repository_texts():
    units = []
    for tree in ("examples", "tests", "src", "benchmarks"):
        units.extend(_gsql_units(str(REPO / tree)))
    return units


def _benchmark_texts():
    spec = importlib.util.spec_from_file_location(
        "e2e_corpus", REPO / "benchmarks" / "e2e" / "corpus.py"
    )
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    texts = [("qn", corpus.QN_TEXT), ("pagerank", corpus.PAGERANK_TEXT)]
    for kind, hops in corpus.IC_WARM_TEXTS:
        texts.append((f"{kind}_h{hops}", corpus.ic_text(kind, hops)))
    rng = random.Random(7)
    for kind in corpus.IC_KINDS:
        for serial in range(10):
            text = corpus.ic_text(
                kind, 2, name=f"{kind}_{serial}",
                literal=corpus.draw_literal(kind, rng),
            )
            texts.append((f"cold_{kind}_{serial}", text))
    return texts


def content_id(label, text):
    # A test id that stays put when texts are added or moved: the text's
    # hash first, then the name of the file it came from.
    digest = hashlib.sha1(text.encode("utf-8")).hexdigest()[:10]
    return f"{digest}-{Path(label).name.split('[')[0]}"


REPOSITORY_TEXTS = _repository_texts()
BENCHMARK_TEXTS = _benchmark_texts()
