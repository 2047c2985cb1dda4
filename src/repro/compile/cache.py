"""The bounded LRU plan cache in front of the lowering pass.

Repeat traffic — the same query text hitting :mod:`repro.server` or the
CLI again — skips parse, analyze and lowering entirely: the cache maps
``(query text, schema version, engine-relevant flags)`` to a ready
:class:`~repro.compile.lowering.CompiledQuery`.

Keying and invalidation rules (also in ``docs/compilation.md``):

* **query text** is the exact source string — no normalization, so two
  spellings of the same query occupy two slots (cheap, and it keeps the
  key computation free);
* **schema version** is ``(schema.name, schema.fingerprint())`` — a
  *content* hash, so two structurally equal schema objects share plans
  while any type/attribute divergence isolates them (same text,
  different schema → different entry);
* **flags** is an opaque sorted tuple of engine-relevant strings the
  caller folds in (the CLI/server pass nothing today; anything that
  changes lowering output belongs here);
* an entry is dropped on lookup when its query's analysis epoch moved —
  ``Query.invalidate_analysis()`` bumps the epoch, so AST mutation
  invalidates every plan compiled from that query (counted as
  ``compile.cache.invalidated``, reported as a miss);
* capacity eviction is LRU (``compile.cache.eviction``).

Lookups are thread-safe (the server's thread-mode worker pool shares one
process-wide cache); compilation itself runs outside the lock, so a slow
compile never blocks unrelated hits.  The worst case is two threads
compiling the same text concurrently — both plans are valid, one wins
the insert.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..gsql.parser import parse_query
from ..obs import count as _count
from .lowering import CompiledQuery, compile_query

#: Default number of cached plans; at ~one lowered statement tree per
#: entry this is a few MB for typical workloads.
DEFAULT_CAPACITY = 128


class PlanCache:
    """A bounded LRU of compiled query plans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, CompiledQuery]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @staticmethod
    def schema_token(schema) -> Optional[Tuple[str, str]]:
        """The schema-version component of the cache key (None = schema-free)."""
        if schema is None:
            return None
        return (schema.name, schema.fingerprint())

    def key(self, text: str, schema=None, flags: Tuple[str, ...] = ()) -> Tuple:
        return (text, self.schema_token(schema), tuple(sorted(flags)))

    # ------------------------------------------------------------------
    def lookup(self, text: str, schema=None, flags: Tuple[str, ...] = ()):
        """The cached plan for a key, or None (LRU-touching on hit)."""
        key = self.key(text, schema, flags)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                _count("compile.cache.miss")
                return None
            if plan.stale:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                _count("compile.cache.invalidated")
                _count("compile.cache.miss")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _count("compile.cache.hit")
            plan.cache_status = "hit"
            return plan

    def insert(
        self, text: str, plan: CompiledQuery, schema=None,
        flags: Tuple[str, ...] = (),
    ) -> None:
        key = self.key(text, schema, flags)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                _count("compile.cache.eviction")

    def get_or_compile(
        self, text: str, schema=None, flags: Tuple[str, ...] = ()
    ) -> CompiledQuery:
        """The front door: parse + lower on miss, cached plan on hit.

        The returned plan's ``cache_status`` is ``"hit"`` or ``"miss"``.
        Parsing and lowering run outside the cache lock.
        """
        plan = self.lookup(text, schema, flags)
        if plan is not None:
            return plan
        query = parse_query(text)
        plan = compile_query(query, schema=schema, flags=flags)
        plan.cache_status = "miss"
        self.insert(text, plan, schema, flags)
        return plan

    # ------------------------------------------------------------------
    def invalidate(self, text: str, schema=None, flags: Tuple[str, ...] = ()) -> bool:
        """Drop one entry (True if it existed)."""
        key = self.key(text, schema, flags)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.invalidations += 1
                _count("compile.cache.invalidated")
                return True
        return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


# ---------------------------------------------------------------------------
# Process-wide singleton (the CLI and server share warm plans).
# ---------------------------------------------------------------------------

_CACHE: Optional[PlanCache] = None
_CACHE_LOCK = threading.Lock()


def plan_cache() -> PlanCache:
    """The process-wide plan cache (created on first use)."""
    global _CACHE
    if _CACHE is None:
        with _CACHE_LOCK:
            if _CACHE is None:
                _CACHE = PlanCache()
    return _CACHE


def reset_plan_cache() -> None:
    """Drop the process-wide cache (forked server workers, tests)."""
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = None


def compile_query_text(
    text: str,
    schema=None,
    flags: Tuple[str, ...] = (),
    cache: Optional[PlanCache] = None,
) -> CompiledQuery:
    """Compile GSQL text through the (default: process-wide) plan cache.

    The convenience entry point::

        from repro import compile_query_text
        plan = compile_query_text(source)
        result = plan.run(graph, srcName="A", tgtName="B")
        plan.cache_status   # "miss" first time, "hit" on repeats
    """
    return (cache or plan_cache()).get_or_compile(text, schema, flags)


__all__ = [
    "DEFAULT_CAPACITY",
    "PlanCache",
    "compile_query_text",
    "plan_cache",
    "reset_plan_cache",
]
