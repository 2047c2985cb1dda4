"""The per-context execution record: who is observing this query.

Everything a running query reports into — the :mod:`repro.obs`
collector, the :mod:`repro.governor` governor, the :mod:`repro.accsan`
sanitizer — is *per-query* state (Section 4.3: a Map phase, then a
Reduce, under snapshot semantics, mutate nothing outside the query).
It lives in one immutable :class:`ExecCtx` held in one
:class:`contextvars.ContextVar`: every thread and every event-loop task
sees only its own value, so two concurrent queries cannot charge each
other's collector or governor by construction.

``collect()``, ``govern()`` and ``sanitize()`` are ``bind``/``reset``
pairs over that variable (inner shadows outer, outer restored on exit);
engine sites call :func:`current` once per instrumented *call* — never
per row, edge or product state — and hold the fields they need as
locals.  With nothing bound, :data:`NULL` is returned and every field
is ``None``: one context read and an identity check is the whole
off-path cost (``benchmarks/check_overhead.py`` holds it under 5%).

A new thread starts at :data:`NULL`; code that fans a query's work out
to threads hands each one the caller's context with
``contextvars.copy_context().run`` (see ``core.parallel``).
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Any, NamedTuple, Optional


class ExecCtx(NamedTuple):
    """The collector, governor and sanitizer bound in this context."""

    col: Optional[Any] = None
    gov: Optional[Any] = None
    san: Optional[Any] = None


#: Nothing bound: uninstrumented, ungoverned, unsanitized execution.
NULL = ExecCtx()

_CURRENT: ContextVar[ExecCtx] = ContextVar("repro.exec", default=NULL)

#: The calling context's :class:`ExecCtx` (:data:`NULL` when unbound).
current = _CURRENT.get


def bind(**fields: Any) -> Token:
    """Rebind the named fields for the calling context; the returned
    token restores the previous record through :func:`reset`."""
    return _CURRENT.set(_CURRENT.get()._replace(**fields))


#: Undo one :func:`bind` (must run in the context that made it).
reset = _CURRENT.reset


def clear() -> None:
    """Drop every binding: a forked worker inherits the forking
    thread's context and must start uninstrumented."""
    _CURRENT.set(NULL)


__all__ = ["ExecCtx", "NULL", "current", "bind", "reset", "clear"]
