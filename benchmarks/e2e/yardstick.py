"""How fast is the machine right now?  A fixed piece of pure-Python work,
owned by the benchmark and independent of the program under test.

The host this benchmark runs on is shared: for minutes at a time every
Python process on it runs 15-35% slower (memory-system contention from
other guests; nothing shows in ``/proc/stat``), and the program's
latency follows.  So the client runs this yardstick between requests —
at most once per ``INTERVAL_S``, while the server is idle — and the
window's timings are scaled by ``NOMINAL_MS`` ÷ the yardstick's lower
quartile in that window — the same quantile the timings themselves are
taken at (``measure``), so a slowdown that covers any share of the
window moves both alike.  Measured over 30 runs per workload, yardstick
and latency correlate at 0.8-0.95, and scaling takes the run-to-run
spread from 8-18% to 2-8%.  On a quiet machine the scale is 1.

The work is a mix, because the program's is: arithmetic, a breadth-first
search over a dict-of-lists graph keyed by strings, and allocation of
small dicts and tuples.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Dict, List, Sequence

#: The yardstick's lower quartile on the sandbox this benchmark was
#: written on, when the host is quiet; timings are reported at this speed.
NOMINAL_MS = 3.7
#: Least time between two samples: ~7% of the client's time.
INTERVAL_S = 0.05

_rng = random.Random(5)
_NODES = [f"n:{i}" for i in range(3000)]
_ADJACENT: Dict[str, List[str]] = {node: [] for node in _NODES}
for _node in _NODES:
    for _ in range(5):
        _other = _rng.choice(_NODES)
        _ADJACENT[_node].append(_other)
        _ADJACENT[_other].append(_node)


def sample() -> float:
    """Milliseconds the fixed work took this time."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    seen = {_NODES[7]}
    queue = deque(seen)
    while queue:
        for other in _ADJACENT[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    rows = [{"a": i, "b": (i, i)} for i in range(3000)]
    del rows
    return (time.perf_counter() - started) * 1000


def machine_ms(samples: Sequence[float]) -> float:
    """The lower quartile of a window's samples."""
    return sorted(samples)[len(samples) // 4]
