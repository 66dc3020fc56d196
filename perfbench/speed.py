"""Machine speed, measured with a fixed kernel that does not use implang.

On a shared host the same code can run up to twice as slow from one second
to the next, which would swamp most changes to implang.  The benchmark
therefore runs this kernel before every op and scales the times of each pass
by ``REFERENCE_S`` over the kernel's mean time in that pass.  Times are
reported in reference seconds: slow periods of the host largely cancel out,
while a change to implang moves the figures in full.
"""
from __future__ import annotations

import statistics
from time import perf_counter
from xml.etree import ElementTree

# The kernel's time on the reference machine: 1 ms, about its median between
# ops on a 2-vCPU VM under Python 3.11.
REFERENCE_S = 1e-3

_KEYS = tuple(f"v{i}" for i in range(16))
_XML = "<answer>" + "".join(
    f"<step><rule>{i % 78}</rule><program_state>"
    + "".join(f"<{key}>{i * j}</{key}>" for j, key in enumerate(_KEYS[:8]))
    + "</program_state></step>"
    for i in range(60)) + "</answer>"


def kernel() -> int:
    """Interpreter-style dict, tuple and string traffic, then an XML parse
    and walk, the two kinds of work the workloads do."""
    store: dict[str, int] = {}
    acc = 0
    for i in range(1000):
        key = _KEYS[i & 15]
        store[key] = store.get(key, 0) + i
        pair = (key, i % 7)
        acc += len(str(i)) + pair[1]
    for step in ElementTree.fromstring(_XML):
        acc += int(step[0].text) + sum(len(value.text) for value in step[1])
    return acc + len(store)


class SpeedProbe:
    """Kernel times sampled between units of work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
