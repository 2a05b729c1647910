"""A fixed pure-Python workload that measures how fast the host is right now.

It uses only the standard library, never the simulator, so a change to
the program cannot move it. It allocates 100k small objects and a dict
over them, visits them in shuffled order, and runs 50k heap push/pop
pairs. That is the same mix of allocation, pointer chasing and heap work
the simulator does. When other tenants slow the host down over minutes,
they slow this workload about as much as the simulator. Dividing the
simulator's time by this one's therefore cancels most of that drift (see
README.md).

``run.py`` runs it in a fresh interpreter of its own, so that neither the
workload's nor the runner's memory state moves it::

    python3 perfbench/reference.py     # prints the seconds one pass took
"""

from __future__ import annotations

import heapq
import random
import time


class _Item:
    __slots__ = ("key", "value", "name")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0
        self.name = str(key)


def reference_seconds() -> float:
    """Host seconds one pass of the reference workload takes."""
    rng = random.Random(3)
    started = time.perf_counter()
    items = [_Item(key) for key in range(100_000)]
    order = list(range(len(items)))
    rng.shuffle(order)
    by_name = {item.name: item for item in items}
    total = 0
    for index in order:
        item = items[index]
        total += item.key
        item.value = total & 7
    for item in items[:50_000]:
        total += by_name[item.name].value
    heap = [(rng.random(), slot) for slot in range(64)]
    heapq.heapify(heap)
    for _ in range(50_000):
        now, slot = heapq.heappop(heap)
        heapq.heappush(heap, (now + rng.random(), slot))
    return time.perf_counter() - started


if __name__ == "__main__":
    print(reference_seconds())
