"""A bounded, thread-safe least-recently-used cache with a weight budget.

`parse_lp` keeps parsed row skeletons and `build_bdd` compiled diagram
templates in one such cache each, for the life of the process, so that
instances which repeat a row's shape under other names or costs do not
derive it again.  Like the computed table of a BDD package (Brace, Rudell
& Bryant, DAC 1990) it is bounded and lossy: a miss only costs deriving
the entry again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class WeightedLru:
    """Entries whose weights sum to at most `budget`, least recently used dropped first.

    `put` retains an entry no heavier than the whole budget and evicts from
    the least recently used end until the retained weight fits again; a
    heavier entry is not retained.  One lock guards every read and write,
    so threads may share a cache.  Values are handed out as stored: callers
    must never mutate them.
    """

    __slots__ = ("budget", "weight", "_entries", "_lock")

    def __init__(self, budget):
        self.budget = budget
        self.weight = 0  # retained weight, at most `budget`
        self._entries = OrderedDict()  # key -> (value, weight), least recently used first
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key, default=None):
        """The value cached under `key`, now the most recently used, or `default`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, weight):
        """Retain `value` under `key` unless it outweighs the whole budget."""
        if weight > self.budget:
            return
        with self._lock:
            entries = self._entries
            old = entries.pop(key, None)
            if old is not None:
                self.weight -= old[1]
            entries[key] = (value, weight)
            self.weight += weight
            while self.weight > self.budget:
                self.weight -= entries.popitem(last=False)[1][1]

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.weight = 0
