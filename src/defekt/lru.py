"""The bounded, content-keyed caches of parsed documents
(``universal.theory_from_json`` and ``frobenius.frobenius_from_json``) and
of the values a theory's diagrams evaluate to (``diagrams._Context``)."""
from collections import OrderedDict


class LRU(OrderedDict):
    """A map that keeps at most ``bound`` entries and drops the least
    recently used one first.  ``hit`` makes a found entry the most recent;
    ``keep`` stores a value as the most recent and returns it."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound

    def hit(self, key):
        """The value kept under ``key``, or None."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def keep(self, key, value):
        self[key] = value
        if len(self) > self.bound:
            self.popitem(last=False)
        return value
