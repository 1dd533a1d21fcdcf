"""The bounded caches of parsed documents (``universal.theory_from_json``,
``frobenius.frobenius_from_json`` and ``diagrams.diagram_from_json``) and
of the values a theory's diagrams evaluate to (``diagrams._Context``).

Each document reader keeps one ``LRU`` and reads through ``remember``: a
document is checked in full unless its exact JSON value equals one the
reader has already accepted within the bound, and then the object built
for that one is returned.  The memo key is the document's ``exact``
bytes, one C call, so this module alone decides when two documents are
the same.  Only plain JSON is remembered (``image``, walked on a miss),
so a document with a ``bool``, a ``float``, a tuple, a non-``str`` key or
a subclass of ``list``, ``dict``, ``str`` or ``int`` anywhere in it is
read in full on every call."""
import marshal
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


class _NotPlain(Exception):
    pass


def _image(value):
    t = type(value)
    if t is str or t is int or value is None:
        return value
    if t is list:
        return tuple([_image(x) for x in value])
    if t is dict:
        out = [dict]
        for k, x in value.items():
            if type(k) is not str:
                raise _NotPlain
            out += (k, _image(x))
        return tuple(out)
    raise _NotPlain


def image(value):
    """A hashable image of a JSON value, equal for two values exactly when
    they are equal with the same types: a list becomes a tuple, a dict with
    ``str`` keys a tuple tagged with ``dict`` of its keys and values in
    insertion order, and the leaves are ``str``, ``int`` (not ``bool``) or
    None.  Anything else (a ``bool``, a ``float``, a tuple, a non-``str``
    key, a subclass of ``list``, ``dict``, ``str`` or ``int``), or nesting
    too deep to walk, gives None."""
    try:
        return _image(value)
    except (_NotPlain, RecursionError):
        return None


def exact(value):
    """The type-exact bytes ``marshal.dumps(value, 2)``, or None for a
    value marshal refuses (a subclass of ``int``, ``str``, ``list`` or
    ``dict``, an unknown type, cyclic or too deep nesting).  They tell a
    ``bool`` from an ``int``, a tuple from a list and an ``int`` key from
    a ``str`` key.  Format 2 writes no back-references, which later
    formats make from object sharing and string interning, so equal
    values with equal key order give equal bytes."""
    try:
        return marshal.dumps(value, 2)
    except ValueError:
        return None


def remember(doc, tag, memo: LRU, read):
    """``read()``, or the value it gave before for a document equal to
    ``doc`` type for type and in key order, read with the same ``tag``.
    ``memo`` maps (exact bytes, tag) to that value; it is kept only once
    ``read`` returns, and only for plain JSON, so a rejected document
    raises the same error on every call."""
    b = exact(doc)
    if b is None:
        return read()
    value = memo.hit((b, tag))
    if value is None:
        value = read()
        if image(doc) is not None:
            memo.keep((b, tag), value)
    return value

