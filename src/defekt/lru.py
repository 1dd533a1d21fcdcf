"""The bounded, content-keyed caches of parsed documents
(``universal.theory_from_json`` and ``frobenius.frobenius_from_json``) and
of the values a theory's diagrams evaluate to (``diagrams._Context``).

A document reader checks a document in full unless its exact JSON value
equals one it has already accepted within the bound: ``read_once`` keeps,
beside the objects, a memo from the document's ``image`` to the content
key the full read gave.  Only plain JSON has an image, so a document with
a ``bool``, a ``float``, a tuple, a non-``str`` key or a subclass of
``list``, ``dict``, ``str`` or ``int`` anywhere in it is read in full on
every call."""
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


def read_once(doc, tag, memo: LRU, kept: LRU, read, build):
    """The object a document reader returns for ``doc`` read with ``tag``
    (its field).  ``read()`` reads and checks the document in full and
    gives its content key, ``build(key)`` the object for a content key,
    which ``kept`` holds by content.  ``memo`` maps (image, tag) to the
    content key of a document accepted before, so an equal document skips
    the read; a document is put in it only once its object is returned, so
    a rejected one raises the same error on every call."""
    img = image(doc)
    key = None if img is None else memo.hit((img, tag))
    fresh = key is None
    if fresh:
        key = read()
    obj = kept.hit(key)
    if obj is None:
        obj = kept.keep(key, build(key))
    if fresh and img is not None:
        memo.keep((img, tag), key)
    return obj
