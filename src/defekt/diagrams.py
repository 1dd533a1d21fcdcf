"""Oriented decorated one-manifold diagrams between sign sequences.

A diagram is a morphism from a bottom sign sequence to a top one; sign
sequences are plain strings over '+' and '-'.  The signs fix every
strand's direction: at a bottom '+' or a top '-' the strand points into
the diagram, at a bottom '-' or a top '+' it points out.  Strands carry
words, stored head first: the leftmost letter sits nearest the endpoint
the strand points into, which is the order the interval evaluation
consumes, so a floating interval with word w is worth exactly the
interval value of w.

``compose`` glues two diagrams and chases strands through the shared
boundary, concatenating words; strands that close up stay in the result
as floating intervals or circles until ``evaluate_closed`` turns the
diagram into a scalar.  ``spanning_diagrams`` lists a spanning set of
A(eps); two diagrams are identified exactly when all their closures agree.
``state_space_dim`` and ``hom_dim`` take the paper's route instead of
ranking the closures: the state spaces are the Frobenius-Brauer category
of the kernel algebra K modulo negligible morphisms, so dim A(eps) depends
only on the numbers of '+' and '-', dim A(+) and the ranks D_K(r) of K's
pairing of r decorated strands.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, factorial

from .errors import (
    BoundaryMismatch,
    InvalidArgument,
    NotClosed,
    OrientationClash,
    SchemaError,
    SizeBound,
)
from .exactla import Matrix
from .lru import LRU, remember
from .series import Word, _check_word, canonical_rotation, word_from_json
from .universal import Theory

__all__ = [
    "Arc",
    "Diagram",
    "FloatingCircle",
    "FloatingInterval",
    "HalfInterval",
    "compose",
    "diagram_from_json",
    "evaluate_closed",
    "hom_dim",
    "mirror",
    "mirror_signs",
    "spanning_diagrams",
    "state_space_dim",
    "tensor",
]


# Longest boundary: the matchings and their decorations grow factorially
# with the number of points.
SIZE_BOUND = 8

# Most Gram entries a dimension is ranked from: D_K(r) pairs r! (dim K)^r
# elements, so a short boundary can exceed it when K is large.
GRAM_BOUND = 2 ** 18

# Most interval and most circle values each theory's context keeps.
VALUE_MEMO = 512

# Most diagram pieces diagram_from_json remembers, keyed by their exact
# document and alphabet; the least recently read one is dropped first.
PIECE_MEMO = 256
_pieces = LRU(PIECE_MEMO)


def _check_size(n: int, what: str) -> None:
    if n > SIZE_BOUND:
        raise SizeBound(f"{what} {n} exceeds the bound {SIZE_BOUND}")


def _check_signs(s, what: str) -> str:
    if not isinstance(s, str) or any(c not in "+-" for c in s):
        raise BoundaryMismatch(f"{what} must be a string of '+' and '-' signs")
    return s


def mirror_signs(eps: str) -> str:
    """Reverse a sign sequence and flip every sign."""
    _check_signs(eps, "sign sequence")
    return "".join("+" if c == "-" else "-" for c in reversed(eps))


def _is_in_point(side: str, sign: str) -> bool:
    """Whether the strand at this boundary point directs into the diagram."""
    return sign == ("+" if side == "bottom" else "-")


@dataclass(frozen=True)
class Arc:
    """A strand with both endpoints on the boundary, flowing tail to head."""

    tail: tuple
    head: tuple
    word: Word = ()

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(self.tail))
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class HalfInterval:
    """A strand with one boundary endpoint and one floating inner endpoint.

    At an out-point it is a state vector, at an in-point a covector.  An
    integer label picks a basis vector (or basis covector) for the inner
    endpoint; ``None`` means the distinguished empty-word end.
    """

    end: tuple
    word: Word = ()
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "end", tuple(self.end))
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class FloatingInterval:
    """A closed-off interval, evaluated through the interval series.

    ``head_label``/``tail_label`` index the basis covector at the head and
    the basis vector at the tail; ``None`` uses the distinguished ends, so
    a fully unlabelled interval with word w is worth the interval value
    of w and an (i, j)-labelled empty interval is worth the dual-basis
    pairing delta.
    """

    word: Word = ()
    head_label: int | None = None
    tail_label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class FloatingCircle:
    """A closed loop carrying a cyclic word, evaluated by the circle series."""

    word: Word = ()

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class Diagram:
    """An oriented decorated one-manifold between two sign sequences.

    Every boundary point is used by exactly one component, and arcs must
    flow from an in-point to an out-point; violations raise
    BoundaryMismatch or OrientationClash at construction.  The diagrams
    that ``compose``, ``mirror`` and ``tensor`` build from checked ones,
    and those ``spanning_diagrams`` builds from a spanning record, are
    valid by construction and are not checked again (``_built``).
    """

    bottom: str
    top: str
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        _check_signs(self.bottom, "bottom")
        _check_signs(self.top, "top")
        self._validate()

    @classmethod
    def _built(cls, bottom: str, top: str, components: tuple) -> "Diagram":
        """A diagram the library built from checked diagrams, unchecked."""
        d = object.__new__(cls)
        vars(d).update(bottom=bottom, top=top, components=components)
        return d

    def _sign_at(self, ref: tuple) -> str:
        side, i = ref
        seq = self.bottom if side == "bottom" else self.top
        return seq[i]

    def _validate(self) -> None:
        seen: set = set()

        def take(ref) -> None:
            if (
                not isinstance(ref, tuple)
                or len(ref) != 2
                or ref[0] not in ("bottom", "top")
                or not isinstance(ref[1], int)
                or isinstance(ref[1], bool)
            ):
                raise BoundaryMismatch(f"bad endpoint reference {ref!r}")
            side, i = ref
            seq = self.bottom if side == "bottom" else self.top
            if not 0 <= i < len(seq):
                raise BoundaryMismatch(f"endpoint {ref!r} out of range")
            if ref in seen:
                raise BoundaryMismatch(f"boundary point {ref!r} used twice")
            seen.add(ref)

        for c in self.components:
            if isinstance(c, Arc):
                take(c.tail)
                take(c.head)
                if not _is_in_point(c.tail[0], self._sign_at(c.tail)):
                    raise OrientationClash(
                        f"arc tail {c.tail!r} sits at an outward point"
                    )
                if _is_in_point(c.head[0], self._sign_at(c.head)):
                    raise OrientationClash(
                        f"arc head {c.head!r} sits at an inward point"
                    )
            elif isinstance(c, HalfInterval):
                take(c.end)
            elif not isinstance(c, (FloatingInterval, FloatingCircle)):
                raise BoundaryMismatch(f"unknown component {c!r}")
        total = len(self.bottom) + len(self.top)
        if len(seen) != total:
            raise BoundaryMismatch(
                f"{len(seen)} of {total} boundary points are used; every "
                "point must be used exactly once"
            )


def _moved(components: tuple, move) -> tuple:
    """The components with every boundary endpoint sent through move."""
    return tuple(
        Arc(move(c.tail), move(c.head), c.word) if isinstance(c, Arc)
        else HalfInterval(move(c.end), c.word, c.label)
        if isinstance(c, HalfInterval) else c
        for c in components
    )


def mirror(d: Diagram) -> Diagram:
    """Rotate a diagram by a half turn.

    Top and bottom swap, each reversed and sign-flipped; every strand
    keeps its orientation, word and labels, so closures of a diagram
    against the mirror of another are well formed.
    """
    nb, nt = len(d.bottom), len(d.top)

    def flip(ref: tuple) -> tuple:
        side, i = ref
        if side == "top":
            return ("bottom", nt - 1 - i)
        return ("top", nb - 1 - i)

    return Diagram._built(mirror_signs(d.top), mirror_signs(d.bottom),
                          _moved(d.components, flip))


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side, d2 to the right of d1."""
    b_off, t_off = len(d1.bottom), len(d1.top)

    def shift(ref: tuple) -> tuple:
        side, i = ref
        return (side, i + (b_off if side == "bottom" else t_off))

    return Diagram._built(d1.bottom + d2.bottom, d1.top + d2.top,
                          d1.components + _moved(d2.components, shift))


# -- gluing -------------------------------------------------------------------


def _glued_end(d_idx: int, ref: tuple) -> tuple:
    side, i = ref
    if d_idx == 0:
        return ("junction", i) if side == "top" else ("outer", "bottom", i)
    return ("junction", i) if side == "bottom" else ("outer", "top", i)


def compose(t: Theory, d1: Diagram, d2: Diagram) -> Diagram:
    """Glue d1's top onto d2's bottom and chase strands through.

    Each glued chain is walked from its head, so the concatenated word is
    in evaluation order; chains touching no remaining boundary stay in
    the result as FloatingInterval or FloatingCircle components.
    """
    if d1.top != d2.bottom:
        raise BoundaryMismatch(
            f"cannot glue top {d1.top!r} onto bottom {d2.bottom!r}"
        )
    nl = len(t.alphabet)
    for d in (d1, d2):
        for c in d.components:
            _check_word(nl, c.word)

    floats: list = []
    segs: list[dict] = []
    for d_idx, d in ((0, d1), (1, d2)):
        for c in d.components:
            if isinstance(c, (FloatingInterval, FloatingCircle)):
                floats.append(c)
            elif isinstance(c, Arc):
                segs.append({
                    "word": c.word,
                    "head": _glued_end(d_idx, c.head),
                    "tail": _glued_end(d_idx, c.tail),
                })
            else:
                side, i = c.end
                sign = (d.bottom if side == "bottom" else d.top)[i]
                outer = _glued_end(d_idx, c.end)
                if _is_in_point(side, sign):
                    segs.append({"word": c.word, "head": ("inner", c.label),
                                 "tail": outer})
                else:
                    segs.append({"word": c.word, "head": outer,
                                 "tail": ("inner", c.label)})

    head_at: dict[int, int] = {}
    tail_at: dict[int, int] = {}
    for idx, s in enumerate(segs):
        for role, store in (("head", head_at), ("tail", tail_at)):
            ep = s[role]
            if ep[0] == "junction":
                if ep[1] in store:
                    raise OrientationClash(
                        f"two strand {role}s meet at glued point {ep[1]}"
                    )
                store[ep[1]] = idx

    visited = [False] * len(segs)

    def chain(start: int):
        """The word from segs[start] on along tails through glued points,
        and the outer or inner end reached, or None back at start."""
        word: Word = ()
        cur = start
        while True:
            visited[cur] = True
            word = word + segs[cur]["word"]
            tail = segs[cur]["tail"]
            if tail[0] != "junction":
                return word, tail
            cur = head_at.get(tail[1])
            if cur is None:
                raise OrientationClash(f"no strand head at glued point {tail[1]}")
            if cur == start:
                return word, None

    # open chains and floating intervals from their heads, then circles
    new_comps: list = []
    heads = [i for i, s in enumerate(segs) if s["head"][0] != "junction"]
    for start in heads + list(range(len(segs))):
        if visited[start]:
            continue
        word, tail = chain(start)
        head = segs[start]["head"]
        if tail is None:
            new_comps.append(FloatingCircle(word))
        elif head[0] == "outer" and tail[0] == "outer":
            new_comps.append(Arc((tail[1], tail[2]), (head[1], head[2]), word))
        elif head[0] == "outer":
            new_comps.append(HalfInterval((head[1], head[2]), word, tail[1]))
        elif tail[0] == "outer":
            new_comps.append(HalfInterval((tail[1], tail[2]), word, head[1]))
        else:
            new_comps.append(FloatingInterval(word, head[1], tail[1]))

    return Diagram._built(d1.bottom, d2.top, tuple(floats) + tuple(new_comps))


# -- evaluation ---------------------------------------------------------------


class _Context:
    """Per-theory caches: the last ``VALUE_MEMO`` interval and circle
    values each, spanning records, dimensions and the Brauer ranks D_K(r)
    of K (which the theory's pair algebra holds).  It holds no reference to
    the theory, so the theory's lifetime bounds its own, and it builds
    nothing: the state space is handed to ``interval_value`` by its
    caller."""

    def __init__(self, t: Theory):
        self.field = t.field
        self.circular = t.circular
        self._ival = LRU(VALUE_MEMO)
        self._cval = LRU(VALUE_MEMO)
        self._records: dict = {}
        self._dims: dict = {}
        self._brauer: dict = {0: 1}

    def interval_value(self, space, word: Word, head_label: int | None = None,
                       tail_label: int | None = None):
        """The interval carrying word on the theory's state space ``space``."""
        key = (word, head_label, tail_label)
        v = self._ival.hit(key)
        if v is None:
            k = space.dim
            for lbl in (head_label, tail_label):
                if lbl is not None and not 0 <= lbl < k:
                    raise InvalidArgument(
                        f"inner label {lbl} outside a state space of "
                        f"dimension {k}"
                    )
            # a labelled end reads one row or column of the action
            m = space.act(word)
            head, tail = head_label or 0, tail_label or 0
            if tail_label is None:
                m = m * space.final
            if head_label is None:
                m = space.init * m
            v = self._ival.keep(key, m[head, tail])
        return v

    def circle_value(self, word: Word):
        v = self._cval.hit(word)
        if v is None:
            v = self._cval.keep(word, self.circular.value(word))
        return v


_contexts: "weakref.WeakKeyDictionary[Theory, _Context]" = (
    weakref.WeakKeyDictionary()
)


def _context(t: Theory) -> _Context:
    """The context of a theory, dropped when the theory is freed."""
    ctx = _contexts.get(t)
    if ctx is None:
        ctx = _contexts[t] = _Context(t)
    return ctx


def evaluate_closed(t: Theory, d: Diagram):
    """Scalar value of a diagram with empty boundary: the product of its
    interval and circle values."""
    if d.bottom or d.top:
        raise NotClosed(
            f"diagram has boundary {d.bottom!r} -> {d.top!r}"
        )
    ctx = _context(t)
    val = t.field.one
    for c in d.components:
        if isinstance(c, FloatingCircle):
            val = val * ctx.circle_value(c.word)
        elif isinstance(c, FloatingInterval):
            val = val * ctx.interval_value(t.statespace, c.word, c.head_label,
                                           c.tail_label)
        else:
            raise NotClosed("a boundary-attached component remains")
    return val


# -- state spaces -------------------------------------------------------------


# A spanning diagram of A(eps) is kept as a tuple of what a walk against
# the strand direction finds at each point p, ``(kind, word, other)``: for
# an arc head, where a walk enters and goes on at ``other``, the arc's tail
# point; for an arc tail, which no walk reaches, its head point; for a
# state vector, where an interval ends, or a covector head, where one
# starts, None.
_HEAD, _TAIL, _KET, _BRA = "head", "tail", "ket", "bra"


def _spanning_records(t: Theory, eps: str) -> list:
    ctx = _context(t)
    recs = ctx._records.get(eps)
    if recs is not None:
        return recs
    space = t.statespace
    ins = tuple(i for i, s in enumerate(eps) if s == "-")
    outs = tuple(i for i, s in enumerate(eps) if s == "+")
    recs = []
    # one tuple per distinct (kind, word, other) triple of the records
    cells: dict = {}

    def cell(*triple) -> tuple:
        return cells.setdefault(triple, triple)

    for j in range(min(len(ins), len(outs)) + 1):
        for ci, co in product(combinations(ins, j), combinations(outs, j)):
            halves = ([(p, _KET, space.word_basis) for p in outs if p not in co]
                      + [(p, _BRA, space.cobasis_words) for p in ins if p not in ci])
            for matched in permutations(co):
                for arc_ws in product(t.arc_words, repeat=j):
                    for half_ws in product(*(words for _, _, words in halves)):
                        ends = [None] * len(eps)
                        for pin, pout, w in zip(ci, matched, arc_ws):
                            ends[pin] = cell(_TAIL, w, pout)
                            ends[pout] = cell(_HEAD, w, pin)
                        for (p, kind, _), w in zip(halves, half_ws):
                            ends[p] = cell(kind, w, None)
                        recs.append(tuple(ends))
    ctx._records[eps] = recs
    return recs


def _record_diagram(eps: str, ends: tuple) -> Diagram:
    # arcs by tail point, then state vectors, then covectors
    comps = [Arc(("top", p), ("top", q), w)
             for p, (kind, w, q) in enumerate(ends) if kind == _TAIL]
    for want in (_KET, _BRA):
        comps.extend(HalfInterval(("top", p), w)
                     for p, (kind, w, _) in enumerate(ends) if kind == want)
    return Diagram._built("", eps, tuple(comps))


def spanning_diagrams(t: Theory, eps: str) -> list:
    """The spanning set of A(eps) as diagrams: all orientation-compatible
    partial matchings, arcs decorated by the arc word family and
    half-intervals by the state-space basis and cobasis words."""
    eps = _check_signs(eps, "eps")
    _check_size(len(eps), "sign sequence of length")
    return [_record_diagram(eps, r) for r in _spanning_records(t, eps)]


def _brauer_rank(K, r: int) -> int:
    """D_K(r): the rank of the pairing of the r! n^r elements (sigma, a), a
    permutation of r strands with a basis element of K (dimension n) on
    each.  (sigma, a) against (tau, b) is the product, over the cycles of
    pi = tau^-1 sigma, of tr_K(k_a(i) k_b(pi i) k_a(pi i) k_b(pi^2 i) ...):
    the closed loops of the two matchings glued, each read around once;
    tr_K is cyclic, so a loop's trace is memoized by its rotation class."""
    perms = list(permutations(range(r)))
    decos = list(product(range(K.dim), repeat=r))
    loops = {}  # each permutation's cycles, as their steps (i, pi i)
    for pi in perms:
        seen, loops[pi] = set(), []
        for i in range(r):
            steps = []
            while i not in seen:
                seen.add(i)
                steps.append((i, pi[i]))
                i = pi[i]
            if steps:
                loops[pi].append(steps)
    traces: dict = {}
    rows = []
    for tau in perms:
        glued = [loops[tuple(tau.index(j) for j in sigma)] for sigma in perms]
        for b in decos:
            row = []
            for cycles in glued:
                for a in decos:
                    v = K.field.one
                    for steps in cycles:
                        w = canonical_rotation([x for i, j in steps for x in (a[i], b[j])])
                        if w not in traces:
                            traces[w] = K.trace_of(K.product(K.basis_columns[c] for c in w))
                        v = v * traces[w]
                    row.append(v)
            rows.append(tuple(row))
    return Matrix(K.field, rows, cols=len(rows)).rank()


def _dim_of(t: Theory, eps: str) -> int:
    """dim A(eps) = sum over r of C(p, r) C(m, r) k^(p+m-2r) D_K(r), with p
    and m the numbers of '+' and '-' in eps and k = dim A(+): each point
    splits into k copies of the unit and a part in K, the K-parts of r
    out-points pair off with those of r in-points, and D_K(0) = 1."""
    ctx = _context(t)
    p, m = eps.count("+"), eps.count("-")
    if (p, m) in ctx._dims:
        return ctx._dims[p, m]
    k = t.statespace.dim
    terms = [(r, c) for r in range(min(p, m) + 1)
             if (c := comb(p, r) * comb(m, r) * k ** (p + m - 2 * r))]
    top = terms[-1][0] if terms else 0
    if top:
        entries = (factorial(top) * t.pair_algebra.K_dim ** top) ** 2
        if entries > GRAM_BOUND:
            raise SizeBound(f"the Gram matrix of D_K({top}) for A({eps}) has "
                            f"{entries} entries, more than the bound {GRAM_BOUND}")
    for r, _ in terms:
        if r not in ctx._brauer:
            ctx._brauer[r] = _brauer_rank(t.pair_algebra.kernel, r)
    dim = ctx._dims[p, m] = sum(c * ctx._brauer[r] for r, c in terms)
    return dim


def state_space_dim(t: Theory, eps: str) -> int:
    """Dimension of the state space A(eps), by the paper's theorem: it
    depends only on the numbers of '+' and '-', dim A(+) and the Brauer
    ranks D_K(r) of the kernel algebra K (see ``_dim_of``)."""
    eps = _check_signs(eps, "eps")
    _check_size(len(eps), "sign sequence of length")
    return _dim_of(t, eps)


def hom_dim(t: Theory, eps: str, eps2: str) -> int:
    """Dimension of Hom(eps, eps2), computed by bending: the state space of
    the reversed sign-flipped eps concatenated with eps2."""
    eps = _check_signs(eps, "eps")
    eps2 = _check_signs(eps2, "eps2")
    _check_size(len(eps) + len(eps2), "total boundary length")
    return _dim_of(t, mirror_signs(eps) + eps2)


# -- JSON ingestion -----------------------------------------------------------


def _endpoint_from_json(doc, path: str) -> tuple:
    if (
        not isinstance(doc, list)
        or len(doc) != 2
        or doc[0] not in ("bottom", "top")
        or not isinstance(doc[1], int)
        or isinstance(doc[1], bool)
        or doc[1] < 0
    ):
        raise SchemaError(path, 'expected ["bottom"|"top", index]')
    return (doc[0], doc[1])


def _label_from_json(doc, path: str) -> int | None:
    if doc is None:
        return None
    if not isinstance(doc, int) or isinstance(doc, bool) or doc < 0:
        raise SchemaError(path, "expected a nonnegative basis index")
    return doc


def diagram_from_json(alphabet, doc, path: str = "$") -> Diagram:
    """Build a Diagram from its JSON document.

    Keys: bottom, top (sign strings, default empty) and components, a list
    of objects with kind arc (from, to, word), half (end, word, label),
    interval (word, head_label, tail_label) or circle (word).  Words are
    strings of letter names or arrays of letter names.  Structural
    problems raise SchemaError; a structurally valid but inconsistent
    diagram raises the matching domain error from the constructor.

    A piece is read and checked in full unless its exact JSON value
    (its ``lru.exact`` bytes, under the memo rule of ``lru``), under an
    equal alphabet, equals one of the last ``PIECE_MEMO`` pieces accepted;
    such a repeat gets that same immutable Diagram back.  A piece that
    differs in spelling, key order or an ignored key is read in full and
    gets a Diagram of its own.  A piece is remembered only once it has
    been accepted, so a rejected piece raises the same error at the same
    path on every call.
    """
    alphabet = tuple(alphabet)
    return remember(doc, alphabet, _pieces,
                    lambda: _diagram_read(alphabet, doc, path))


def _diagram_read(alphabet: tuple, doc, path: str) -> Diagram:
    """The Diagram of a piece document, read and checked in full."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a diagram object")
    for key in ("bottom", "top"):
        val = doc.get(key, "")
        if not isinstance(val, str) or any(c not in "+-" for c in val):
            raise SchemaError(f"{path}.{key}",
                              "expected a string of '+' and '-' signs")
    comps_doc = doc.get("components", [])
    if not isinstance(comps_doc, list):
        raise SchemaError(f"{path}.components", "expected an array")
    comps: list = []
    for i, c in enumerate(comps_doc):
        cp = f"{path}.components[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(cp, "expected a component object")
        kind = c.get("kind")
        word = word_from_json(alphabet, c.get("word", ""), f"{cp}.word")
        if kind == "arc":
            comps.append(Arc(
                _endpoint_from_json(c.get("from"), f"{cp}.from"),
                _endpoint_from_json(c.get("to"), f"{cp}.to"),
                word,
            ))
        elif kind == "half":
            comps.append(HalfInterval(
                _endpoint_from_json(c.get("end"), f"{cp}.end"),
                word,
                _label_from_json(c.get("label"), f"{cp}.label"),
            ))
        elif kind == "interval":
            comps.append(FloatingInterval(
                word,
                _label_from_json(c.get("head_label"), f"{cp}.head_label"),
                _label_from_json(c.get("tail_label"), f"{cp}.tail_label"),
            ))
        elif kind == "circle":
            comps.append(FloatingCircle(word))
        else:
            raise SchemaError(f"{cp}.kind", f"unknown component kind {kind!r}")
    return Diagram(doc.get("bottom", ""), doc.get("top", ""), tuple(comps))
