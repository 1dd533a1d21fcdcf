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
diagram into a scalar.  ``state_space_dim`` and ``hom_dim`` never decide
equality of open diagrams syntactically: they pair a spanning set of
diagrams against the mirrored spanning set through closed evaluation and
take the rank of the Gram matrix, so two diagrams are identified exactly
when all their closures agree.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import (
    AlphabetMismatch,
    BoundaryMismatch,
    DefektError,
    NotClosed,
    OrientationClash,
    SchemaError,
    SizeBound,
)
from .exactla import Matrix
from .series import Word, word_from_json
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


# Longest boundary whose spanning set is enumerated: the matchings and
# their decorations grow factorially with the number of points.
SIZE_BOUND = 8


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
    BoundaryMismatch or OrientationClash at construction.
    """

    bottom: str
    top: str
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        _check_signs(self.bottom, "bottom")
        _check_signs(self.top, "top")
        self._validate()

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

    comps = []
    for c in d.components:
        if isinstance(c, Arc):
            comps.append(Arc(flip(c.tail), flip(c.head), c.word))
        elif isinstance(c, HalfInterval):
            comps.append(HalfInterval(flip(c.end), c.word, c.label))
        else:
            comps.append(c)
    return Diagram(mirror_signs(d.top), mirror_signs(d.bottom), tuple(comps))


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side, d2 to the right of d1."""
    b_off, t_off = len(d1.bottom), len(d1.top)

    def shift(ref: tuple) -> tuple:
        side, i = ref
        return (side, i + (b_off if side == "bottom" else t_off))

    comps = list(d1.components)
    for c in d2.components:
        if isinstance(c, Arc):
            comps.append(Arc(shift(c.tail), shift(c.head), c.word))
        elif isinstance(c, HalfInterval):
            comps.append(HalfInterval(shift(c.end), c.word, c.label))
        else:
            comps.append(c)
    return Diagram(d1.bottom + d2.bottom, d1.top + d2.top, tuple(comps))


# -- gluing -------------------------------------------------------------------


def _check_letters(num_letters: int, word) -> None:
    for a in word:
        if not isinstance(a, int) or a < 0 or a >= num_letters:
            raise AlphabetMismatch(
                f"letter index {a!r} outside alphabet of size {num_letters}"
            )


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
            _check_letters(nl, c.word)

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

    new_comps: list = []
    visited = [False] * len(segs)
    for start, s in enumerate(segs):
        if visited[start] or s["head"][0] == "junction":
            continue
        word: Word = ()
        cur = start
        while True:
            visited[cur] = True
            word = word + segs[cur]["word"]
            tail = segs[cur]["tail"]
            if tail[0] != "junction":
                break
            nxt = head_at.get(tail[1])
            if nxt is None:
                raise OrientationClash(
                    f"no strand head at glued point {tail[1]}"
                )
            cur = nxt
        head = s["head"]
        if head[0] == "outer" and tail[0] == "outer":
            new_comps.append(Arc((tail[1], tail[2]), (head[1], head[2]), word))
        elif head[0] == "outer":
            new_comps.append(HalfInterval((head[1], head[2]), word, tail[1]))
        elif tail[0] == "outer":
            new_comps.append(HalfInterval((tail[1], tail[2]), word, head[1]))
        else:
            new_comps.append(FloatingInterval(word, head[1], tail[1]))
    for start in range(len(segs)):
        if visited[start]:
            continue
        word = ()
        cur = start
        while True:
            visited[cur] = True
            word = word + segs[cur]["word"]
            nxt = head_at.get(segs[cur]["tail"][1])
            if nxt is None:
                raise OrientationClash("broken loop through the glued boundary")
            cur = nxt
            if cur == start:
                break
        new_comps.append(FloatingCircle(word))

    return Diagram(d1.bottom, d2.top, tuple(floats) + tuple(new_comps))


# -- evaluation ---------------------------------------------------------------


class _Context:
    """Per-theory caches: the theory's minimal state space and arc word
    family, and memoized interval, circle and Gram computations.  It holds
    no reference to the theory, so the theory's lifetime bounds its own."""

    def __init__(self, t: Theory):
        self.field = t.field
        self.circular = t.circular
        self.space = t.statespace
        self.arc_words = t.arc_words
        self._act: dict = {}
        self._ival: dict = {}
        self._cval: dict = {}
        self._records: dict = {}
        self._dims: dict = {}

    def act(self, word: Word) -> Matrix:
        m = self._act.get(word)
        if m is None:
            m = self.space.act(word)
            self._act[word] = m
        return m

    def _basis_row(self, j: int) -> Matrix:
        F = self.field
        return Matrix.row_vector(
            F, [F.one if i == j else F.zero for i in range(self.space.dim)]
        )

    def _basis_col(self, j: int) -> Matrix:
        F = self.field
        return Matrix.col_vector(
            F, [F.one if i == j else F.zero for i in range(self.space.dim)]
        )

    def interval_value(self, word: Word, head_label: int | None = None,
                       tail_label: int | None = None):
        key = (word, head_label, tail_label)
        v = self._ival.get(key)
        if v is None:
            k = self.space.dim
            for lbl in (head_label, tail_label):
                if lbl is not None and not 0 <= lbl < k:
                    raise DefektError(
                        f"inner label {lbl} outside a state space of "
                        f"dimension {k}"
                    )
            row = (self.space.cotrace if head_label is None
                   else self._basis_row(head_label))
            col = (self.space.cyclic if tail_label is None
                   else self._basis_col(tail_label))
            v = (row * self.act(word) * col)[0, 0]
            self._ival[key] = v
        return v

    def circle_value(self, word: Word):
        v = self._cval.get(word)
        if v is None:
            v = self.circular.value(word)
            self._cval[word] = v
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
            val = val * ctx.interval_value(c.word, c.head_label, c.tail_label)
        else:
            raise NotClosed("a boundary-attached component remains")
    return val


# -- state spaces -------------------------------------------------------------


@dataclass(frozen=True)
class _Record:
    """A spanning diagram of A(eps) in combinatorial form: arcs between
    matched in/out points plus decorated half-intervals on the rest."""

    arcs: tuple
    arc_ws: tuple
    kets: tuple
    ket_ws: tuple
    bras: tuple
    bra_ws: tuple


def _spanning_records(ctx: _Context, eps: str) -> list:
    recs = ctx._records.get(eps)
    if recs is not None:
        return recs
    space = ctx.space
    ins = tuple(i for i, s in enumerate(eps) if s == "-")
    outs = tuple(i for i, s in enumerate(eps) if s == "+")
    recs = []
    for j in range(min(len(ins), len(outs)) + 1):
        for ci in combinations(ins, j):
            for co in combinations(outs, j):
                rest_in = tuple(p for p in ins if p not in ci)
                rest_out = tuple(p for p in outs if p not in co)
                for matched in permutations(co):
                    arcs = tuple(zip(ci, matched))
                    for arc_ws in product(ctx.arc_words, repeat=j):
                        for ket_ws in product(space.word_basis,
                                              repeat=len(rest_out)):
                            for bra_ws in product(space.cobasis_words,
                                                  repeat=len(rest_in)):
                                recs.append(_Record(arcs, arc_ws, rest_out,
                                                    ket_ws, rest_in, bra_ws))
    ctx._records[eps] = recs
    return recs


def _record_diagram(eps: str, rec: _Record) -> Diagram:
    comps: list = []
    for (pin, pout), w in zip(rec.arcs, rec.arc_ws):
        comps.append(Arc(("top", pin), ("top", pout), w))
    for p, w in zip(rec.kets, rec.ket_ws):
        comps.append(HalfInterval(("top", p), w))
    for p, w in zip(rec.bras, rec.bra_ws):
        comps.append(HalfInterval(("top", p), w))
    return Diagram("", eps, tuple(comps))


def spanning_diagrams(t: Theory, eps: str) -> list:
    """The spanning set of A(eps) as diagrams: all orientation-compatible
    partial matchings, arcs decorated by the arc word family and
    half-intervals by the state-space basis and cobasis words."""
    eps = _check_signs(eps, "eps")
    _check_size(len(eps), "sign sequence of length")
    ctx = _context(t)
    return [_record_diagram(eps, r) for r in _spanning_records(ctx, eps)]


def _pair_value(ctx: _Context, eps: str, x: _Record, y: _Record):
    """Closed evaluation of a spanning element x of A(eps) against the
    mirror of a spanning element y of A(mirror_signs(eps)).

    Point p of eps joins x's strand end with y's strand end for the
    mirrored point; chains are walked from each covector head so words
    concatenate in evaluation order.  This matches gluing the two
    diagrams with ``compose`` and evaluating, without building them.
    """
    n = len(eps)
    x_end: list = [None] * n
    y_end: list = [None] * n
    for a_idx, (pin, pout) in enumerate(x.arcs):
        x_end[pin] = ("a", a_idx, False)
        x_end[pout] = ("a", a_idx, True)
    for i, p in enumerate(x.kets):
        x_end[p] = ("k", i)
    for i, p in enumerate(x.bras):
        x_end[p] = ("b", i)
    for a_idx, (qin, qout) in enumerate(y.arcs):
        y_end[n - 1 - qin] = ("a", a_idx, False)
        y_end[n - 1 - qout] = ("a", a_idx, True)
    for i, q in enumerate(y.kets):
        y_end[n - 1 - q] = ("k", i)
    for i, q in enumerate(y.bras):
        y_end[n - 1 - q] = ("b", i)

    used_x = [False] * len(x.arcs)
    used_y = [False] * len(y.arcs)

    def chase(side: str, p: int, word: Word) -> Word:
        # walk upstream from boundary point p, entering each strand at its
        # head, until a state-vector end closes the interval
        while True:
            end = x_end[p] if side == "x" else y_end[p]
            if end[0] == "k":
                return word + (x.ket_ws if side == "x" else y.ket_ws)[end[1]]
            if end[0] != "a" or not end[2]:
                raise OrientationClash(
                    f"expected a strand head at point {p}"
                )
            a_idx = end[1]
            if side == "x":
                used_x[a_idx] = True
                word = word + x.arc_ws[a_idx]
                p = x.arcs[a_idx][0]
                side = "y"
            else:
                used_y[a_idx] = True
                word = word + y.arc_ws[a_idx]
                p = n - 1 - y.arcs[a_idx][0]
                side = "x"

    val = ctx.field.one
    for i, p in enumerate(x.bras):
        val = val * ctx.interval_value(chase("y", p, x.bra_ws[i]))
    for i, q in enumerate(y.bras):
        val = val * ctx.interval_value(chase("x", n - 1 - q, y.bra_ws[i]))
    for a0 in range(len(x.arcs)):
        if used_x[a0]:
            continue
        word: Word = ()
        side, a_idx = "x", a0
        while True:
            if side == "x":
                used_x[a_idx] = True
                word = word + x.arc_ws[a_idx]
                p = x.arcs[a_idx][0]
                side = "y"
            else:
                used_y[a_idx] = True
                word = word + y.arc_ws[a_idx]
                p = n - 1 - y.arcs[a_idx][0]
                side = "x"
            end = x_end[p] if side == "x" else y_end[p]
            if end[0] != "a" or not end[2]:
                raise OrientationClash(
                    f"expected a strand head at point {p}"
                )
            a_idx = end[1]
            if side == "x" and a_idx == a0:
                break
        val = val * ctx.circle_value(word)
    return val


def _dim_of(ctx: _Context, eps: str) -> int:
    dim = ctx._dims.get(eps)
    if dim is not None:
        return dim
    xs = _spanning_records(ctx, eps)
    ys = _spanning_records(ctx, mirror_signs(eps))
    if not xs or not ys:
        dim = 0
    else:
        # pair values are field values already: they start from field.one
        rows = tuple(tuple(_pair_value(ctx, eps, xr, yr) for xr in xs) for yr in ys)
        dim = Matrix._of_values(ctx.field, rows, len(xs)).rank()
    ctx._dims[eps] = dim
    return dim


def state_space_dim(t: Theory, eps: str) -> int:
    """Dimension of the state space A(eps): the rank of the Gram matrix of
    the spanning set against the mirrored spanning set."""
    eps = _check_signs(eps, "eps")
    _check_size(len(eps), "sign sequence of length")
    return _dim_of(_context(t), eps)


def hom_dim(t: Theory, eps: str, eps2: str) -> int:
    """Dimension of Hom(eps, eps2), computed by bending: the state space of
    the reversed sign-flipped eps concatenated with eps2."""
    eps = _check_signs(eps, "eps")
    eps2 = _check_signs(eps2, "eps2")
    _check_size(len(eps) + len(eps2), "total boundary length")
    return _dim_of(_context(t), mirror_signs(eps) + eps2)


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
    """
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
