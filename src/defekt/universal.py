"""State spaces generated by interval and circle evaluations.

``minimize`` turns a linear presentation of an interval evaluation into the
minimal state space it generates: restrict to the span reachable from the
initial covector, then quotient by the span reachable from the final vector.
The result, a ``StateSpace``, is itself the minimal ``LinearRepresentation``
of the evaluation, with its basis and cobasis word families; its dimension
equals the rank of the (word x word) value matrix.
Every word family of this module (the two sides of ``minimize``, the
cobasis words and the arc words) comes from one breadth-first saturation,
``_saturate``, and is the first length-then-lex family of words whose
vectors are independent; the saturation carries each word's state as
integers.

``build_pair_algebra`` constructs the state space of a +- boundary pair as
a quotient of a concrete spanning model.  A spanning element is a triple
(Phi, R, A): Phi is the A(+) action of an arc joining the two boundary
points, R is the circle-presentation matrix recording how that arc closes
into circles, and A is the action of the whole element on A(+): Phi for an
arc, the matrix unit E_ij for a pair of half-intervals.  Products are
componentwise, (Phi1*Phi2, R1*R2, A1*A2), and the quotient splits as
Mat_k x K: the E_ij span the matrix part, acting on A(+), and K is
everything acting by zero.  An element is negligible exactly when A
vanishes and every circle closure vanishes; both conditions are finite
thanks to word saturation.  The quotient carries:

- the matrix ideal of half-interval pairs (dimension k^2),
- the kernel ideal K of elements acting by zero on A(+),
- the arc subalgebra U generated by decorated arcs,

with dim U = dim (U intersect matrix part) + dim K, and K a symmetric
Frobenius algebra under the circle-closure trace.  Triples are flat vectors
and the quotient is three fixed matrices on them (``PairAlgebra``): one row
reduction of [L * G | I], the functionals on the generators, gives the basis,
the class of every generator, these dimensions and M, which classes a
triple; K is the kernel of the A(+) action on that basis, held as a
Frobenius algebra, and a class in K has its K coordinates at the kernel's
free columns.  The classes of many triples are one product with M, and the
products of a batch of classes, pair by pair, are integer contractions
classed by one integer product with M.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import mul

from .errors import (
    FieldMismatch,
    InvalidArgument,
    SchemaError,
)
from .exactla import Echelon, Field, Matrix, _joined, field_from_json, hstack, vstack
from .lru import LRU, remember
from .series import (
    CircularRepresentation,
    LinearRepresentation,
    RationalFunction1,
    Word,
    _read_circrep,
    _read_linrep,
    rational1_from_json,
    rational_to_rep,
)

__all__ = [
    "IdempotentReport",
    "PairAlgebra",
    "StateSpace",
    "Theory",
    "arc_word_family",
    "build_pair_algebra",
    "frobenius_of_K",
    "idempotent_report",
    "interval_trace_series",
    "invariant_triple",
    "minimize",
    "project_word",
    "theory_from_json",
    "trace_K",
]


class StateSpace(LinearRepresentation):
    """Minimal state space of an interval evaluation: its minimal linear
    representation.

    ``value(w) = init * act(w) * final`` reproduces the evaluation;
    ``act(w) * final`` is the class of the word w, and the classes of
    ``word_basis`` are exactly the standard basis vectors, in order.
    ``cobasis_words`` is the analogous covector-side word family: the rows
    ``init * act(w)`` of its words are independent.
    """

    __slots__ = ("word_basis", "cobasis_words")

    def __init__(self, field, num_letters, dim, init, letters, final,
                 word_basis, cobasis_words):
        super().__init__(field, num_letters, dim, init, letters, final)
        object.__setattr__(self, "word_basis", tuple(word_basis))
        object.__setattr__(self, "cobasis_words", tuple(cobasis_words))


def _zero_statespace(field: Field, num_letters: int) -> StateSpace:
    return StateSpace(field, num_letters, 0, Matrix.zeros(field, 1, 0),
                      (Matrix.zeros(field, 0, 0),) * num_letters,
                      Matrix.zeros(field, 0, 1), (), ())


def _saturate(field: Field, start: tuple, letters: tuple,
              prepend: bool = False) -> tuple[list[Word], Matrix]:
    """Length-then-lex saturation: the kept words, in order, and the matrix
    whose row i is the state of word i.

    The empty word's state is ``start``, a tuple of matrices; ``letters``
    holds one sequence of letter matrices per entry.  A letter appended to
    a word multiplies each entry of its state on the right, or, with
    ``prepend``, goes in front and multiplies on the left.  From the empty
    word, each kept word is extended by every letter, and the candidates of
    one length are tested in sorted word order against one Echelon of the
    states.  Each length keeps a state or ends the search, so the words are
    shorter than the dimension of the span.

    A state is one flat integer vector, the entries of its matrices in
    order and row-major, standing for those ints over d: residues with
    d = 1 over F_p; over QQ, d = d0 * D^len(w), with d0 the common
    denominator of the start and D that of all the letter matrices.
    Scaling keeps independence, so the words are those of the same search
    on the matrices."""
    p = field.char
    shapes = [(m.rows, m.cols) for m in start]
    state, d = _joined(start)
    flat, D = _joined([a for ls in letters for a in ls])
    # lines[j][a]: the rows (prepend) or the columns of letter a of entry j
    ints = iter(flat)
    lines = [[_lines(list(islice(ints, a.rows * a.cols)), a.rows, a.cols, not prepend)
              for a in ls] for ls in letters]
    ech = Echelon(field)
    kept: list[tuple[Word, list, int]] = []
    layer = [((), state)]
    while layer:
        layer = [(w, v) for w, v in sorted(layer, key=lambda c: c[0]) if ech.add(v)]
        kept += [(w, v, d) for w, v in layer]
        grown = []
        for w, v in layer:
            entries = iter(v)
            parts = [_lines(list(islice(entries, r * c)), r, c, prepend) for r, c in shapes]
            for a in range(len(letters[0])):
                u = []
                for part, ls in zip(parts, lines):
                    left, right = (ls[a], part) if prepend else (part, ls[a])
                    u += [sum(map(mul, x, y)) for x in left for y in right]
                grown.append(((a,) + w if prepend else w + (a,),
                              [x % p for x in u] if p else u))
        layer, d = grown, d * D
    # the last state's denominator is a multiple of every earlier one's
    dk = kept[-1][2] if kept else 1
    return ([w for w, _, _ in kept],
            Matrix._of_ints(field, [x * (dk // d) for _, v, d in kept for x in v], dk,
                            len(kept), len(state)))


def _lines(e: list, r: int, c: int, columns: bool) -> list:
    """The rows of the r x c matrix whose entries, row-major, are e, or with
    ``columns`` its columns."""
    return [e[j::c] for j in range(c)] if columns else [e[i * c:(i + 1) * c] for i in range(r)]


def minimize(rep: LinearRepresentation) -> StateSpace:
    """The minimal state space of an interval presentation: the minimal
    linear representation with the same values.

    The presentation owns its minimal state space: the first call builds
    it and holds it on ``rep``, and every later call on the same object
    returns that same StateSpace, so ``minimize(rep) is minimize(rep)``.
    """
    ss = getattr(rep, "_minimal", None)
    if ss is None:
        ss = _minimize(rep)
        object.__setattr__(rep, "_minimal", ss)
    return ss


def _minimize(rep: LinearRepresentation) -> StateSpace:
    """The state space :func:`minimize` holds, built.

    Three word families, each from :func:`_saturate`: the covector side
    (rows init * act(w), words extended at the end), restriction to their
    span, then the vector side (columns act(w) * final on the restricted
    presentation, words extended at the front) and the quotient by it;
    finally the cobasis words, rows init * act(w) on the state space.  The
    restriction and the quotient solve for all letters at once.  Each
    family is the first length-then-lex family of words with independent
    vectors, and stabilizes at word length <= rep.dim.
    """
    F, nl = rep.field, rep.num_letters

    # forward (covector) side: rows init * act(w)
    W = _saturate(F, (rep.init,), (rep.letters,))[1]
    if not W.rows:
        return _zero_statespace(F, nl)
    restricted = [x.transpose() for x in
                  _solve_blocks(W.transpose(), [(W * a).transpose() for a in rep.letters])]
    gamma1 = W * rep.final

    # backward (vector) side on the restricted presentation
    word_basis, Vt = _saturate(F, (gamma1,), (restricted,), prepend=True)
    if not word_basis:
        return _zero_statespace(F, nl)
    V = Vt.transpose()
    k = V.cols
    letters = tuple(_solve_blocks(V, [r * V for r in restricted]))
    # the initial covector is the first kept forward row and gamma1 the
    # first kept column, so their coordinates are e_0 on either side
    final = Matrix._raw(F, (1,) + (0,) * (k - 1), 1, k, 1)
    init = V._sub([0])

    # covector-side word family: rows init * act(w)
    cobasis = _saturate(F, (init,), (letters,))[0]
    return StateSpace(F, nl, k, init, letters, final, word_basis, cobasis)


def _solve_blocks(A: Matrix, rhs: list) -> list:
    """The X_a with A X_a = rhs[a] (A of full column rank, each consistent),
    from one solve on the blocks side by side."""
    X, c = (A.solve(hstack(rhs)), rhs[0].cols) if rhs else (None, 0)
    return [X._sub(cols=range(a * c, (a + 1) * c)) for a in range(len(rhs))]


def interval_trace_series(s: StateSpace) -> CircularRepresentation:
    """The circular evaluation tracing the interval action: the circle with
    word w gets the trace of w's action on the state space."""
    return CircularRepresentation(
        s.field, s.num_letters, s.dim, s.letters,
        Matrix.identity(s.field, s.dim),
    )


def arc_word_family(ss: StateSpace, circ: CircularRepresentation) -> list[Word]:
    """Deterministic word family saturating the joint span of
    (interval action, circle matrix) pairs, in length-then-lex order.
    This family spans the arc subalgebra and indexes the circle-closure
    functionals."""
    return [w for w, _, _ in _arc_states(ss, circ)]


def _arc_states(ss: StateSpace, circ: CircularRepresentation) -> list[tuple]:
    """(w, phi_w, rho_w) for each word w of :func:`arc_word_family`: its
    action on the state space and its circle matrix, read off the
    saturation's rows."""
    F, k, m = ss.field, ss.dim, circ.dim
    start = (Matrix.identity(F, k), Matrix.identity(F, m))
    words, S = _saturate(F, start, (ss.letters, circ.letters))
    n, num, d = S.cols, S._num, S._den
    return [(w, Matrix._of_ints(F, num[i * n:i * n + k * k], d, k, k),
             Matrix._of_ints(F, num[i * n + k * k:(i + 1) * n], d, m, m))
            for i, w in enumerate(words)]


class PairAlgebra:
    """The state space of a +- boundary pair, as a finite-dimensional
    algebra in explicit coordinates.

    Elements are coordinate column vectors over a deterministic basis of
    classes (pivot generators among decorated arcs followed by
    half-interval pairs).  A triple (phi, rho, a) holds the arc action, the
    circle matrix and the action a on A(+); triples multiply componentwise.
    A triple is one vector of V = flat(phi) ++ flat(rho) ++ flat(a), and
    three fixed matrices on V hold the quotient: ``L``, the functionals
    (k^2 rows picking out the entries of a, then the closure covector of
    each arc word), whose one rref beside I on the generators G gives the
    basis, the generator classes, the dimensions and ``M``, so that
    ``M * v`` is the class of a triple v in the span of the generators;
    and ``B``, whose columns are the flat ``basis_triples``, so ``B * x``
    is the triple of the class x.  The arc generators are the arc states
    the theory holds.  Exposed structure: the unit, the arc subalgebra
    dimension, the matrix-part unit and its complement ``one_K``, the
    kernel ideal K with its closure trace and, held once built, as a
    Frobenius algebra (``kernel``), and the word projections into K.
    """

    def __init__(self, theory: "Theory"):
        F = theory.field
        ss = theory.statespace
        circ = theory.circular
        k, m = ss.dim, circ.dim
        self.field = F
        self.statespace = ss
        self.circ = circ
        self.k = k
        self.m = m

        self.arc_words = theory.arc_words
        W = len(self.arc_words)

        # generators: decorated arcs, acting on A(+) by phi_w, then
        # half-interval pairs E_ij, acting by E_ij
        gens: list[tuple] = []
        closers = []
        for _, phi_w, rho_w in theory.arc_states:
            gens.append((phi_w, rho_w, phi_w))
            closers.append(self._closer(phi_w, rho_w))
        zero_k, zero_m = Matrix.zeros(F, k, k), Matrix.zeros(F, m, m)
        for i in range(k * k):
            e = Matrix._raw(F, tuple(int(c == i) for c in range(k * k)), 1, k, k)
            gens.append((zero_k, zero_m, e))
        self._gens = gens

        # functionals: action on A(+) entrywise (the a block), then circle
        # closures against each saturation word.  The rref of [Fmat | I] is
        # [R | E], E * Fmat = R: column c of R holds, in its first dim rows,
        # the class of generator c in the basis of pivot generators, so
        # M = E[:dim] * L classes the span of the generators.
        n = 2 * k * k + m * m
        picks = Matrix._raw(F, tuple(int(c == k * k + m * m + r)
                                     for r in range(k * k) for c in range(n)), 1, k * k, n)
        self.L = vstack([picks] + closers)
        G = _flat_columns(F, gens, n)
        Fmat = self.L * G
        RE, pivots = hstack([Fmat, Matrix.identity(F, Fmat.rows)]).rref()
        pivots = [c for c in pivots if c < len(gens)]
        dim = self.dim = len(pivots)
        self.M = RE._sub(range(dim), range(len(gens), RE.cols)) * self.L
        self.basis_triples = [gens[i] for i in pivots]
        self.B = G._sub(cols=pivots)

        def gen_class(c):
            return RE._sub(range(dim), [c])

        # the empty arc word is generator 0 (with no generators, dim is 0
        # and nothing is read)
        self.unit = gen_class(0)
        self.I_coords = [[gen_class(W + i * k + j) for j in range(k)]
                         for i in range(k)]
        self.one_prime = sum((self.I_coords[i][i] for i in range(k)),
                             Matrix.zeros(F, dim, 1))
        self.one_K = self.unit - self.one_prime

        # the arcs span U, and together with the E_ij everything
        self.U_dim = sum(1 for c in pivots if c < W)
        self.U_prime_dim = self.U_dim + k * k - dim

        # kernel ideal: classes acting by zero on A(+), the kernel of the
        # first k^2 functionals on the basis.  Basis vector i is 1 at the
        # i-th free column and 0 at every later column, so its last nonzero
        # entry names that column.
        self.K_basis = Fmat._sub(range(k * k), pivots).kernel_basis()
        self.K_dim = len(self.K_basis)
        self._K_free = [max(r for r, x in enumerate(b._num) if x) for b in self.K_basis]
        self._K_mat = hstack(self.K_basis) if self.K_basis else Matrix.zeros(F, dim, 0)

    # -- coordinates -------------------------------------------------------

    # The closure of (phi, rho, a) against the arc carrying w is
    # trace(D*rho*rho_w) + trace(phi_w*(a - phi)): the circle, plus the
    # half-interval part a - phi closed up through phi_w.  With
    # trace(AB) = sum A_ij B_ji it is the covector -flat(phi_w^T) on phi,
    # flat((rho_w*D)^T) on rho and flat(phi_w^T) on a.

    def _closer(self, phi_w, rho_w) -> Matrix:
        """The closure covector of the arc (phi_w, rho_w), as a row."""
        phi_t = phi_w.transpose()
        num, d = _joined([-phi_t, (rho_w * self.circ.weight).transpose(), phi_t])
        return Matrix._of_ints(self.field, num, d, 1, len(num))

    def _closer_row(self, word) -> Matrix:
        return self._closer(self.statespace.act(word), self.circ.act(word))

    def _products(self, x: Matrix) -> Matrix:
        """Column i * n + j is the class of x_i * x_j, for the n columns of x.

        The triples of the columns, ``B * x``, are read as ints over its one
        denominator d; each pair's three block products are integer
        contractions over d^2, and the classes are one integer product with
        the rows of ``M``."""
        F, p = self.field, self.field.char
        sides = (self.k, self.m, self.k)
        T = self.B * x
        ts = []  # per column: the rows and the columns of its blocks
        for c in range(T.cols):
            ints = iter(T._num[c::T.cols])
            bs = [(list(islice(ints, s * s)), s) for s in sides]
            ts.append(([_lines(b, s, s, False) for b, s in bs],
                       [_lines(b, s, s, True) for b, s in bs]))
        M = self.M
        rows = _lines(M._num, M.rows, M.cols, False)
        classes = []
        for srows, _ in ts:
            for _, tcols in ts:
                t = [sum(map(mul, r, c))
                     for sb, tb in zip(srows, tcols) for r in sb for c in tb]
                if p:
                    t = [y % p for y in t]
                classes.append([sum(map(mul, r, t)) for r in rows])
        n = len(classes)
        return Matrix._of_ints(F, [c[r] for r in range(self.dim) for c in classes],
                               M._den * T._den ** 2, self.dim, n)

    def coords(self, triple) -> Matrix:
        """Coordinates of a spanning triple's class in the quotient basis."""
        return self.M * _flat_columns(self.field, [triple], self.M.cols)

    def triple_of(self, coords: Matrix) -> tuple:
        """The triple of the class in the first column of coords."""
        k, m = self.k, self.m
        t = (self.B * coords)._sub(cols=[0])
        return tuple(Matrix._of_ints(self.field, t._num[o:o + s * s], t._den, s, s)
                     for o, s in ((0, k), (k * k, m), (k * k + m * m, k)))

    def mul(self, x: Matrix, y: Matrix) -> Matrix:
        """Product of two classes given in quotient coordinates."""
        s, t = self.triple_of(x), self.triple_of(y)
        return self.coords(tuple(map(mul, s, t)))

    # -- kernel ideal ------------------------------------------------------

    def to_K_coords(self, coords: Matrix) -> Matrix:
        # a class in K has its K-coordinates at the free columns
        if coords.field != self.field or coords.rows != self.dim:
            raise FieldMismatch("class coordinates have the wrong field or length")
        z = coords._sub(self._K_free)
        if self._K_mat * z != coords:
            raise InvalidArgument("class does not lie in the kernel ideal")
        return z

    @cached_property
    def kernel(self):
        """:func:`frobenius_of_K` of this pair algebra, built once."""
        return frobenius_of_K(self)

    @cached_property
    def _K_trace(self) -> Matrix:
        # the closure trace trace(D*rho) + trace(a - phi) is the closure
        # against the empty arc, a row on K's basis
        return self._closer_row(()) * self.B * self._K_mat


def _flat_columns(F: Field, triples, n: int) -> Matrix:
    """The triples as the columns of an n-row matrix, each flattened to
    flat(phi) ++ flat(rho) ++ flat(a)."""
    num, d = _joined([m for t in triples for m in t])
    return Matrix._of_ints(F, num, d, len(triples), n).transpose()


@dataclass(frozen=True, eq=False)
class Theory:
    """A ground field, an alphabet, an interval evaluation and a circular
    evaluation."""

    field: Field
    alphabet: tuple
    interval: LinearRepresentation
    circular: CircularRepresentation
    circular_is_trace: bool = False

    # Derived structures, each built on first use and held for the life of
    # the theory; none refers back to the theory.

    @cached_property
    def statespace(self) -> StateSpace:
        """The minimal state space the interval owns: :func:`minimize`."""
        return minimize(self.interval)

    @cached_property
    def arc_states(self) -> tuple:
        """(w, phi_w, rho_w) for each arc word w: its action on the state
        space and its circle matrix, as the saturation found them."""
        return tuple(_arc_states(self.statespace, self.circular))

    @cached_property
    def arc_words(self) -> tuple:
        """The arc word family of the state space and the circle data."""
        return tuple(w for w, _, _ in self.arc_states)

    @cached_property
    def pair_algebra(self) -> PairAlgebra:
        """The state space of the +- boundary pair."""
        return PairAlgebra(self)


def build_pair_algebra(t: Theory) -> PairAlgebra:
    """State space of the +- boundary pair: arcs and half-interval pairs
    modulo negligible elements."""
    return t.pair_algebra


def invariant_triple(t: Theory) -> tuple[int, int, int]:
    """(dim A(+), dim of arcs-inside-matrix-part, dim kernel ideal)."""
    pa = t.pair_algebra
    return (pa.k, pa.U_prime_dim, pa.K_dim)


def project_word(pa: PairAlgebra, word) -> Matrix:
    """K-coordinates of the kernel projection of the arc class of a word:
    one_K * arc(word) (equal to arc(word) * one_K): the arc with its action
    on A(+) zeroed."""
    return pa.to_K_coords(pa.coords((pa.statespace.act(word), pa.circ.act(word),
                                     Matrix.zeros(pa.field, pa.k, pa.k))))


def trace_K(pa: PairAlgebra, x: Matrix):
    """Closure trace on the kernel ideal (coordinates over K's basis)."""
    if x.field != pa.field or x.rows != pa.K_dim or x.cols != 1:
        raise FieldMismatch("kernel coordinates must be a K_dim x 1 column")
    return (pa._K_trace * x)[0, 0]


def frobenius_of_K(pa: PairAlgebra):
    """The kernel ideal as a symmetric Frobenius algebra (unit one_K,
    closure trace).  Zero-dimensional K gives the zero algebra, flagged
    empty.  The n^2 products of basis elements are one call of
    ``pa._products``: integer contractions, classed by one integer product
    with ``pa.M``; column (i, j) of their K coordinates is row (i, j) of
    the structure-constant cube."""
    from .frobenius import FrobeniusAlgebra

    F, n = pa.field, pa.K_dim
    if n == 0:
        return FrobeniusAlgebra(F, (), (), (), ())
    # K is an ideal containing one_K, so these lie in K: their K coordinates
    # are read at the free columns, without the check of to_K_coords
    P = pa._products(pa._K_mat)._sub(pa._K_free).transpose()
    return FrobeniusAlgebra._of_cube(F, tuple(f"k{i}" for i in range(n)), (P._num, P._den),
                                     pa.one_K._sub(pa._K_free), pa._K_trace)


@dataclass(frozen=True)
class IdempotentReport:
    """Mutually orthogonal idempotents refining the unit of the pair state
    space: the kernel unit plus one idempotent per state-space basis
    vector."""

    idempotents: tuple
    each_idempotent: bool
    orthogonal: bool
    sum_is_unit: bool


def idempotent_report(pa: PairAlgebra) -> IdempotentReport:
    els = [pa.one_K] + [pa.I_coords[i][i] for i in range(pa.k)]
    n = len(els)
    P = pa._products(hstack(els))
    each = all(P._sub(cols=[i * n + i]) == e for i, e in enumerate(els))
    orth = all(not any(P._num[i * n + j::P.cols])
               for i in range(n) for j in range(n) if i != j)
    return IdempotentReport(
        idempotents=tuple(els),
        each_idempotent=each,
        orthogonal=orth,
        sum_is_unit=(sum(els[1:], els[0]) == pa.unit),
    )


# -- theory ingestion --------------------------------------------------------

# Most theories theory_from_json keeps, keyed by their exact document and
# field override; the least recently returned one is dropped first.
THEORY_CACHE = 64
_theories = LRU(THEORY_CACHE)


def _read_rational_part(field: Field, alphabet: tuple, doc, path: str) -> RationalFunction1:
    """The RationalFunction1 of a rational1 part: it needs an alphabet of at
    most one letter, and an empty alphabet admits only constant data, judged
    in lowest terms."""
    if len(alphabet) > 1:
        raise SchemaError(f"{path}.kind", "rational1 needs an alphabet of size <= 1")
    z = rational1_from_json(field, doc, path)
    if not alphabet and not z.is_zero() and (z.num.deg > 0 or z.den.deg > 0):
        raise SchemaError(path, "an empty alphabet admits only constant data")
    return z


def theory_from_json(doc, field_override: Field | None = None) -> Theory:
    """Build a Theory from its JSON document.

    Top-level keys: field (optional; rational default), alphabet, interval,
    circular.  Interval kinds: linrep, rational1 (alphabet size <= 1).
    Circular kinds: tracerep, rational1 (alphabet size <= 1),
    trace_of_interval.

    A document is read and validated in full unless its exact JSON value
    (its ``lru.exact`` bytes, under the memo rule of ``lru``), with the
    same ``field_override``, equals one of the last
    ``THEORY_CACHE`` documents accepted; such a repeat gets that same
    Theory back, with all it has built, and no field value, matrix or
    realisation is made for it; beyond the bound the least recently
    returned theory is dropped.  A document that differs in spelling, key
    order or an ignored key is read in full and gets a Theory of its own.
    The read is one pass, interval part then circular part: each part's
    scalars go through the scalar grammar straight to canonical integers
    (``Field._read``), and the part is built from them as it is read, a
    rational1 part in lowest terms, where on an empty alphabet it must be
    constant.  A tracerep weight must commute with the letters, which is
    checked as that part is built, before the theory is kept.
    The command line parses one theory per process.
    """
    return remember(doc, field_override, _theories,
                    lambda: _theory_read(doc, field_override))


def _theory_read(doc, field_override: Field | None) -> Theory:
    """The Theory of a document, read and checked in full."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a theory object")
    field = field_override or field_from_json(doc.get("field"))
    alphabet = doc.get("alphabet")
    if not isinstance(alphabet, list) or not all(
        isinstance(a, str) and a for a in alphabet
    ):
        raise SchemaError("alphabet", "expected an array of letter names")
    if len(set(alphabet)) != len(alphabet):
        raise SchemaError("alphabet", "letter names must be distinct")
    alphabet = tuple(alphabet)

    idoc = doc.get("interval")
    if not isinstance(idoc, dict):
        raise SchemaError("interval", "expected an object with a 'kind' key")
    kind = idoc.get("kind")
    if kind == "linrep":
        interval = _read_linrep(field, alphabet, idoc, "interval")
    elif kind == "rational1":
        r = rational_to_rep(_read_rational_part(field, alphabet, idoc, "interval"))
        interval = (r if alphabet else
                    LinearRepresentation(field, 0, r.dim, r.init, (), r.final))
    else:
        raise SchemaError("interval.kind", f"unknown kind {kind!r}")

    cdoc = doc.get("circular")
    if not isinstance(cdoc, dict):
        raise SchemaError("circular", "expected an object with a 'kind' key")
    ckind = cdoc.get("kind")
    if ckind == "tracerep":
        circular = _read_circrep(field, alphabet, cdoc, "circular")
    elif ckind == "rational1":
        circular = CircularRepresentation.from_rational(
            _read_rational_part(field, alphabet, cdoc, "circular"), len(alphabet))
    elif ckind == "trace_of_interval":
        circular = interval_trace_series(minimize(interval))
    else:
        raise SchemaError("circular.kind", f"unknown kind {ckind!r}")
    return Theory(field, alphabet, interval, circular, ckind == "trace_of_interval")
