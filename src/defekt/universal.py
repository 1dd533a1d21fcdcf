"""State spaces generated by interval and circle evaluations.

``minimize`` turns a linear presentation of an interval evaluation into the
minimal state space it generates: restrict to the span reachable from the
initial covector, then quotient by the span reachable from the final vector.
The resulting dimension equals the rank of the (word x word) value matrix,
and the reported word basis is the first length-then-lex family of words
whose classes are independent.

``build_pair_algebra`` constructs the state space of a +- boundary pair as
a quotient of a concrete spanning model.  A spanning element is a triple
(Phi, R, Y): Phi is the A(+) action of an arc joining the two boundary
points, R is the circle-presentation matrix recording how that arc closes
into circles, and Y is a pure endomorphism of A(+) coming from a pair of
half-intervals.  Products follow (Phi1*Phi2, R1*R2, Phi1*Y2 + Y1*Phi2 +
Y1*Y2), and an element is negligible exactly when it acts by zero on A(+)
and every circle closure vanishes; both conditions are finite thanks to
word saturation.  The quotient carries:

- the matrix ideal of half-interval pairs (dimension k^2),
- the kernel ideal K of elements acting by zero on A(+),
- the arc subalgebra U generated by decorated arcs,

with dim U = dim (U intersect matrix part) + dim K, and K a symmetric
Frobenius algebra under the circle-closure trace.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AlphabetMismatch,
    DefektError,
    FieldMismatch,
    SaturationLimit,
    SchemaError,
)
from .exactla import Echelon, Field, Matrix, _dot, field_from_json, hstack
from .series import (
    CircularRepresentation,
    LinearRepresentation,
    Word,
    circrep_from_json,
    linrep_from_json,
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


class StateSpace:
    """Minimal state space of an interval evaluation.

    ``value(w) = cotrace * action(w) * cyclic`` reproduces the evaluation;
    ``action(w) * cyclic`` is the class of the word w, and the classes of
    ``word_basis`` are exactly the standard basis vectors, in order.
    ``cobasis_words`` is the analogous covector-side word family.
    """

    __slots__ = (
        "field",
        "num_letters",
        "dim",
        "action",
        "cyclic",
        "cotrace",
        "word_basis",
        "cobasis_words",
    )

    def __init__(self, field, num_letters, dim, action, cyclic, cotrace,
                 word_basis, cobasis_words):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_letters", num_letters)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "action", tuple(action))
        object.__setattr__(self, "cyclic", cyclic)
        object.__setattr__(self, "cotrace", cotrace)
        object.__setattr__(self, "word_basis", tuple(word_basis))
        object.__setattr__(self, "cobasis_words", tuple(cobasis_words))

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

    def act(self, word) -> Matrix:
        m = Matrix.identity(self.field, self.dim)
        for a in word:
            if a < 0 or a >= self.num_letters:
                raise AlphabetMismatch(
                    f"letter index {a!r} outside alphabet of size {self.num_letters}"
                )
            m = m * self.action[a]
        return m

    def value(self, word):
        return (self.cotrace * self.act(word) * self.cyclic)[0, 0]

    def trace_of_word(self, word):
        """Trace of the word's action on the state space."""
        return self.act(word).trace()

    def pairing_matrix(self) -> Matrix:
        """P[i][j] = value(word_basis[i] + word_basis[j])."""
        return Matrix(
            self.field,
            [
                [self.value(wi + wj) for wj in self.word_basis]
                for wi in self.word_basis
            ],
            cols=self.dim,
        )


def _zero_statespace(field: Field, num_letters: int) -> StateSpace:
    return StateSpace(
        field,
        num_letters,
        0,
        tuple(Matrix.zeros(field, 0, 0) for _ in range(num_letters)),
        Matrix.zeros(field, 0, 1),
        Matrix.zeros(field, 1, 0),
        (),
        (),
    )


def _row_saturation(field: Field, start: list, letters) -> tuple[list, list]:
    """Breadth-first, length-then-lex saturation of the row ``start`` under
    right multiplication by the letter matrices: the words w whose rows
    start * letters(w) are independent of the rows before, and those rows."""
    ech = Echelon(field)
    words: list[Word] = []
    rows: list[list] = []
    layer: list[tuple[Word, list]] = []
    if ech.add(start):
        words.append(())
        rows.append(start)
        layer = [((), start)]
    while layer:
        nxt: list[tuple[Word, list]] = []
        for w, v in layer:
            for a, mat in enumerate(letters):
                vv = list((Matrix.row_vector(field, v) * mat).flat())
                if ech.add(vv):
                    words.append(w + (a,))
                    rows.append(vv)
                    nxt.append((w + (a,), vv))
        layer = nxt
    return words, rows


def minimize(rep: LinearRepresentation) -> StateSpace:
    """Minimal state space generated by an interval presentation.

    Length-then-lex breadth-first saturation of the covector side (rows
    init * act(w)), restriction, then saturation of the vector side
    (columns act(w) * final) and quotient.  Both saturations stabilize at
    word length <= rep.dim.
    """
    F = rep.field
    nl = rep.num_letters

    # forward (covector) side: rows init * act(w)
    _, kept_rows = _row_saturation(F, list(rep.init.flat()), rep.letters)
    if not kept_rows:
        return _zero_statespace(F, nl)
    W = Matrix(F, kept_rows, cols=rep.dim)
    f = W.rows
    Wt = W.transpose()
    restricted = []
    for a in range(nl):
        sol = Wt.solve((W * rep.letters[a]).transpose())
        restricted.append(sol.transpose())
    gamma1 = W * rep.final

    # backward (vector) side on the restricted presentation
    ech2 = Echelon(F)
    kept_cols: list[list] = []
    word_basis: list[Word] = []
    g_vec = list(gamma1.flat())
    layer2: list[tuple[Word, list]] = []
    if ech2.add(g_vec):
        kept_cols.append(g_vec)
        word_basis.append(())
        layer2 = [((), g_vec)]
    while layer2:
        nxt2: list[tuple[Word, list]] = []
        for a in range(nl):
            for w, v in layer2:
                col = restricted[a] * Matrix.col_vector(F, v)
                vv = list(col.flat())
                if ech2.add(vv):
                    kept_cols.append(vv)
                    word_basis.append((a,) + w)
                    nxt2.append(((a,) + w, vv))
        layer2 = nxt2
    if not kept_cols:
        return _zero_statespace(F, nl)
    V = Matrix(F, [list(col) for col in zip(*kept_cols)], cols=len(kept_cols))
    k = V.cols
    action = tuple(V.solve(restricted[a] * V) for a in range(nl))
    cyclic = V.solve(gamma1)
    # the initial covector is the first kept forward row, so its coordinates
    # in the restricted presentation are e_0
    e0 = Matrix(F, [[F.one if j == 0 else F.zero for j in range(f)]], cols=f)
    cotrace = e0 * V

    # covector-side word family: rows cotrace * action(w)
    cobasis, _ = _row_saturation(F, list(cotrace.flat()), action)
    return StateSpace(F, nl, k, action, cyclic, cotrace, word_basis, cobasis)


def interval_trace_series(s: StateSpace) -> CircularRepresentation:
    """The circular evaluation tracing the interval action: the circle with
    word w gets the trace of w's action on the state space."""
    return CircularRepresentation(
        s.field, s.num_letters, s.dim, s.action,
        Matrix.identity(s.field, s.dim),
    )


def arc_word_family(ss: StateSpace, circ: CircularRepresentation) -> list[Word]:
    """Deterministic word family saturating the joint span of
    (interval action, circle matrix) pairs, in length-then-lex order.
    This family spans the arc subalgebra and indexes the circle-closure
    functionals."""
    F = ss.field
    nl = ss.num_letters
    k, m = ss.dim, circ.dim
    bound = k * k + m * m + 1
    ech = Echelon(F)
    words: list[Word] = []
    id_pair = (Matrix.identity(F, k), Matrix.identity(F, m))
    layer: list[tuple[Word, Matrix, Matrix]] = []
    if ech.add(list(id_pair[0].flat()) + list(id_pair[1].flat())):
        words.append(())
        layer = [((), *id_pair)]
    length = 0
    while layer:
        length += 1
        if length > bound:
            raise SaturationLimit(
                f"arc saturation still growing past length {bound}"
            )
        nxt: list[tuple[Word, Matrix, Matrix]] = []
        for w, phi, rho in layer:
            for a in range(nl):
                phi2 = phi * ss.action[a]
                rho2 = rho * circ.letters[a]
                if ech.add(list(phi2.flat()) + list(rho2.flat())):
                    words.append(w + (a,))
                    nxt.append((w + (a,), phi2, rho2))
        layer = nxt
    return words


class PairAlgebra:
    """The state space of a +- boundary pair, as a finite-dimensional
    algebra in explicit coordinates.

    Elements are coordinate column vectors over a deterministic basis of
    classes (pivot generators among decorated arcs followed by
    half-interval pairs).  Exposed structure: the unit, the arc subalgebra
    dimension, the matrix-part unit and its complement ``one_K``, the
    kernel ideal K with its closure trace, and the word projections into K.
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

        words = theory.arc_words
        self.arc_words = words

        # generators: decorated arcs, then half-interval pairs E_ij
        gens: list[tuple] = []
        self._closers = []
        for w in words:
            phi_w, rho_w = ss.act(w), circ.act(w)
            gens.append((phi_w, rho_w, Matrix.zeros(F, k, k)))
            self._closers.append(self._closer(phi_w, rho_w))
        zero_m = Matrix.zeros(F, m, m)
        for i in range(k):
            for j in range(k):
                e = [[F.one if (r, c) == (i, j) else F.zero for c in range(k)]
                     for r in range(k)]
                gens.append((Matrix.zeros(F, k, k), zero_m, Matrix(F, e, cols=k)))
        self._gens = gens

        # closure functionals: action on A(+) entrywise, then circle
        # closures against each saturation word
        cols = [self._fvals(t) for t in gens]
        Fmat = Matrix(F, [list(col) for col in zip(*cols)], cols=len(cols))
        _, pivots = Fmat.rref()
        self.dim = len(pivots)
        self._basis_idx = pivots
        self.basis_triples = [gens[i] for i in pivots]
        Fb = Matrix(F, [[Fmat.data[r][c] for c in pivots]
                        for r in range(Fmat.rows)], cols=len(pivots))
        _, row_piv = Fb.transpose().rref()
        self._rows_sel = row_piv
        if self.dim:
            Fsq = Matrix(F, [list(Fb.data[r]) for r in row_piv], cols=self.dim)
            self._solver = Fsq.inverse()
        else:
            self._solver = Matrix.zeros(F, 0, 0)

        self.unit = self.coords((Matrix.identity(F, k),
                                 Matrix.identity(F, m),
                                 Matrix.zeros(F, k, k)))
        self.one_prime = self.coords((Matrix.zeros(F, k, k), zero_m,
                                      Matrix.identity(F, k)))
        self.one_K = self.unit - self.one_prime

        # matrix ideal coordinates (classes of half-interval pairs)
        self.I_coords = [
            [self.coords(gens[len(words) + i * k + j]) for j in range(k)]
            for i in range(k)
        ]
        self.I_dim = k * k

        # kernel ideal: classes acting by zero on A(+)
        if self.dim and k:
            pmat = Matrix(
                F,
                [list(col) for col in zip(*[
                    list((t[0] + t[2]).flat()) for t in self.basis_triples
                ])],
                cols=self.dim,
            )
            self.K_basis = pmat.kernel_basis()
        elif self.dim:
            self.K_basis = [_unit_col(F, self.dim, i) for i in range(self.dim)]
        else:
            self.K_basis = []
        self.K_dim = len(self.K_basis)
        self._K_mat = (hstack(self.K_basis) if self.K_basis
                       else Matrix.zeros(F, self.dim, 0))
        _, self._K_rows = self._K_mat.transpose().rref()
        self._K_solver = Matrix(
            F, [self._K_mat.data[r] for r in self._K_rows], cols=self.K_dim
        ).inverse()

        # arc subalgebra and its matrix-part intersection
        arc_coords = [self.coords(gens[i]) for i in range(len(words))]
        self._arc_coords = {w: c for w, c in zip(words, arc_coords)}
        if arc_coords:
            U_mat = hstack(arc_coords)
            self.U_dim = U_mat.rank()
            flat_I = [self.I_coords[i][j] for i in range(k) for j in range(k)]
            if flat_I:
                both = hstack([U_mat] + flat_I)
                self.U_prime_dim = self.U_dim + k * k - both.rank()
            else:
                self.U_prime_dim = 0
        else:
            self.U_dim = 0
            self.U_prime_dim = 0

    # -- coordinates -------------------------------------------------------

    # The closure of (phi, rho, y) against the arc carrying w is
    # trace(D*rho*rho_w) + trace(phi_w*y).  With trace(AB) = sum A_ij B_ji
    # it is one dot product of flat(D*rho) + flat(y) with the flattened
    # transposes of rho_w and phi_w.

    @staticmethod
    def _closer(phi_w, rho_w) -> tuple:
        return rho_w.transpose().flat() + phi_w.transpose().flat()

    def _closure_vec(self, rho, y) -> tuple:
        return (self.circ.weight * rho).flat() + y.flat()

    def _fvals(self, triple) -> list:
        phi, rho, y = triple
        out = list((phi + y).flat())
        v = self._closure_vec(rho, y)
        out.extend(_dot(v, c, self.field) for c in self._closers)
        return out

    def coords(self, triple) -> Matrix:
        """Coordinates of a spanning triple's class in the quotient basis."""
        fv = self._fvals(triple)
        sel = Matrix.col_vector(self.field, [fv[r] for r in self._rows_sel])
        return self._solver * sel

    def triple_of(self, coords: Matrix) -> tuple:
        F = self.field
        phi = Matrix.zeros(F, self.k, self.k)
        rho = Matrix.zeros(F, self.m, self.m)
        y = Matrix.zeros(F, self.k, self.k)
        for i in range(self.dim):
            c = coords[i, 0]
            if c == F.zero:
                continue
            t = self.basis_triples[i]
            phi = phi + t[0].scale(c)
            rho = rho + t[1].scale(c)
            y = y + t[2].scale(c)
        return phi, rho, y

    @staticmethod
    def _triple_mul(t1, t2) -> tuple:
        return (
            t1[0] * t2[0],
            t1[1] * t2[1],
            t1[0] * t2[2] + t1[2] * t2[0] + t1[2] * t2[2],
        )

    def mul(self, x: Matrix, y: Matrix) -> Matrix:
        """Product of two classes given in quotient coordinates."""
        return self.coords(self._triple_mul(self.triple_of(x), self.triple_of(y)))

    def arc_class(self, word) -> Matrix:
        """Class of the arc decorated by the given word."""
        phi = self.statespace.act(word)
        rho = self.circ.act(word)
        return self.coords((phi, rho, Matrix.zeros(self.field, self.k, self.k)))

    def closure_value(self, x: Matrix, word=()) -> object:
        """Circle closure of a class against a word: the scalar obtained by
        closing the pair off with an arc carrying the word."""
        _, rho, y = self.triple_of(x)
        closer = self._closer(self.statespace.act(word), self.circ.act(word))
        return _dot(self._closure_vec(rho, y), closer, self.field)

    # -- kernel ideal ------------------------------------------------------

    def to_K_coords(self, coords: Matrix) -> Matrix:
        # K_mat has independent columns, so a class in K has unique
        # K-coordinates, read off the square block of independent rows
        if coords.rows != self.dim:
            raise FieldMismatch("class coordinates have the wrong length")
        sel = Matrix(self.field, [coords.data[r] for r in self._K_rows],
                     cols=coords.cols)
        z = self._K_solver * sel
        if self._K_mat * z != coords:
            raise DefektError("class does not lie in the kernel ideal")
        return z

    def from_K_coords(self, z: Matrix) -> Matrix:
        return self._K_mat * z

    @cached_property
    def _K_trace(self) -> tuple:
        # the closure trace trace(D*rho) + trace(y) is linear, so it is
        # read once per basis triple and carried to K's basis
        tr = [(self.circ.weight * rho).trace() + y.trace()
              for _, rho, y in self.basis_triples]
        return tuple(_dot(b.flat(), tr, self.field) for b in self.K_basis)


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
        """The minimal state space of the interval evaluation."""
        return minimize(self.interval)

    @cached_property
    def arc_words(self) -> tuple:
        """The arc word family of the state space and the circle data."""
        return tuple(arc_word_family(self.statespace, self.circular))

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
    one_K * arc(word) (equal to arc(word) * one_K)."""
    phi = pa.statespace.act(word)
    rho = pa.circ.act(word)
    triple = (phi, rho, -phi)
    return pa.to_K_coords(pa.coords(triple))


def trace_K(pa: PairAlgebra, x: Matrix):
    """Closure trace on the kernel ideal (coordinates over K's basis)."""
    if x.field != pa.field or x.rows != pa.K_dim or x.cols != 1:
        raise FieldMismatch("kernel coordinates must be a K_dim x 1 column")
    return _dot(x.flat(), pa._K_trace, pa.field)


def frobenius_of_K(pa: PairAlgebra):
    """The kernel ideal as a symmetric Frobenius algebra (unit one_K,
    closure trace).  Zero-dimensional K gives the zero algebra, flagged
    empty."""
    from .frobenius import FrobeniusAlgebra

    F = pa.field
    n = pa.K_dim
    names = [f"k{i}" for i in range(n)]
    if n == 0:
        return FrobeniusAlgebra(F, (), (), (), ())
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = pa.mul(pa.from_K_coords(_unit_col(F, n, i)),
                          pa.from_K_coords(_unit_col(F, n, j)))
            row.append(tuple(pa.to_K_coords(prod).flat()))
        mult.append(tuple(row))
    unit = tuple(pa.to_K_coords(pa.one_K).flat())
    trace = pa._K_trace
    return FrobeniusAlgebra(F, tuple(names), tuple(mult), unit, trace)


def _unit_col(field: Field, n: int, i: int) -> Matrix:
    return Matrix.col_vector(field, [field.one if j == i else field.zero
                                     for j in range(n)])


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
    each = all(pa.mul(e, e) == e for e in els)
    orth = True
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            if i != j and not pa.mul(a, b).is_zero():
                orth = False
    total = els[0]
    for e in els[1:]:
        total = total + e
    return IdempotentReport(
        idempotents=tuple(els),
        each_idempotent=each,
        orthogonal=orth,
        sum_is_unit=(total == pa.unit),
    )


# -- theory ingestion --------------------------------------------------------


def theory_from_json(doc, field_override: Field | None = None) -> Theory:
    """Build a Theory from its JSON document.

    Top-level keys: field (optional; rational default), alphabet, interval,
    circular.  Interval kinds: linrep, rational1 (alphabet size <= 1).
    Circular kinds: tracerep, rational1 (alphabet size <= 1),
    trace_of_interval.
    """
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
        interval = linrep_from_json(field, alphabet, idoc, "interval")
    elif kind == "rational1":
        if len(alphabet) > 1:
            raise SchemaError(
                "interval.kind", "rational1 needs an alphabet of size <= 1"
            )
        z = rational1_from_json(field, idoc, "interval")
        r = rational_to_rep(z)
        if not alphabet:
            if not z.num.is_zero() and (z.num.deg > 0 or z.den.deg > 0):
                raise SchemaError(
                    "interval", "an empty alphabet admits only constant data"
                )
            r = LinearRepresentation(field, 0, r.dim, r.init, (), r.final)
        interval = r
    else:
        raise SchemaError("interval.kind", f"unknown kind {kind!r}")

    cdoc = doc.get("circular")
    if not isinstance(cdoc, dict):
        raise SchemaError("circular", "expected an object with a 'kind' key")
    ckind = cdoc.get("kind")
    space = None
    if ckind == "tracerep":
        circular = circrep_from_json(field, alphabet, cdoc, "circular")
    elif ckind == "rational1":
        if len(alphabet) > 1:
            raise SchemaError(
                "circular.kind", "rational1 needs an alphabet of size <= 1"
            )
        z = rational1_from_json(field, cdoc, "circular")
        circular = CircularRepresentation.from_rational(z, len(alphabet))
    elif ckind == "trace_of_interval":
        space = minimize(interval)
        circular = interval_trace_series(space)
    else:
        raise SchemaError("circular.kind", f"unknown kind {ckind!r}")

    t = Theory(field, alphabet, interval, circular, space is not None)
    if space is not None:
        # the circle data was built from the state space: hand it to the
        # theory (cached_property reads the instance dict first)
        vars(t)["statespace"] = space
    return t
