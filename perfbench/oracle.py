"""Exact reference arithmetic for the benchmark, independent of defekt.

Nothing here imports the package under test.  Scalars are
``fractions.Fraction`` over the rationals and :class:`Mod` residues over a
prime field; matrices are lists of row lists.  The routines are the plain
textbook ones (schoolbook products, Gaussian elimination, long division of
power series) so they can serve as oracles for the library's results and
as the generator's tool for hiding algebras behind a change of basis.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product


class Mod:
    """A residue modulo a prime."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _o(self, other) -> int:
        return other.v if isinstance(other, Mod) else other

    def __add__(self, other):
        return Mod(self.v + self._o(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return Mod(self.v - self._o(other), self.p)

    def __rsub__(self, other):
        return Mod(self._o(other) - self.v, self.p)

    def __mul__(self, other):
        return Mod(self.v * self._o(other), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Mod(-self.v, self.p)

    def __truediv__(self, other):
        d = self._o(other) % self.p
        if d == 0:
            raise ZeroDivisionError("division by zero modulo p")
        return Mod(self.v * pow(d, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return Mod(self._o(other), self.p) / self

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.v == other.v and self.p == other.p
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0


class Scalars:
    """The rationals (p == 0) or the prime field F_p, with JSON text I/O."""

    def __init__(self, p: int = 0):
        self.p = p
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, x):
        if self.p:
            if isinstance(x, Fraction):
                return Mod(x.numerator, self.p) / x.denominator
            return Mod(int(x), self.p)
        return Fraction(x)

    def parse(self, text: str):
        return self.of(Fraction(text))

    def fmt(self, x) -> str:
        return str(x.v) if self.p else str(x)

    def tag(self) -> dict:
        return {"type": "prime", "p": self.p} if self.p else {"type": "rational"}

    @staticmethod
    def of_doc(doc: dict) -> "Scalars":
        tag = doc.get("field") or {"type": "rational"}
        return Scalars(tag["p"] if tag["type"] == "prime" else 0)


# -- matrices -----------------------------------------------------------------


def identity(F: Scalars, n: int) -> list:
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def matmul(F: Scalars, a: list, b: list, inner: int | None = None) -> list:
    """Schoolbook product; ``inner`` gives the shared size when a has no
    rows from which to read it."""
    if inner is None:
        inner = len(a[0]) if a else len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            s = F.zero
            for t in range(inner):
                s = s + row[t] * b[t][j]
            out_row.append(s)
        out.append(out_row)
    return out


def trace(F: Scalars, a: list):
    s = F.zero
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def echelon(F: Scalars, rows: list) -> list:
    """Row echelon form by Gaussian elimination; returns the nonzero rows."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    out = []
    for c in range(ncols):
        piv = next((r for r in work if r[c] != F.zero), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = F.one / piv[c]
        piv = [inv * x for x in piv]
        work = [[x - r[c] * y for x, y in zip(r, piv)] if r[c] != F.zero else r
                for r in work]
        out.append(piv)
    return out


def rank(F: Scalars, rows: list) -> int:
    return len(echelon(F, rows))


def inverse(F: Scalars, a: list) -> list:
    """Inverse by Gauss-Jordan elimination on [a | I]; ValueError when a is
    singular."""
    n = len(a)
    work = [list(a[i]) + identity(F, n)[i] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != F.zero), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[c], work[piv] = work[piv], work[c]
        inv = F.one / work[c][c]
        work[c] = [inv * x for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != F.zero:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def parse_matrix(F: Scalars, rows: list) -> list:
    return [[F.parse(x) for x in row] for row in rows]


# -- words and series -----------------------------------------------------------


def words_up_to(num_letters: int, length: int) -> list:
    """All words of length <= ``length``, length first, as index tuples."""
    out = []
    for n in range(length + 1):
        out.extend(product(range(num_letters), repeat=n))
    return out


def taylor(F: Scalars, num: list, den: list, n: int) -> list:
    """Coefficients of orders 0..n of num/den by long division (den[0] != 0)."""
    out = []
    d0 = den[0]
    for k in range(n + 1):
        s = num[k] if k < len(num) else F.zero
        for i in range(1, min(k, len(den) - 1) + 1):
            s = s - den[i] * out[k - i]
        out.append(s / d0)
    return out


class IntervalOracle:
    """Interval word values of a theory document, from its own matrices:
    init * M_w1 * ... * M_wn * final for ``linrep`` data, the n-th Taylor
    coefficient for ``rational1`` data."""

    def __init__(self, doc: dict):
        self.F = F = Scalars.of_doc(doc)
        self.alphabet = list(doc["alphabet"])
        idoc = doc["interval"]
        self.kind = idoc["kind"]
        if self.kind == "linrep":
            self.dim = idoc["dim"]
            self.init = [F.parse(x) for x in idoc["init"]]
            self.final = [F.parse(x) for x in idoc["final"]]
            self.letters = [parse_matrix(F, idoc["letters"][a]) for a in self.alphabet]
        else:
            self.num = [F.parse(x) for x in idoc["num"]]
            self.den = [F.parse(x) for x in idoc["den"]]
            self.dim = max(len(self.num), len(self.den) - 1)
            self._coeffs = taylor(F, self.num, self.den, 2 * self.dim + 8)

    def value(self, word):
        F = self.F
        if self.kind != "linrep":
            n = len(word)
            if n >= len(self._coeffs):
                self._coeffs = taylor(F, self.num, self.den, 2 * n)
            return self._coeffs[n]
        row = self.init
        for a in word:
            m = self.letters[a]
            row = [sum((row[i] * m[i][j] for i in range(self.dim)), F.zero)
                   for j in range(self.dim)]
        return sum((x * y for x, y in zip(row, self.final)), F.zero)

    def hankel_rank(self) -> int:
        """Rank of the value matrix f(uv) over words u, v of length below the
        presentation's dimension, which is where both reachable spans
        saturate; this is dim A(+)."""
        if self.dim == 0:
            return 0
        ws = words_up_to(len(self.alphabet), self.dim - 1)
        return rank(self.F, [[self.value(u + v) for v in ws] for u in ws])


class CircleOracle:
    """Circle word values tr(weight * M_w1 * ... * M_wn) of a ``tracerep``
    theory document."""

    def __init__(self, doc: dict):
        self.F = F = Scalars.of_doc(doc)
        cdoc = doc["circular"]
        self.dim = cdoc["dim"]
        self.weight = parse_matrix(F, cdoc["weight"])
        self.letters = [parse_matrix(F, cdoc["letters"][a]) for a in doc["alphabet"]]

    def value(self, word):
        m = self.weight
        for a in word:
            m = matmul(self.F, m, self.letters[a], self.dim)
        return trace(self.F, m)


# -- Frobenius blocks -------------------------------------------------------------

# A block is (kind, trace coefficients).  Kinds: "point" (k, trace r),
# "x2" (k[x]/x^2, trace (r, s), s != 0), "x3" (k[x]/x^3, trace (r, s, u),
# u != 0) and "mat2" (2x2 matrices, trace r * Tr, r != 0).

BLOCK_DIM = {"point": 1, "x2": 2, "x3": 3, "mat2": 4}


def block_structure(F: Scalars, kind: str, tr: list) -> tuple:
    """(mult, unit, trace) of one block in its standard basis."""
    z, o = F.zero, F.one
    n = BLOCK_DIM[kind]
    mult = [[[z] * n for _ in range(n)] for _ in range(n)]
    if kind == "point":
        mult[0][0][0] = o
        return mult, [o], list(tr)
    if kind in ("x2", "x3"):
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    mult[i][j][i + j] = o
        return mult, [o] + [z] * (n - 1), list(tr)
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mult[i][j][idx[(a, d)]] = o
    r = tr[0]
    return mult, [o, z, z, o], [r, z, z, r]


def direct_sum(F: Scalars, parts: list) -> tuple:
    n = sum(len(u) for _, u, _ in parts)
    mult = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    unit, tr = [], []
    off = 0
    for m, u, t in parts:
        d = len(u)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    mult[off + i][off + j][off + k] = m[i][j][k]
        unit += u
        tr += t
        off += d
    return mult, unit, tr


def algebra_mul(F: Scalars, mult: list, x: list, y: list) -> list:
    """Product of two coordinate vectors by the structure constants
    ``mult[i][j][k]`` (coefficient of e_k in e_i * e_j)."""
    n = len(x)
    out = [F.zero] * n
    for i in range(n):
        if x[i] == F.zero:
            continue
        for j in range(n):
            if y[j] == F.zero:
                continue
            c = x[i] * y[j]
            for k in range(n):
                if mult[i][j][k] != F.zero:
                    out[k] = out[k] + c * mult[i][j][k]
    return out


def change_basis(F: Scalars, mult: list, unit: list, tr: list, S: list) -> tuple:
    """Structure constants over the basis f_i = sum_k S[k][i] e_k."""
    n = len(unit)
    sinv = inverse(F, S)
    cols = [[S[k][i] for k in range(n)] for i in range(n)]

    def coords(v):
        return [sum((sinv[r][k] * v[k] for k in range(n)), F.zero) for r in range(n)]

    new_mult = [[coords(algebra_mul(F, mult, cols[i], cols[j])) for j in range(n)]
                for i in range(n)]
    new_unit = coords(unit)
    new_tr = [sum((tr[k] * cols[i][k] for k in range(n)), F.zero) for i in range(n)]
    return new_mult, new_unit, new_tr


def block_hole_trace(F: Scalars, kind: str, tr: list, n: int):
    """tr(E^n) on one block, E the hole element sum_i x_i y_i."""
    if kind == "point":
        return tr[0] * _pow(F.one / tr[0], n)
    if kind in ("x2", "x3"):
        if n == 0:
            return tr[0]
        return F.of(BLOCK_DIM[kind]) if n == 1 else F.zero
    r = tr[0]
    return 2 * r * _pow(F.of(2) / r, n)


def _pow(x, n: int):
    out = 1
    for _ in range(n):
        out = out * x
    return out


def undecorated_surface(F: Scalars, blocks: list, genus: int, holes: int):
    """Value of a connected surface of the given genus with ``holes``
    undecorated boundary circles: sum over blocks of tr(E^(genus+holes-1))."""
    n = genus + holes - 1
    s = F.zero
    for kind, tr in blocks:
        s = s + block_hole_trace(F, kind, tr, n)
    return s


def circle_values(doc: dict):
    """Circle word values of a theory document, as a function of the word.

    ``tracerep``: tr(weight * M_w).  ``rational1``: the Taylor coefficient
    of the word's length.  ``trace_of_interval``: the trace of the word's
    action on the minimal interval state space; the generator only emits
    minimal presentations, so for ``linrep`` data that is tr(M_w), and for
    ``rational1`` data the letter acts on the minimal space as
    H0^-1 * H1, with H0 and H1 the Hankel matrices of the coefficients and
    of their shift.
    """
    F = Scalars.of_doc(doc)
    cdoc = doc["circular"]
    if cdoc["kind"] == "tracerep":
        return CircleOracle(doc).value
    if cdoc["kind"] == "rational1":
        num = [F.parse(x) for x in cdoc["num"]]
        den = [F.parse(x) for x in cdoc["den"]]
        return lambda w: taylor(F, num, den, len(w))[len(w)]
    iv = IntervalOracle(doc)
    if iv.kind == "linrep":
        def value(w):
            m = identity(F, iv.dim)
            for a in w:
                m = matmul(F, m, iv.letters[a], iv.dim)
            return trace(F, m)
        return value
    d = iv.dim
    h0 = [[iv.value((0,) * (i + j)) for j in range(d)] for i in range(d)]
    h1 = [[iv.value((0,) * (i + j + 1)) for j in range(d)] for i in range(d)]
    x = matmul(F, inverse(F, h0), h1, d)

    def value_rat(w):
        m = identity(F, d)
        for _ in w:
            m = matmul(F, m, x, d)
        return trace(F, m)
    return value_rat


def arc_span_dim(doc: dict) -> int:
    """Dimension of the span of the pairs (M_w, C_w) over all words, M the
    interval letters and C the circle letters (C = M in trace mode).  For a
    minimal interval presentation this is the size of the library's arc
    word family; the generator uses it to keep every slot at its generic
    size.  Words are added length by length until a length adds nothing,
    after which no longer word can."""
    F = Scalars.of_doc(doc)
    iv = IntervalOracle(doc)
    if doc["circular"]["kind"] == "tracerep":
        circ = CircleOracle(doc)
        cl, cd = circ.letters, circ.dim
    else:
        cl, cd = iv.letters, iv.dim
    nl = len(iv.alphabet)
    layer = [(identity(F, iv.dim), identity(F, cd))]
    basis: list = []

    def add(m, c) -> bool:
        vec = [x for row in m for x in row] + [x for row in c for x in row]
        before = len(basis)
        basis[:] = echelon(F, basis + [vec])
        return len(basis) > before

    add(*layer[0])
    while layer:
        nxt = []
        for m, c in layer:
            for a in range(nl):
                m2 = matmul(F, m, iv.letters[a], iv.dim)
                c2 = matmul(F, c, cl[a], cd)
                if add(m2, c2):
                    nxt.append((m2, c2))
        layer = nxt
    return len(basis)


class SurfaceOracle:
    """Closed-form surface values computed in the algebra's block basis:
    per component tr(pi(w1) * E^genus * prod_j window(pi(wj))), with dual
    bases from this module's own Gram inverse."""

    def __init__(self, F: Scalars, mult: list, unit: list, tr: list, S: list):
        self.F, self.mult, self.unit, self.tr, self.S = F, mult, unit, tr, S
        n = self.n = len(unit)
        gram = [[self.trace_of(self.mul(self.e(i), self.e(j))) for j in range(n)]
                for i in range(n)]
        ginv = inverse(F, gram)
        self.ys = [[ginv[k][j] for k in range(n)] for j in range(n)]
        self.E = self.zero()
        for i in range(n):
            self.E = self.add(self.E, self.mul(self.e(i), self.ys[i]))

    def e(self, i):
        return [self.F.one if j == i else self.F.zero for j in range(self.n)]

    def zero(self):
        return [self.F.zero] * self.n

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def mul(self, x, y):
        return algebra_mul(self.F, self.mult, x, y)

    def trace_of(self, x):
        return sum((a * b for a, b in zip(self.tr, x)), self.F.zero)

    def from_doc(self, coords: list):
        """Block coordinates S * v of an element given in document
        coordinates (text scalars)."""
        v = [self.F.parse(c) for c in coords]
        return [sum((self.S[r][k] * v[k] for k in range(self.n)), self.F.zero)
                for r in range(self.n)]

    def window(self, x):
        out = self.zero()
        for i in range(self.n):
            out = self.add(out, self.mul(self.mul(self.ys[i], x), self.e(i)))
        return out

    def word(self, elems: list):
        out = list(self.unit)
        for el in elems:
            out = self.mul(out, self.from_doc(el))
        return out

    def surface(self, doc: dict):
        total = self.F.one
        for comp in doc["components"]:
            bounds = comp["boundaries"]
            acc = self.word(bounds[0])
            for _ in range(comp["genus"]):
                acc = self.mul(acc, self.E)
            for w in bounds[1:]:
                acc = self.mul(acc, self.window(self.word(w)))
            total = total * self.trace_of(acc)
        return total


def _hankel(seq: list, size: int, shift: int = 0) -> list:
    return [[seq[i + j + shift] for j in range(size)] for i in range(size)]


def onevar_dims(doc: dict, size: int = 8) -> tuple:
    """(dim A(+), dim U, dim K) of a one-letter theory from its value
    sequences alone.  With a_n the interval values, the letter acts on the
    minimal state space as X = H0^-1 H1 (Hankel matrices of a and of its
    shift); c_n are the circle values, with minimal letter Y built the same
    way; t_n = tr(X^n).  Then dim A(+) is the Hankel rank of a, dim U the
    dimension of the span of the pairs (X^n, Y^n), and dim K the Hankel
    rank of c - t.  ``size`` bounds every rank searched for."""
    F = Scalars.of_doc(doc)
    iv = IntervalOracle(doc)
    circle = circle_values(doc)
    terms = 2 * size
    a = [iv.value((0,) * n) for n in range(terms)]
    c = [circle((0,) * n) for n in range(terms)]
    d_i = rank(F, _hankel(a, size))
    d_c = rank(F, _hankel(c, size))

    def shift_op(seq, d):
        return matmul(F, inverse(F, _hankel(seq, d)), _hankel(seq, d, 1), d)

    x = shift_op(a, d_i)
    y = shift_op(c, d_c) if d_c else []
    px, py = identity(F, d_i), identity(F, d_c)
    rows, t = [], []
    for _ in range(terms):
        t.append(trace(F, px))
        rows.append([v for r in px for v in r] + [v for r in py for v in r])
        px, py = matmul(F, px, x, d_i), matmul(F, py, y, d_c)
    k = rank(F, _hankel([ci - ti for ci, ti in zip(c, t)], size))
    return d_i, rank(F, rows[: d_i + d_c + 2]), k
