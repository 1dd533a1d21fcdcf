"""Symmetric Frobenius algebra engine.

An algebra is given by structure constants over an exact field, a unit
vector, and a trace covector.  On top of that this module provides axiom
verification, dual bases, the window (Casimir) map b |-> sum_i y_i b x_i,
the hole element E = sum_i x_i y_i, the induced map B/[B,B] -> Z(B), the
evaluation of thin flat surfaces with decorated boundary circles (closed
form and a literal small-step surgery rewriter used as an oracle), and a
characteristic-zero semisimplicity obstruction for trace-preserving
embeddings into matrix algebras.

Elements are column coordinate vectors over the algebra basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product, repeat
from operator import mul

from .errors import (
    ClosedComponent,
    DegenerateTrace,
    FieldMismatch,
    InvalidArgument,
    SchemaError,
    SingularMatrix,
)
from .exactla import Echelon, Field, Matrix, _ints, _joined, _wrap, hstack
from .lru import LRU, remember

__all__ = [
    "BetaReport",
    "FrobeniusAlgebra",
    "ObstructionReport",
    "SurfaceComponent",
    "SurfaceSpec",
    "VerifyReport",
    "beta_map",
    "dual_bases",
    "embedding_obstruction",
    "eval_surface",
    "eval_surface_by_surgery",
    "frobenius_from_json",
    "frobenius_to_json",
    "hole_element",
    "surface_from_json",
    "verify",
    "window",
]


class FrobeniusAlgebra:
    """Finite-dimensional algebra with a trace covector.

    ``mult[i][j][k]`` is the coefficient of basis element k in the product
    of basis elements i and j; ``unit`` and ``trace`` are coordinate
    tuples.  Construction reads every entry through ``field.of`` once, so
    ints and Fractions are accepted, and checks shapes; the algebra axioms
    are the business of :func:`verify`.  The structure constants are stored
    only as the integer cube (residues over F_p, numerators over one
    denominator over QQ), the unit as a column and the trace as a row
    ``Matrix``; ``mult``, ``unit`` and ``trace`` are read off them.  The
    cube is the one product path: products, the Gram matrix, the trace, the
    hole element, the window map, the center, the regular trace form and
    :func:`verify` contract matrices' ints against it.  The basis columns,
    the Gram matrix, the dual bases, the hole element and the window matrix
    W are built on first use and held for the life of the algebra; setting
    or deleting an attribute raises ``AttributeError``.
    """

    def __init__(self, field: Field, names, mult, unit, trace):
        n = len(names)
        if len(mult) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in mult
        ):
            raise ValueError("structure constants must form an n x n x n cube")
        if len(unit) != n or len(trace) != n:
            raise ValueError("unit and trace must have one entry per basis element")
        self._store(field, names,
                    _ints(field, [field.of(c) for plane in mult for row in plane for c in row]),
                    Matrix.col_vector(field, unit), Matrix.row_vector(field, trace))

    @classmethod
    def _of_cube(cls, field: Field, names, cube, unit: Matrix,
                 trace: Matrix) -> "FrobeniusAlgebra":
        """The algebra of the cube (flat, row-major) as (ints, d), the unit
        column and the trace row."""
        b = object.__new__(cls)
        b._store(field, names, cube, unit, trace)
        return b

    def _store(self, field, names, cube, unit, trace):
        n = len(names)
        flat, D = cube
        it = iter(flat)
        # _cube is (cube, D): cube[i][j] holds the pairs (k, m) with m != 0,
        # where m / D is mult[i][j][k] (D = 1 and m a residue over F_p)
        sparse = tuple(tuple(tuple((k, m) for k, m in enumerate(islice(it, n)) if m)
                             for _ in range(n)) for _ in range(n))
        for name, value in zip(("field", "names", "_cube", "_unit", "_trace"),
                               (field, tuple(map(str, names)), (sparse, D), unit, trace)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FrobeniusAlgebra is immutable")

    def __delattr__(self, name):
        raise AttributeError("FrobeniusAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.names)

    @cached_property
    def mult(self) -> tuple:
        """The structure constants as field values, from the integer cube."""
        cube, D = self._cube
        n = self.dim
        return tuple(tuple(_wrap(self.field, [row.get(k, 0) for k in range(n)], D)
                           for row in map(dict, plane)) for plane in cube)

    @cached_property
    def unit(self) -> tuple:
        """The unit's coordinates as field values."""
        return self._unit.flat()

    @cached_property
    def trace(self) -> tuple:
        """The trace covector as field values."""
        return self._trace.flat()

    def el(self, coeffs) -> Matrix:
        return Matrix.col_vector(self.field, list(coeffs))

    @cached_property
    def basis_columns(self) -> tuple:
        """The basis elements e_0, ..., e_{n-1} as coordinate columns."""
        F, n = self.field, self.dim
        return tuple(Matrix._raw(F, tuple(int(i == j) for j in range(n)), 1, n, 1)
                     for i in range(n))

    def basis_el(self, i: int) -> Matrix:
        return self.basis_columns[i]

    def unit_el(self) -> Matrix:
        return self._unit

    def _coords(self, x: Matrix) -> tuple:
        """(ints, d) of an element, which must be a dim x 1 column over the
        algebra's field."""
        F, n = self.field, self.dim
        if not isinstance(x, Matrix) or x.field != F or x.rows != n or x.cols != 1:
            raise FieldMismatch(f"algebra elements must be {n}x1 columns over {F!r}")
        return x._num, x._den

    def _column(self, ints, d: int) -> Matrix:
        """The element with the coordinates ``ints`` over d."""
        return Matrix._of_ints(self.field, ints, d, self.dim, 1)

    def _contract(self, h, d: int) -> Matrix:
        """sum_{i,j} h[i][j] e_i e_j for ints h over d: out_k =
        sum_{i,j} h_ij c_ij^k, over d D."""
        cube, D = self._cube
        out = [0] * self.dim
        for hrow, plane in zip(h, cube):
            for hij, pairs in zip(hrow, plane):
                if hij:
                    for k, m in pairs:
                        out[k] += hij * m
        return self._column(out, d * D)

    def mul(self, x: Matrix, y: Matrix) -> Matrix:
        """x*y, contracted from the integer cube:
        out_k = sum_{i,j} x_i y_j mult[i][j][k], on the numerators of x and
        y, over the product of the denominators.  Zero coordinates and zero
        constants add nothing, so skipping them is exact; a product of basis
        elements costs n steps, a dense element times a basis element
        n^2."""
        n = self.dim
        (xs, dx), (ys, dy) = self._coords(x), self._coords(y)
        cube, D = self._cube
        ys = [(j, yj) for j, yj in enumerate(ys) if yj]
        out = [0] * n
        for xi, plane in zip(xs, cube):
            if xi:
                for j, yj in ys:
                    c = xi * yj
                    for k, m in plane[j]:
                        out[k] += c * m
        return self._column(out, dx * dy * D)

    def product(self, elements) -> Matrix:
        """The product of the elements from the first, left to right, each
        checked through ``_coords``; the empty product is the unit."""
        factors = iter(elements)
        out = next(factors, None)
        if out is None:
            return self.unit_el()
        self._coords(out)
        for e in factors:
            out = self.mul(out, e)
        return out

    def power(self, x: Matrix, n: int) -> Matrix:
        if n < 0:
            raise InvalidArgument(f"algebra power {n} is negative")
        return self.product(repeat(x, n))

    def trace_of(self, x: Matrix):
        xs, dx = self._coords(x)
        return self.field._value(sum(map(mul, self._trace._num, xs)), self._trace._den * dx)

    def gram(self) -> Matrix:
        """G[i][j] = trace(e_i * e_j), built on first use and held."""
        return self._gram

    @cached_property
    def _gram(self) -> Matrix:
        cube, D = self._cube
        tr = self._trace._num
        return Matrix._of_ints(self.field, [sum(m * tr[k] for k, m in pairs)
                                            for plane in cube for pairs in plane],
                               D * self._trace._den, self.dim, self.dim)

    def is_commutative(self) -> bool:
        cube = self._cube[0]
        return all(cube[i][j] == cube[j][i] for i, j in combinations(range(self.dim), 2))

    # A degenerate trace raises inside these properties, so nothing is
    # stored and every access raises DegenerateTrace again.

    @cached_property
    def duals(self) -> tuple[tuple, tuple]:
        """:func:`dual_bases` of this algebra, computed once."""
        return dual_bases(self)

    @cached_property
    def _dual_rows(self) -> tuple[list, int]:
        """(g, d): g[i] the coordinates of the dual y_i, as ints over d."""
        n = self.dim
        flat, d = _joined(self.duals[1])
        return [flat[i * n:(i + 1) * n] for i in range(n)], d

    @cached_property
    def hole(self) -> Matrix:
        """See :func:`hole_element`: sum_i e_i y_i, one contraction."""
        return self._contract(*self._dual_rows)

    @cached_property
    def window_matrix(self) -> Matrix:
        """W, the n x n matrix of :func:`window`: column i is window(e_i),
        one :meth:`_window_column` each."""
        n = self.dim
        if not n:
            return Matrix.zeros(self.field, 0, 0)
        return hstack([self._window_column(i) for i in range(n)])

    def _window_column(self, i: int) -> Matrix:
        """window(e_i) = sum_j y_j e_i e_j.  With g[j] the coordinates of
        y_j it is sum_{l,j} h_lj e_l e_j, h_lj = sum_m g_jm c_mi^l:
        contracted on the integer cube, with no product of elements."""
        cube, D = self._cube
        g, dg = self._dual_rows
        right = [[0] * self.dim for _ in cube]  # right[m][l] = c_mi^l
        for rm, plane in zip(right, cube):
            for l, m in plane[i]:
                rm[l] = m
        return self._contract([[sum(map(mul, gj, col)) for gj in g] for col in zip(*right)],
                              dg * D)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Per-axiom pass/fail with a witness basis tuple on failure."""

    associative: bool
    associative_witness: tuple | None
    unital: bool
    unital_witness: int | None
    symmetric: bool
    symmetric_witness: tuple | None
    nondegenerate: bool
    radical_witness: Matrix | None

    @property
    def passed(self) -> bool:
        return (self.associative and self.unital and self.symmetric
                and self.nondegenerate)


def verify(b: FrobeniusAlgebra) -> VerifyReport:
    """Check associativity, unit laws, trace symmetry, and nondegeneracy of
    the trace pairing.

    Associativity and the unit laws are compared on the integer cube, with
    no field value per intermediate product.  (e_i e_j) e_k and
    e_i (e_j e_k) are sum_l c_ij^l c_lk and sum_l c_jk^l c_il, both over
    D^2; u e_i and e_i u are sum_l u_l c_li and sum_l u_l c_il over du D,
    against du D e_i.  Over F_p the comparisons are mod p.  The witnesses
    are the lexicographically first failing triple (i, j, k), the first
    failing i of the unit laws, the first i < j with G[i, j] != G[j, i] in
    the Gram matrix G, and the first vector of its radical.

    Associativity is first tested on the middle factors j in the
    generating set S of :func:`_generators` only (Light's test; Clifford
    and Preston, *The Algebraic Theory of Semigroups* I, 1961): n^4 |S|
    steps instead of n^5.  It is exact.  T = {s : (x s) y = x (s y) for
    all x, y} is a subspace, as the condition is linear in s, and it is
    closed under products: for s, t in T,
    (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y).
    So when S lies in T, T contains U, the span of S closed under
    multiplication by S on either side, and U is the whole algebra by the
    choice of S: every triple passes.  Only when some s in S fails are all
    n^3 triples scanned, in lexicographic order, for the witness."""
    F, n = b.field, b.dim
    p = F.char
    cube, D = b._cube

    def nonzero(v) -> bool:
        return any(x % p for x in v) if p else any(v)

    def fails(i, j, k) -> bool:
        diff = [0] * n
        for l, m in cube[i][j]:
            for o, c in cube[l][k]:
                diff[o] += m * c
        for l, m in cube[j][k]:
            for o, c in cube[i][l]:
                diff[o] -= m * c
        return nonzero(diff)

    assoc_w = None
    if any(fails(i, s, k) for s in _generators(b) for i in range(n) for k in range(n)):
        assoc_w = next(t for t in product(range(n), repeat=3) if fails(*t))

    us, du = b._coords(b.unit_el())
    us = [(l, u) for l, u in enumerate(us) if u]
    unital_w = None
    for i in range(n):
        left, right = [0] * n, [0] * n
        left[i] = right[i] = -du * D
        for l, u in us:
            for o, c in cube[l][i]:
                left[o] += u * c
            for o, c in cube[i][l]:
                right[o] += u * c
        if nonzero(left) or nonzero(right):
            unital_w = i
            break

    G = b.gram()
    g = G._num
    sym_w = next(((i, j) for i, j in combinations(range(n), 2)
                  if g[i * n + j] != g[j * n + i]), None)
    radical = G.kernel_basis()
    return VerifyReport(
        associative=assoc_w is None,
        associative_witness=assoc_w,
        unital=unital_w is None,
        unital_witness=unital_w,
        symmetric=sym_w is None,
        symmetric_witness=sym_w,
        nondegenerate=not radical,
        radical_witness=radical[0] if radical else None,
    )


def _generators(b: FrobeniusAlgebra) -> list[int]:
    """Basis indices S whose products span the algebra, chosen greedily:
    the first g with e_g outside U, where U is the span of S closed under
    multiplication by S on either side, until U is everything.  U is kept
    as an :class:`Echelon` of integer coordinate rows (scaling and the
    denominator D do not change a span)."""
    n = b.dim
    cube = b._cube[0]
    ech, gens = Echelon(b.field), []
    rows = ech.rows
    for g in range(n):
        if len(rows) == n:
            break
        start = len(rows)
        if not ech.add([int(k == g) for k in range(n)]):
            continue
        gens.append(g)
        # rows before start are closed under the earlier generators, so
        # they only need g; the new rows need every generator
        i = 0
        while i < len(rows) < n:
            u = rows[i][1]
            for s in gens if i >= start else (g,):
                left, right = [0] * n, [0] * n  # e_s u and u e_s
                for j, x in enumerate(u):
                    if x:
                        for k, m in cube[s][j]:
                            left[k] += x * m
                        for k, m in cube[j][s]:
                            right[k] += x * m
                ech.add(left)
                ech.add(right)
            i += 1
    return gens


def dual_bases(b: FrobeniusAlgebra) -> tuple[tuple, tuple]:
    """Bases {x_i}, {y_i} with trace(x_i * y_j) = delta_ij; the x_i are the
    algebra basis and y_j has coordinates column j of the inverse Gram
    matrix.  Raises DegenerateTrace when the trace pairing is singular.
    Each call inverts the Gram matrix; :attr:`FrobeniusAlgebra.duals`
    holds the result."""
    try:
        ginv = b.gram().inverse()
    except SingularMatrix:
        raise DegenerateTrace("trace pairing is singular") from None
    return b.basis_columns, tuple(ginv._sub(cols=[j]) for j in range(b.dim))


def window(b: FrobeniusAlgebra, elem: Matrix) -> Matrix:
    """sum_i y_i * elem * x_i; central, basis-choice independent.  The
    map is linear, so this is W elem for the window matrix W the algebra
    holds (:attr:`FrobeniusAlgebra.window_matrix`)."""
    W = b.window_matrix
    b._coords(elem)
    return W * elem


def hole_element(b: FrobeniusAlgebra) -> Matrix:
    """E = sum_i x_i y_i; the element a handle inserts.  For a
    symmetric trace it equals window(unit), the element an undecorated
    side-boundary circle inserts; otherwise the two may differ."""
    return b.hole


# -- center, commutators, and the induced map --------------------------------


def commutator_space(b: FrobeniusAlgebra) -> list[Matrix]:
    """Basis of [B,B] = span{e_i e_j - e_j e_i}, deterministic order: the
    first commutators independent of those before them.  Each commutator
    is read off the integer cube, c_ij - c_ji over D, tested as ints, and
    made a column if kept."""
    F, n = b.field, b.dim
    cube, D = b._cube
    ech = Echelon(F)
    kept = []
    for i, j in combinations(range(n), 2):
        c = [0] * n
        for k, m in cube[i][j]:
            c[k] += m
        for k, m in cube[j][i]:
            c[k] -= m
        if ech.add(c):
            kept.append(b._column(c, D))
    return kept


def _commutator_rows(b: FrobeniusAlgebra) -> Matrix:
    """The n^2 x n matrix R with R x = 0 exactly when x*e_j = e_j*x for all
    j.  Row k of block j reads coordinate k of x*e_j - e_j*x off the
    integer cube: c_ij^k - c_ji^k over D in column i."""
    n = b.dim
    cube, D = b._cube
    out = [0] * n ** 3  # row (j, k), column i
    for i, j in product(range(n), repeat=2):
        for k, m in cube[i][j]:
            out[(j * n + k) * n + i] += m
            out[(i * n + k) * n + j] -= m
    return Matrix._of_ints(b.field, out, D, n * n, n)


def center_basis(b: FrobeniusAlgebra) -> list[Matrix]:
    """Basis of Z(B): the kernel of :func:`_commutator_rows`."""
    return _commutator_rows(b).kernel_basis()


@dataclass(frozen=True)
class BetaReport:
    """The window map factored through B/[B,B] -> Z(B).

    ``matrix`` has one column per quotient coset representative (their
    basis indices in ``quotient_reps``) and one row per center basis
    vector."""

    commutators: tuple
    center: tuple
    quotient_reps: tuple
    matrix: Matrix
    kills_commutators: bool
    lands_in_center: bool

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def beta_map(b: FrobeniusAlgebra) -> BetaReport:
    """Compute [B,B] and Z(B), check that the window map kills commutators
    and lands in the center, and return the induced quotient map."""
    F, n = b.field, b.dim
    comms = commutator_space(b)
    cent = center_basis(b)
    kills = all(window(b, c).is_zero() for c in comms)

    # coset representatives: standard basis vectors extending [B,B]
    ech = Echelon(F)
    for c in comms:
        ech.add(c._num)
    reps = [i for i in range(n) if ech.add([int(j == i) for j in range(n)])]

    # the rref of [Z | I] is [R | E], E * Z = R = [I; 0] for the center
    # basis Z: the first c rows of E * w are the center coordinates of w,
    # which lands when the others are zero (else its column is zero)
    c, r = len(cent), len(reps)
    num, d, lands = [], 1, True
    if reps:
        RE, _ = hstack(cent + [Matrix.identity(F, n)]).rref()
        EW = RE._sub(cols=range(c, c + n)) * b.window_matrix._sub(cols=reps)
        landed = [not any(EW._num[c * r + j::r]) for j in range(r)]
        lands = all(landed)
        num, d = [x if landed[i % r] else 0 for i, x in enumerate(EW._num[:c * r])], EW._den
    return BetaReport(
        commutators=tuple(comms),
        center=tuple(cent),
        quotient_reps=tuple(reps),
        matrix=Matrix._of_ints(F, num, d, c, r),
        kills_commutators=kills,
        lands_in_center=lands,
    )


# -- surfaces -----------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceComponent:
    """Connected thin flat surface: a genus and one cyclic word of algebra
    elements per boundary circle (empty word = undecorated circle)."""

    genus: int
    boundaries: tuple

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")


@dataclass(frozen=True)
class SurfaceSpec:
    components: tuple


def eval_surface(b: FrobeniusAlgebra, s: SurfaceSpec):
    """Closed-form evaluation: per component
    trace(pi(w1) * E^genus * prod_{j>=2} window(pi(wj))), multiplied over
    components.  Every component needs at least one boundary circle."""
    F = b.field
    total = F.one
    for comp in s.components:
        if not comp.boundaries:
            raise ClosedComponent(
                "surface component without boundary; closed surfaces are "
                "evaluated by the open-closed theory"
            )
        E = hole_element(b)
        acc = b.product(comp.boundaries[0])
        for _ in range(comp.genus):
            acc = b.mul(acc, E)
        for word in comp.boundaries[1:]:
            acc = b.mul(acc, window(b, b.product(word)))
        total = total * b.trace_of(acc)
    return total


def eval_surface_by_surgery(b: FrobeniusAlgebra, s: SurfaceSpec):
    """Literal small-step surgery evaluation (oracle for eval_surface).

    Handles are cut by inserting the dual pair x_i, y_i at the front of the
    first boundary word; two boundary circles are merged by cutting the
    neck between them, splicing the last word into the first around the
    dual pair.  Base case: genus 0, one boundary, value trace(pi(w))."""
    xs, ys = b.duals
    F = b.field

    def comp_value(genus: int, words: tuple):
        if genus > 0:
            out = F.zero
            for x, y in zip(xs, ys):
                spliced = ((x, y) + words[0],) + words[1:]
                out = out + comp_value(genus - 1, spliced)
            return out
        if len(words) >= 2:
            out = F.zero
            for x, y in zip(xs, ys):
                merged = words[0] + (y,) + words[-1] + (x,)
                out = out + comp_value(0, (merged,) + words[1:-1])
            return out
        return b.trace_of(b.product(words[0]))

    total = F.one
    for comp in s.components:
        if not comp.boundaries:
            raise ClosedComponent(
                "surface component without boundary; closed surfaces are "
                "evaluated by the open-closed theory"
            )
        total = total * comp_value(comp.genus, tuple(
            tuple(w) for w in comp.boundaries
        ))
    return total


# -- semisimplicity obstruction -----------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the trace-embedding obstruction.

    status: "semisimple", "not_semisimple", or
    "unsupported_characteristic".  A non-semisimple algebra carries a
    radical witness r (nilpotent, with its verified nilpotency order); any
    trace of a matrix-algebra representation vanishes on the radical, so a
    symmetric Frobenius trace (nondegenerate) cannot arise from one."""

    status: str
    witness: Matrix | None = None
    witness_nilpotency: int | None = None
    trace_of_unit: object = None
    note: str = ""


def embedding_obstruction(b: FrobeniusAlgebra) -> ObstructionReport:
    """Radical of the regular-representation trace form; characteristic
    zero only."""
    F = b.field
    if F.char != 0:
        return ObstructionReport(
            status="unsupported_characteristic",
            note=(f"semisimplicity test via the regular trace form is only "
                  f"valid in characteristic 0 (field has characteristic "
                  f"{F.char})"),
        )
    # T_ij = trace(L_i L_j), L_i left multiplication by e_i: sum_{k,l} c_ik^l c_jl^k
    cube, D = b._cube
    dense = [[dict(pairs) for pairs in plane] for plane in cube]
    T = Matrix._of_ints(F, [
        sum(m * dj[l].get(k, 0) for k, pairs in enumerate(ci) for l, m in pairs)
        for ci in cube for dj in dense], D * D, b.dim, b.dim)
    rad = T.kernel_basis()
    if not rad:
        return ObstructionReport(
            status="semisimple",
            trace_of_unit=b.trace_of(b.unit_el()),
            note=("semisimple; a trace-preserving matrix-algebra embedding "
                  "additionally requires the trace of each central primitive "
                  "idempotent to be a positive integer multiple of a matrix "
                  "trace (informational, not checked)"),
        )
    w = rad[0]
    order, p = None, w
    for step in range(1, b.dim + 2):
        if p.is_zero():
            order = step
            break
        p = b.mul(p, w)
    return ObstructionReport(
        status="not_semisimple",
        witness=w,
        witness_nilpotency=order,
        note=("the regular trace form is degenerate; its radical is "
              "nilpotent in characteristic 0, and every trace through a "
              "matrix algebra vanishes on it, contradicting nondegeneracy "
              "of the Frobenius trace"),
    )


# -- JSON ---------------------------------------------------------------------


# Most algebras frobenius_from_json keeps, keyed by their exact document
# and field; the least recently returned one is dropped first.
ALGEBRA_CACHE = 64
_algebras = LRU(ALGEBRA_CACHE)


def frobenius_from_json(field: Field, doc, path: str = "$") -> FrobeniusAlgebra:
    """Parse {"dim":n,"basis":[names],"mult":[[[c]]],"unit":[...],
    "trace":[...]}; a missing or null basis means the names e0, e1, ...

    A document is read and validated in full unless its exact JSON value
    (its ``lru.exact`` bytes, under the memo rule of ``lru``), over the
    same field, equals one of the last ``ALGEBRA_CACHE`` documents
    accepted; such a repeat gets that same immutable algebra back, with
    its Gram matrix, dual bases, hole element and window matrix W if they
    were built; beyond the bound the least recently returned one is
    dropped.
    A document that differs in spelling, key order or an ignored key is
    read in full and gets an algebra of its own.  The read takes every
    scalar through the scalar grammar straight to integers
    (``Field._read``) and raises any error before the algebra is built.
    """
    return remember(doc, field, _algebras,
                    lambda: _algebra_read(field, doc, path))


def _algebra_read(field: Field, doc, path: str) -> FrobeniusAlgebra:
    """The FrobeniusAlgebra of a document, read and checked in full."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an algebra object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
    names = doc.get("basis")
    if names is not None and (not isinstance(names, list) or len(names) != dim
                              or not all(isinstance(x, str) for x in names)):
        raise SchemaError(f"{path}.basis", f"expected {dim} basis names")
    cube, D = field._read(doc.get("mult"), (dim, dim, dim), f"{path}.mult")
    # the default names are built only now, once mult has shown dim is real
    names = tuple(names or [f"e{i}" for i in range(dim)])
    unit, du = field._read(doc.get("unit"), (dim,), f"{path}.unit")
    trace, dt = field._read(doc.get("trace"), (dim,), f"{path}.trace")
    return FrobeniusAlgebra._of_cube(
        field, names, (cube, D), Matrix._raw(field, unit, du, dim, 1),
        Matrix._raw(field, trace, dt, 1, dim))


def frobenius_to_json(b: FrobeniusAlgebra) -> dict:
    f = b.field.format
    return {
        "field": b.field.tag(),
        "dim": b.dim,
        "basis": list(b.names),
        "mult": [[[f(c) for c in row] for row in plane] for plane in b.mult],
        "unit": [f(c) for c in b.unit],
        "trace": [f(c) for c in b.trace],
    }


def element_from_json(b: FrobeniusAlgebra, doc, path: str) -> Matrix:
    return Matrix._raw(b.field, *b.field._read(doc, (b.dim,), path), b.dim, 1)


# Largest genus a surface document may give a component: evaluation takes
# one product per handle, and a closed component one Taylor coefficient.
GENUS_BOUND = 64


def surface_from_json(b: FrobeniusAlgebra, doc, path: str = "$") -> SurfaceSpec:
    """Parse {"components":[{"genus":g,"boundaries":[[elem,...],...]},...]}
    where each elem is a coordinate array over the algebra basis and each
    genus lies between 0 and GENUS_BOUND."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a surface object")
    comps = doc.get("components")
    if not isinstance(comps, list):
        raise SchemaError(f"{path}.components", "expected an array")
    out = []
    for i, c in enumerate(comps):
        cpath = f"{path}.components[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(cpath, "expected a component object")
        g = c.get("genus", 0)
        if not isinstance(g, int) or isinstance(g, bool) or g < 0:
            raise SchemaError(f"{cpath}.genus", "expected a nonnegative integer")
        if g > GENUS_BOUND:
            raise SchemaError(f"{cpath}.genus", f"must be at most {GENUS_BOUND}")
        bdoc = c.get("boundaries")
        if not isinstance(bdoc, list):
            raise SchemaError(f"{cpath}.boundaries", "expected an array")
        bounds = []
        for j, word in enumerate(bdoc):
            wpath = f"{cpath}.boundaries[{j}]"
            if not isinstance(word, list):
                raise SchemaError(wpath, "expected an array of elements")
            bounds.append(tuple(
                element_from_json(b, e, f"{wpath}[{t}]")
                for t, e in enumerate(word)
            ))
        out.append(SurfaceComponent(genus=g, boundaries=tuple(bounds)))
    return SurfaceSpec(components=tuple(out))
