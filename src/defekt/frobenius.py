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

from .errors import (
    ClosedComponent,
    DegenerateTrace,
    FieldMismatch,
    SchemaError,
    SingularMatrix,
)
from .exactla import Echelon, Field, Matrix

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
    tuples.  Construction checks shapes only; the algebra axioms are the
    business of :func:`verify`.  The dual bases and the hole element are
    built on first use and held for the life of the algebra.
    """

    def __init__(self, field: Field, names, mult, unit, trace):
        n = len(names)
        names = tuple(str(x) for x in names)
        mult = tuple(tuple(tuple(row) for row in plane) for plane in mult)
        unit = tuple(unit)
        trace = tuple(trace)
        if len(mult) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in mult
        ):
            raise ValueError("structure constants must form an n x n x n cube")
        if len(unit) != n or len(trace) != n:
            raise ValueError("unit and trace must have one entry per basis element")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "trace", trace)

    def __setattr__(self, name, value):
        raise AttributeError("FrobeniusAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def is_zero_algebra(self) -> bool:
        return self.dim == 0

    def el(self, coeffs) -> Matrix:
        return Matrix.col_vector(self.field, list(coeffs))

    def basis_el(self, i: int) -> Matrix:
        F = self.field
        return self.el([F.one if j == i else F.zero for j in range(self.dim)])

    def unit_el(self) -> Matrix:
        return self.el(self.unit)

    def zero_el(self) -> Matrix:
        return Matrix.zeros(self.field, self.dim, 1)

    def left_mult_matrix(self, x: Matrix) -> Matrix:
        """Matrix of y |-> x*y."""
        F = self.field
        n = self.dim
        rows = []
        for k in range(n):
            rows.append([
                sum((x[i, 0] * self.mult[i][j][k] for i in range(n)), F.zero)
                for j in range(n)
            ])
        return Matrix(F, rows, cols=n)

    def right_mult_matrix(self, y: Matrix) -> Matrix:
        """Matrix of x |-> x*y."""
        F = self.field
        n = self.dim
        rows = []
        for k in range(n):
            rows.append([
                sum((y[j, 0] * self.mult[i][j][k] for j in range(n)), F.zero)
                for i in range(n)
            ])
        return Matrix(F, rows, cols=n)

    def mul(self, x: Matrix, y: Matrix) -> Matrix:
        """x*y, contracted from the structure constants:
        out_k = sum_{i,j} x_i y_j mult[i][j][k].  Zero coordinates and zero
        constants add nothing, so skipping them is exact; a product of
        basis elements costs n steps, a dense element times a basis
        element n^2."""
        n = self.dim
        for v in (x, y):
            if (not isinstance(v, Matrix) or v.field != self.field
                    or v.rows != n or v.cols != 1):
                raise FieldMismatch(
                    f"algebra elements must be {n}x1 columns over {self.field!r}")
        out = [self.field.zero] * n
        ys = [(j, yj) for j, (yj,) in enumerate(y.data) if yj]
        for (xi,), plane in zip(x.data, self.mult):
            if xi:
                for j, yj in ys:
                    c = xi * yj
                    for k, m in enumerate(plane[j]):
                        if m:
                            out[k] = out[k] + c * m
        return Matrix.col_vector(self.field, out)

    def product(self, elements) -> Matrix:
        out = self.unit_el()
        for e in elements:
            out = self.mul(out, e)
        return out

    def power(self, x: Matrix, n: int) -> Matrix:
        out = self.unit_el()
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def trace_of(self, x: Matrix):
        F = self.field
        return sum((self.trace[i] * x[i, 0] for i in range(self.dim)), F.zero)

    def gram(self) -> Matrix:
        """G[i][j] = trace(e_i * e_j)."""
        F = self.field
        n = self.dim
        return Matrix(
            F,
            [
                [
                    sum((self.mult[i][j][k] * self.trace[k] for k in range(n)),
                        F.zero)
                    for j in range(n)
                ]
                for i in range(n)
            ],
            cols=n,
        )

    def is_commutative(self) -> bool:
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    # A degenerate trace raises inside the property, so nothing is stored
    # and every access raises DegenerateTrace again.

    @cached_property
    def duals(self) -> tuple[tuple, tuple]:
        """See :func:`dual_bases`."""
        try:
            ginv = self.gram().inverse()
        except SingularMatrix:
            raise DegenerateTrace("trace pairing is singular") from None
        xs = tuple(self.basis_el(i) for i in range(self.dim))
        ys = tuple(Matrix.col_vector(self.field, list(ginv.column(j)))
                   for j in range(self.dim))
        return xs, ys

    @cached_property
    def hole(self) -> Matrix:
        """See :func:`hole_element`."""
        out = self.zero_el()
        for x, y in zip(*self.duals):
            out = out + self.mul(x, y)
        return out


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
    the trace pairing."""
    n = b.dim
    assoc, assoc_w = True, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = b.mul(b.mul(b.basis_el(i), b.basis_el(j)), b.basis_el(k))
                right = b.mul(b.basis_el(i), b.mul(b.basis_el(j), b.basis_el(k)))
                if left != right:
                    assoc, assoc_w = False, (i, j, k)
                    break
            if not assoc:
                break
        if not assoc:
            break

    unital, unital_w = True, None
    u = b.unit_el()
    for i in range(n):
        e = b.basis_el(i)
        if b.mul(u, e) != e or b.mul(e, u) != e:
            unital, unital_w = False, i
            break

    G = b.gram()
    sym, sym_w = True, None
    for i in range(n):
        for j in range(i + 1, n):
            if G[i, j] != G[j, i]:
                sym, sym_w = False, (i, j)
                break
        if not sym:
            break

    radical = G.kernel_basis()
    nondeg = not radical
    return VerifyReport(
        associative=assoc,
        associative_witness=assoc_w,
        unital=unital,
        unital_witness=unital_w,
        symmetric=sym,
        symmetric_witness=sym_w,
        nondegenerate=nondeg,
        radical_witness=None if nondeg else radical[0],
    )


def dual_bases(b: FrobeniusAlgebra) -> tuple[tuple, tuple]:
    """Bases {x_i}, {y_i} with trace(x_i * y_j) = delta_ij; the x_i are the
    algebra basis and y_j has coordinates column j of the inverse Gram
    matrix.  Raises DegenerateTrace when the trace pairing is singular."""
    return b.duals


def window(b: FrobeniusAlgebra, elem: Matrix) -> Matrix:
    """sum_i y_i * elem * x_i; central, basis-choice independent."""
    out = b.zero_el()
    for x, y in zip(*b.duals):
        out = out + b.mul(b.mul(y, elem), x)
    return out


def hole_element(b: FrobeniusAlgebra) -> Matrix:
    """E = sum_i x_i y_i; the central element inserted by an undecorated
    side-boundary circle (equals window(unit))."""
    return b.hole


# -- center, commutators, and the induced map --------------------------------


def commutator_space(b: FrobeniusAlgebra) -> list[Matrix]:
    """Basis of [B,B] = span{e_i e_j - e_j e_i}, deterministic order: the
    first commutators independent of those before them."""
    ech = Echelon(b.field)
    kept = []
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            ei, ej = b.basis_el(i), b.basis_el(j)
            c = b.mul(ei, ej) - b.mul(ej, ei)
            if ech.add(c.flat()):
                kept.append(c)
    return kept


def center_basis(b: FrobeniusAlgebra) -> list[Matrix]:
    """Basis of Z(B), the solutions of x*e_j = e_j*x for all j.  Row k of
    block j reads coordinate k of x*e_j - e_j*x off the structure
    constants: mult[i][j][k] - mult[j][i][k] in column i."""
    n = b.dim
    if n == 0:
        return []
    m = b.mult
    return Matrix(b.field, [
        [m[i][j][k] - m[j][i][k] for i in range(n)]
        for j in range(n) for k in range(n)
    ], cols=n).kernel_basis()


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
    F = b.field
    n = b.dim
    comms = commutator_space(b)
    cent = center_basis(b)
    kills = all(window(b, c).is_zero() for c in comms)

    # coset representatives: standard basis vectors extending [B,B]
    ech = Echelon(F)
    for c in comms:
        ech.add(c.flat())
    reps = [i for i in range(n) if ech.add(b.basis_el(i).flat())]

    cent_mat = (Matrix(F, [list(col) for col in
                           zip(*[list(c.flat()) for c in cent])], cols=len(cent))
                if cent else Matrix.zeros(F, n, 0))
    lands = True
    cols = []
    for i in reps:
        w = window(b, b.basis_el(i))
        sol = cent_mat.solve(w)
        if sol is None or cent_mat * sol != w:
            lands = False
            sol = Matrix.zeros(F, len(cent), 1)
        cols.append(sol)
    mat = (Matrix(F, [list(row) for row in
                      zip(*[list(c.flat()) for c in cols])], cols=len(cols))
           if cols and cent else Matrix.zeros(F, len(cent), len(reps)))
    return BetaReport(
        commutators=tuple(comms),
        center=tuple(cent),
        quotient_reps=tuple(reps),
        matrix=mat,
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
    xs, ys = dual_bases(b)
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
    n = b.dim
    lefts = [b.left_mult_matrix(b.basis_el(i)) for i in range(n)]
    T = Matrix(
        F,
        [[(lefts[i] * lefts[j]).trace() for j in range(n)] for i in range(n)],
        cols=n,
    )
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
    for step in range(1, n + 2):
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


def _scalar(field: Field, doc, path: str):
    try:
        return field.parse(doc)
    except Exception as e:  # noqa: BLE001 - reported with JSON path
        raise SchemaError(path, str(e)) from None


def _scalar_list(field: Field, doc, n: int, path: str) -> tuple:
    if not isinstance(doc, list) or len(doc) != n:
        raise SchemaError(path, f"expected an array of {n} scalars")
    return tuple(_scalar(field, x, f"{path}[{i}]") for i, x in enumerate(doc))


def frobenius_from_json(field: Field, doc, path: str = "$") -> FrobeniusAlgebra:
    """Parse {"dim":n,"basis":[names],"mult":[[[c]]],"unit":[...],
    "trace":[...]}."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an algebra object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
    names = doc.get("basis", [f"e{i}" for i in range(dim)])
    if not isinstance(names, list) or len(names) != dim or not all(
        isinstance(x, str) for x in names
    ):
        raise SchemaError(f"{path}.basis", f"expected {dim} basis names")
    mdoc = doc.get("mult")
    if not isinstance(mdoc, list) or len(mdoc) != dim:
        raise SchemaError(f"{path}.mult", f"expected {dim} planes")
    mult = []
    for i, plane in enumerate(mdoc):
        if not isinstance(plane, list) or len(plane) != dim:
            raise SchemaError(f"{path}.mult[{i}]", f"expected {dim} rows")
        mult.append(tuple(
            _scalar_list(field, row, dim, f"{path}.mult[{i}][{j}]")
            for j, row in enumerate(plane)
        ))
    unit = _scalar_list(field, doc.get("unit"), dim, f"{path}.unit")
    trace = _scalar_list(field, doc.get("trace"), dim, f"{path}.trace")
    return FrobeniusAlgebra(field, names, tuple(mult), unit, trace)


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
    return b.el(_scalar_list(b.field, doc, b.dim, path))


def surface_from_json(b: FrobeniusAlgebra, doc, path: str = "$") -> SurfaceSpec:
    """Parse {"components":[{"genus":g,"boundaries":[[elem,...],...]},...]}
    where each elem is a coordinate array over the algebra basis."""
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
