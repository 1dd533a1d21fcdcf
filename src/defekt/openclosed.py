"""Open-closed surface theories in two layers.

The first layer pairs a symmetric Frobenius algebra B (open sector, the
state space of an interval) with a commutative Frobenius algebra C
(closed sector, the state space of a circle) through a zipper map
``jz: B -> C`` and a cozipper ``jc: C -> B``.  ``check_knowledgeable``
verifies each defining axiom as one identity between matrices: the
cozipper is an algebra homomorphism (jc mu_C = mu_B (jc (x) jc), mu the
multiplication table), unital (jc u_C = u_B) and central (R_B jc = 0,
R_B the commutator rows of B); the zipper is a coalgebra homomorphism
(Delta_C jz = (jz (x) jz) Delta_B, Delta the comultiplication) and
trace-respecting (tau_C jz = tau_B, tau the trace rows); the two maps are
adjoint for the traces (jz^T G_C = G_B jc, G the Gram matrices); and the
Cardy condition holds (jc jz is the matrix of B's window map).

The second layer drops C and instead equips B with a rational series Z0
whose Taylor coefficients evaluate closed surfaces by genus.  Surfaces
with at least one side-boundary circle are evaluated through B, closed
components through Z0, and the state space of a circle is computed by
the universal construction: spanning vectors are connected surfaces of
genus g with s undecorated side circles and one outgoing circle, and
gluing two of them gives the closed evaluation tr_B(E^(g+h+s+u-1)) when
any side circle is present (E is the hole element) and the genus g+h
coefficient of Z0 otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, SchemaError, Unsupported
from .exactla import Field, Matrix, _ints, hstack
from .frobenius import (
    FrobeniusAlgebra,
    SurfaceSpec,
    VerifyReport,
    _commutator_rows,
    eval_surface,
    frobenius_from_json,
    hole_element,
    verify,
    window,
)
from .series import RationalFunction1, rational1_from_json

__all__ = [
    "CircleStateSpace",
    "KnowledgeablePair",
    "KnowledgeableReport",
    "OpenClosedTheory",
    "check_knowledgeable",
    "closed_genus_values",
    "eval_oc_closed",
    "knowledgeable_from_json",
    "openclosed_from_json",
    "state_space_circle",
    "state_space_mixed_dim",
]


# -- knowledgeable pairs ------------------------------------------------------


@dataclass(frozen=True)
class KnowledgeablePair:
    """Open and closed Frobenius algebras joined by zipper and cozipper.

    ``zipper`` maps B to C (a dim C by dim B matrix over the common
    field), ``cozipper`` maps C to B.  Construction checks shapes and the
    field only; the axioms are the business of
    :func:`check_knowledgeable`.
    """

    open_algebra: FrobeniusAlgebra
    closed_algebra: FrobeniusAlgebra
    zipper: Matrix
    cozipper: Matrix

    def __post_init__(self):
        b, c = self.open_algebra, self.closed_algebra
        if b.field != c.field:
            raise FieldMismatch("open and closed algebras over different fields")
        if self.zipper.field != b.field or self.cozipper.field != b.field:
            raise FieldMismatch("zipper matrices over the wrong field")
        if (self.zipper.rows, self.zipper.cols) != (c.dim, b.dim):
            raise ValueError(
                f"zipper must be {c.dim}x{b.dim}, got "
                f"{self.zipper.rows}x{self.zipper.cols}"
            )
        if (self.cozipper.rows, self.cozipper.cols) != (b.dim, c.dim):
            raise ValueError(
                f"cozipper must be {b.dim}x{c.dim}, got "
                f"{self.cozipper.rows}x{self.cozipper.cols}"
            )


@dataclass(frozen=True)
class KnowledgeableReport:
    """Axiom-by-axiom outcome for a knowledgeable pair.

    The comultiplication-dependent checks (zipper coalgebra, Cardy) need
    nondegenerate traces; they are reported False when the prerequisite
    verification already failed.
    """

    open_report: VerifyReport
    closed_report: VerifyReport
    closed_commutative: bool
    cozipper_algebra_hom: bool
    cozipper_unital: bool
    cozipper_image_central: bool
    zipper_coalgebra_hom: bool
    zipper_trace_respecting: bool
    duality: bool
    cardy: bool

    @property
    def passed(self) -> bool:
        return (
            self.open_report.passed
            and self.closed_report.passed
            and self.closed_commutative
            and self.cozipper_algebra_hom
            and self.cozipper_unital
            and self.cozipper_image_central
            and self.zipper_coalgebra_hom
            and self.zipper_trace_respecting
            and self.duality
            and self.cardy
        )


def _kron(x: Matrix, y: Matrix) -> Matrix:
    """x (x) y: entry ((i, k), (j, l)) is x[i, j] y[k, l]."""
    xc, yc = x.cols, y.cols
    return Matrix._of_ints(x.field, [s * t for i in range(x.rows) for k in range(y.rows)
                                     for s in x._num[i * xc:(i + 1) * xc]
                                     for t in y._num[k * yc:(k + 1) * yc]],
                           x._den * y._den, x.rows * y.rows, xc * yc)


def _mult_table(a: FrobeniusAlgebra) -> Matrix:
    """mu: the dim x dim^2 matrix whose column (i, j) is e_i e_j, read off
    the integer cube."""
    n = a.dim
    cube, D = a._cube
    out = [0] * n ** 3
    for i, plane in enumerate(cube):
        for j, pairs in enumerate(plane):
            for k, m in pairs:
                out[(k * n + i) * n + j] = m
    return Matrix._of_ints(a.field, out, D, n, n * n)


def _comult_table(a: FrobeniusAlgebra) -> Matrix:
    """Delta: the dim^2 x dim matrix whose column t holds, in row (r, s), the
    e_r (x) e_s coefficient of Delta(e_t) = sum_s (e_t y_s) (x) e_s, that is
    sum_j c_tj^r g_sj with g_s the coordinates of y_s."""
    n = a.dim
    cube, D = a._cube
    g, dg = a._dual_rows
    out = [0] * n ** 3
    for t, plane in enumerate(cube):
        for j, pairs in enumerate(plane):
            for r, m in pairs:
                for s in range(n):
                    out[(r * n + s) * n + t] += m * g[s][j]
    return Matrix._of_ints(a.field, out, D * dg, n * n, n)


def check_knowledgeable(p: KnowledgeablePair) -> KnowledgeableReport:
    """Check the knowledgeable-pair axioms, each as one matrix identity:
    jc mu_C = mu_B (jc (x) jc), jc u_C = u_B and R_B jc = 0 for the
    cozipper; Delta_C jz = (jz (x) jz) Delta_B and tau_C jz = tau_B for
    the zipper; jz^T G_C = G_B jc (duality); and jc jz = W, whose column i
    is window(B, e_i) (Cardy).  mu, Delta and R_B are :func:`_mult_table`,
    :func:`_comult_table` and :func:`_commutator_rows`."""
    b, c = p.open_algebra, p.closed_algebra
    jz, jc = p.zipper, p.cozipper
    F = b.field
    vb, vc = verify(b), verify(c)
    coalg = cardy = False
    if vb.nondegenerate and vc.nondegenerate:
        coalg = _comult_table(c) * jz == _kron(jz, jz) * _comult_table(b)
        ws = [window(b, e) for e in b.basis_columns]
        cardy = jc * jz == (hstack(ws) if ws else Matrix.zeros(F, 0, 0))
    return KnowledgeableReport(
        open_report=vb,
        closed_report=vc,
        closed_commutative=c.is_commutative(),
        cozipper_algebra_hom=jc * _mult_table(c) == _mult_table(b) * _kron(jc, jc),
        cozipper_unital=jc * c.unit_el() == b.unit_el(),
        cozipper_image_central=(_commutator_rows(b) * jc).is_zero(),
        zipper_coalgebra_hom=coalg,
        zipper_trace_respecting=c._trace * jz == b._trace,
        duality=jz.transpose() * c.gram() == b.gram() * jc,
        cardy=cardy,
    )


# -- the hybrid theory --------------------------------------------------------


@dataclass(frozen=True)
class OpenClosedTheory:
    """A symmetric Frobenius algebra for surfaces with side boundary plus a
    rational series whose genus-g Taylor coefficient evaluates the closed
    genus-g surface."""

    open_algebra: FrobeniusAlgebra
    closed_series: RationalFunction1

    def __post_init__(self):
        if self.closed_series.field != self.open_algebra.field:
            raise FieldMismatch("closed series over the wrong field")


def closed_genus_values(t: OpenClosedTheory, gmax: int) -> list:
    """Closed-surface values for genus 0..gmax."""
    return t.closed_series.taylor(gmax)


def eval_oc_closed(t: OpenClosedTheory, s: SurfaceSpec):
    """Evaluate a mixed surface: the product of side-boundary components
    through the open algebra and closed components through the series."""
    f = t.open_algebra.field
    closed = [comp.genus for comp in s.components if not comp.boundaries]
    alphas = closed_genus_values(t, max(closed)) if closed else []
    total = f.one
    for comp in s.components:
        if comp.boundaries:
            total = total * eval_surface(t.open_algebra, SurfaceSpec((comp,)))
        else:
            total = total * alphas[comp.genus]
    return total


@dataclass(frozen=True)
class CircleStateSpace:
    """Gram-rank computation for the state space of one circle.

    ``labels[i]`` is the (genus, side circles) pair indexing row and column
    i of ``gram``; ``inner_dim`` is the rank with both bounds lowered by
    one, and ``stabilized`` reports whether that smaller rank already
    equals ``dim``.  It compares the ranks at two bounds only and does not
    prove that ``dim`` is final: for the point algebra with closed series
    1/(1 - x^5), gmax = smax = 2 gives dim 3, stabilized, while the
    dimension is 6 from gmax = smax = 4 on.
    """

    dim: int
    labels: tuple
    gram: Matrix
    inner_dim: int
    stabilized: bool


def state_space_circle(t: OpenClosedTheory, gmax: int, smax: int) -> CircleStateSpace:
    """Dimension of the circle state space from spanning surfaces of genus
    g <= gmax with s <= smax side circles; gluing two spanning surfaces
    closes them up, so Gram entries are tr(E^(g+h+s+u-1)) when a side
    circle is present and the genus g+h closed value otherwise."""
    if gmax < 1 or smax < 1:
        raise ValueError("bounds must be at least 1")
    b = t.open_algebra
    f = b.field
    e = hole_element(b)
    tr_pow = []
    acc = b.unit_el()
    for _ in range(2 * (gmax + smax)):
        tr_pow.append(b.trace_of(acc))
        acc = b.mul(acc, e)
    alphas = closed_genus_values(t, 2 * gmax)
    labels = tuple(
        (g, s) for g in range(gmax + 1) for s in range(smax + 1)
    )

    def entry(row, col):
        """The index in tr_pow + alphas of the Gram entry."""
        g, s = row
        h, u = col
        if s + u >= 1:
            return g + h + s + u - 1
        return len(tr_pow) + g + h

    # every entry is one of these values, read to ints over one denominator
    vals, d = _ints(f, tr_pow + alphas)
    n = len(labels)
    gram = Matrix._of_ints(f, [vals[entry(r, cl)] for r in labels for cl in labels],
                           d, n, n)
    dim = gram.rank()
    keep = [i for i, (g, s) in enumerate(labels) if g < gmax and s < smax]
    inner_dim = gram._sub(keep, keep).rank()
    return CircleStateSpace(
        dim=dim,
        labels=labels,
        gram=gram,
        inner_dim=inner_dim,
        stabilized=inner_dim == dim,
    )


def state_space_mixed_dim(t: OpenClosedTheory, k: int, m: int,
                          gmax: int = 4, smax: int = 4) -> int:
    """Dimension of the state space of k intervals and m circles: surgery
    near each interval splits off one tensor factor of the open algebra,
    so the answer is (dim B)^k times the circle dimension."""
    if k < 0 or m < 0:
        raise ValueError("component counts must be nonnegative")
    if m >= 2:
        raise Unsupported(
            "state spaces with two or more circles need spanning-surface "
            "bookkeeping beyond the one-circle case and are not implemented"
        )
    base = t.open_algebra.dim ** k
    if m == 0:
        return base
    return base * state_space_circle(t, gmax, smax).dim


# -- JSON ingestion -----------------------------------------------------------


def knowledgeable_from_json(field: Field, doc, path: str = "$") -> KnowledgeablePair:
    """Parse {"open": algebra, "closed": algebra, "zipper": rows,
    "cozipper": rows}; the zipper matrix is dim(closed) by dim(open)."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a pair object")
    b = frobenius_from_json(field, doc.get("open"), f"{path}.open")
    c = frobenius_from_json(field, doc.get("closed"), f"{path}.closed")
    jz = Matrix.from_lists(field, doc.get("zipper"), c.dim, b.dim,
                           f"{path}.zipper")
    jc = Matrix.from_lists(field, doc.get("cozipper"), b.dim, c.dim,
                           f"{path}.cozipper")
    return KnowledgeablePair(b, c, jz, jc)


def openclosed_from_json(field: Field, doc, path: str = "$") -> OpenClosedTheory:
    """Parse {"open": algebra, "closed_series": {"num": [...], "den": [...]}}."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a theory object")
    b = frobenius_from_json(field, doc.get("open"), f"{path}.open")
    zdoc = doc.get("closed_series")
    if not isinstance(zdoc, dict):
        raise SchemaError(f"{path}.closed_series", "expected a rational function")
    z = rational1_from_json(field, zdoc, f"{path}.closed_series")
    return OpenClosedTheory(b, z)
