"""Tests for exact scalars, matrices and polynomials."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.errors import BothZero, FieldMismatch, NotSquare, SingularMatrix
from defekt.exactla import (
    QQ,
    Echelon,
    Matrix,
    Polynomial,
    PrimeField,
    char_poly,
    field_from_json,
    hstack,
    kernel_basis,
    poly_gcd_lcm,
    rref,
)

from factories import entries
from oracles import naive_det, naive_rank

F7 = PrimeField(7)


def test_rational_field_parse_and_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse(-4) == Fraction(-4)
    assert QQ.format(Fraction(3, 2)) == "3/2"
    assert QQ.format(Fraction(5)) == "5"
    with pytest.raises(FieldMismatch):
        QQ.parse(0.5)


def test_prime_field_arithmetic():
    a = F7.of(3)
    b = F7.of(5)
    assert a + b == F7.of(1)
    assert a * b == F7.of(1)
    assert a - b == F7.of(5)
    assert (a / b) * b == a
    assert -a == F7.of(4)
    assert a ** 6 == F7.one
    assert F7.of(Fraction(1, 2)) == F7.of(4)
    with pytest.raises(FieldMismatch):
        F7.of(Fraction(1, 7))
    with pytest.raises(FieldMismatch):
        PrimeField(6)


def test_prime_field_mixing_moduli_fails():
    with pytest.raises(FieldMismatch):
        F7.of(3) + PrimeField(5).of(2)


def test_field_from_json():
    assert field_from_json({"type": "rational"}) == QQ
    assert field_from_json({"type": "prime", "p": 7}) == F7
    assert field_from_json(None) == QQ


def test_matrix_basics():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.transpose()[1, 0] == 2
    assert (m + m)[1, 1] == 8
    assert (m * m)[0, 0] == 7
    assert m.trace() == 5
    assert m.scale(Fraction(1, 2))[1, 0] == Fraction(3, 2)
    assert (m ** 0) == Matrix.identity(QQ, 2)
    with pytest.raises(NotSquare):
        Matrix(QQ, [[1, 2]]).trace()
    with pytest.raises(FieldMismatch):
        m * Matrix(F7, [[1], [2]])


def test_zero_dimensional_matrices():
    z = Matrix(QQ, [], cols=0)
    assert z.rows == 0 and z.cols == 0
    assert z.char_poly() == Polynomial.one(QQ)
    assert z.det() == 1
    assert (z * z).rows == 0
    wide = Matrix.zeros(QQ, 0, 3)
    assert (wide.transpose() * wide.transpose().transpose()).rows == 3


def test_rref_is_deterministic_and_reduced():
    m = Matrix(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r.data[0][0] == 1 and r.data[1][1] == 1
    assert r.data[2] == (0, 0, 0)
    # row-reducing twice changes nothing
    assert rref(r)[0] == r


def test_rank_matches_minor_oracle():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    m = Matrix(QQ, rows)
    assert m.rank() == naive_rank(rows) == 2


def test_kernel_basis():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (m * v).is_zero()


def test_solve_and_inverse():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    b = Matrix.col_vector(QQ, [3, 2])
    x = m.solve(b)
    assert m * x == b
    assert m.inverse() * m == Matrix.identity(QQ, 2)
    with pytest.raises(SingularMatrix):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()
    assert Matrix(QQ, [[1, 0], [0, 0]]).solve(Matrix.col_vector(QQ, [0, 1])) is None


def test_char_poly_small_cases():
    assert char_poly(Matrix(QQ, [[2]])).coeffs == (Fraction(-2), Fraction(1))
    nilp = Matrix(QQ, [[0, 1], [0, 0]])
    assert char_poly(nilp).coeffs == (0, 0, 1)
    comp = Matrix(QQ, [[0, 1], [1, 1]])
    assert char_poly(comp).coeffs == (-1, -1, 1)


def test_char_poly_matches_laplace_oracle():
    entries = [[3, 1, 0], [-2, 0, 4], [1, 1, 1]]
    m = Matrix(QQ, entries)
    # det(T*I - A) expanded with polynomial entries by Laplace
    x = Polynomial(QQ, [0, 1])
    rows = [
        [
            (x if i == j else Polynomial.zero(QQ))
            - Polynomial.constant(QQ, entries[i][j])
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert naive_det(rows) == m.char_poly()


def test_char_poly_block_triangular_multiplies():
    a = Matrix(QQ, [[1, 2], [0, 3]])
    b = Matrix(QQ, [[5]])
    block = Matrix(QQ, [[1, 2, 9], [0, 3, 9], [0, 0, 5]])
    assert block.char_poly() == a.char_poly() * b.char_poly()


def test_char_poly_over_prime_field():
    m = Matrix(F7, [[0, 1], [1, 1]])
    cp = m.char_poly()
    assert cp.coeffs == (F7.of(-1), F7.of(-1), F7.one)


def test_det():
    assert Matrix(QQ, [[1, 2], [3, 4]]).det() == -2
    assert Matrix(QQ, [[2]]).det() == 2


def test_polynomial_arithmetic_and_divmod():
    p = Polynomial(QQ, [1, 0, 1])  # 1 + T^2
    q = Polynomial(QQ, [1, 1])  # 1 + T
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.deg < q.deg
    assert (p - p).is_zero()
    assert p.eval_at(2) == 5
    assert Polynomial(QQ, [0, 1, 2]).derivative().coeffs == (1, 4)


def test_polynomial_normalization():
    assert Polynomial(QQ, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial(QQ, [0, 0]).is_zero()
    assert Polynomial(QQ, []).deg == -1


def test_poly_gcd_lcm():
    t = Polynomial(QQ, [0, 1])
    a = t * t  # T^2
    b = t * Polynomial(QQ, [-1, 1])  # T(T-1)
    g, l = poly_gcd_lcm(a, b)
    assert g == t
    assert l == (t * t * Polynomial(QQ, [-1, 1])).monic()
    assert g.divides(a) and g.divides(b)
    assert a.divides(l) and b.divides(l)
    g0, l0 = poly_gcd_lcm(a, Polynomial.zero(QQ))
    assert g0 == a.monic() and l0.is_zero()
    with pytest.raises(BothZero):
        poly_gcd_lcm(Polynomial.zero(QQ), Polynomial.zero(QQ))


def test_poly_gcd_is_monic_even_with_scalar_factors():
    t = Polynomial(QQ, [0, 1])
    a = (t - Polynomial.one(QQ)).scale(6)
    b = (t - Polynomial.one(QQ)).scale(Fraction(2, 3))
    g, _ = poly_gcd_lcm(a, b)
    assert g.coeffs == (-1, 1)


def test_reversed_poly_and_shift():
    p = Polynomial(QQ, [1, -3, 2])  # 1 - 3T + 2T^2
    assert p.reversed_poly().coeffs == (2, -3, 1)
    assert p.reversed_poly(3).coeffs == (0, 2, -3, 1)
    assert p.shifted(2).coeffs == (0, 0, 1, -3, 2)


def test_hstack():
    a = Matrix(QQ, [[1], [2]])
    b = Matrix(QQ, [[3], [4]])
    assert hstack([a, b]).data == ((1, 3), (2, 4))


@st.composite
def matrices(draw, nmax=4, field=None, shape=None):
    """A matrix over QQ or F_7 (or the given field), dense or sparse."""
    if field is None:
        field = draw(st.sampled_from([QQ, F7]))
    n, m = shape or (draw(st.integers(1, nmax)), draw(st.integers(1, nmax)))
    rows = draw(
        st.lists(
            st.lists(entries(draw(st.booleans())), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
    return Matrix(field, rows, cols=m)


@st.composite
def matrix_pairs(draw, nmax=5):
    """Two matrices over one field whose product is defined."""
    field = draw(st.sampled_from([QQ, F7]))
    n, k, m = (draw(st.integers(0, nmax)) for _ in range(3))
    return (draw(matrices(field=field, shape=(n, k))),
            draw(matrices(field=field, shape=(k, m))))


def raw(x):
    """An entry as a plain Fraction or int, outside the field classes."""
    return x if isinstance(x, Fraction) else x.v


def reference_rref(m):
    """Gauss-Jordan with the library's pivoting (leftmost column, topmost
    row) that multiplies out every entry, zero or not."""
    F = m.field
    work = [list(row) for row in m.data]
    pivots = []
    pr = 0
    for c in range(m.cols):
        sel = next((r for r in range(pr, m.rows) if work[r][c] != F.zero), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = F.one / work[pr][c]
        work[pr] = [inv * x for x in work[pr]]
        for r in range(m.rows):
            if r != pr:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[pr])]
        pivots.append(c)
        pr += 1
        if pr == m.rows:
            break
    return tuple(tuple(row) for row in work), tuple(pivots)


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_product_matches_triple_sum(pair):
    a, b = pair
    F = a.field
    prod = a * b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s += raw(a[i, k]) * raw(b[k, j])
            assert prod[i, j] == F.of(s)
            assert type(prod[i, j]) is type(F.zero)


@settings(max_examples=60, deadline=None)
@given(matrices(nmax=5))
def test_rref_matches_reference_elimination(m):
    r, pivots = m.rref()
    ref, ref_pivots = reference_rref(m)
    assert pivots == ref_pivots
    assert r.data == ref
    assert all(type(x) is type(m.field.zero) for row in r.data for x in row)


@settings(max_examples=60, deadline=None)
@given(matrices(nmax=5))
def test_echelon_accepts_the_rref_pivot_columns(m):
    ech = Echelon(m.field)
    accepted = tuple(j for j in range(m.cols) if ech.add(m.column(j)))
    assert accepted == m.rref()[1]
    assert len(accepted) == m.rank()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert (m * v).is_zero()
    assert m.cols == m.rank() + len(m.kernel_basis())


@settings(max_examples=25, deadline=None)
@given(matrices(nmax=3))
def test_char_poly_matches_oracle_randomized(m):
    F = m.field
    n = min(m.rows, m.cols)
    m = Matrix(F, [row[:n] for row in m.data[:n]], cols=n)
    x = Polynomial(F, [0, 1])
    rows = [
        [
            (x if i == j else Polynomial.zero(F))
            - Polynomial.constant(F, m.data[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert naive_det(rows) == m.char_poly()
