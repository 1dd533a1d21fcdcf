"""Tests for exact scalars, matrices and polynomials."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defekt.errors import (
    BothZero,
    FieldMismatch,
    InvalidArgument,
    NotSquare,
    SchemaError,
    SingularMatrix,
    SizeBound,
)
from defekt.exactla import (
    PRIME_BOUND,
    QQ,
    Echelon,
    FpValue,
    Matrix,
    Polynomial,
    PrimeField,
    field_from_json,
    hstack,
    kernel_basis,
    poly_gcd,
    poly_gcd_lcm,
    rref,
    vstack,
)
from defekt.exactla import _is_prime

from defekt.series import RationalFunction1, rational_to_rep

from factories import FIELDS, fractions
from oracles import (
    elimination_rank,
    naive_rank,
    poly_add,
    poly_derivative,
    poly_divmod,
    poly_gcd as oracle_gcd,
    poly_lcm,
    poly_monic,
    poly_mul,
    poly_reversed,
    poly_scale,
    poly_shifted,
    series_by_long_division,
)

F7 = PrimeField(7)


def test_rational_field_parse_and_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse(-4) == Fraction(-4)
    assert QQ.format(Fraction(3, 2)) == "3/2"
    assert QQ.format(Fraction(5)) == "5"
    with pytest.raises(FieldMismatch):
        QQ.parse(0.5)
    # parts of up to 4,300 digits are written, longer ones refused
    assert QQ.format(Fraction(10**4299, 3)) == "1" + "0" * 4299 + "/3"
    with pytest.raises(SizeBound):
        QQ.format(Fraction(10**4300))
    with pytest.raises(SizeBound):
        QQ.format(Fraction(1, 10**4300))


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


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if trial(n)
    ]


def test_primality_rejects_strong_pseudoprimes():
    # each passes Miller-Rabin for a prefix of the witness primes; the last
    # is 399165290221 * 798330580441, a strong pseudoprime to every prime
    # base up to 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n), n
    assert not _is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)


def test_prime_field_bound():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # the bound itself is the first strong pseudoprime to all the witnesses
    with pytest.raises(InvalidArgument):
        PrimeField(PRIME_BOUND)
    with pytest.raises(SchemaError) as exc:
        field_from_json({"type": "prime", "p": PRIME_BOUND})
    assert exc.value.path == "field.p"
    with pytest.raises(SchemaError) as exc:
        field_from_json({"type": "prime", "p": 9}, "open.field")
    assert exc.value.path == "open.field.p"


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


def test_matrix_power_refuses_negative_exponents():
    m = Matrix(QQ, [[2, 0], [0, 3]])
    assert m ** 0 == Matrix.identity(QQ, 2)
    assert m ** 2 == Matrix(QQ, [[4, 0], [0, 9]])
    with pytest.raises(InvalidArgument):
        m ** -1


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


def test_poly_gcd_is_the_gcd_of_poly_gcd_lcm():
    t = Polynomial(QQ, [0, 1])
    a = (t * t).scale(3)
    b = t * Polynomial(QQ, [-1, 1])
    assert poly_gcd(a, b) == poly_gcd_lcm(a, b)[0] == t
    assert poly_gcd(Polynomial.zero(QQ), b) == b.monic()
    assert poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ)).is_zero()


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
def matrices(draw, nmax=8, field=None, shape=None):
    """A matrix over QQ, F_7 or F_1000003 (or the given field), dense or
    sparse, with entries of denominators 1-6; in half the draws with two
    or more rows, one row is a combination of the others."""
    if field is None:
        field = draw(st.sampled_from(FIELDS))
    n, m = shape or (draw(st.integers(1, nmax)), draw(st.integers(1, nmax)))
    scalars = fractions(draw(st.booleans()))
    rows = draw(
        st.lists(st.lists(scalars, min_size=m, max_size=m),
                 min_size=n, max_size=n)
    )
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        cs = draw(st.lists(scalars, min_size=n, max_size=n))
        rows[i] = [sum(c * row[j] for k, (c, row) in enumerate(zip(cs, rows)) if k != i)
                   for j in range(m)]
    return Matrix(field, rows, cols=m)


@st.composite
def matrix_pairs(draw, nmax=8):
    """Two matrices over one field whose product is defined."""
    field = draw(st.sampled_from(FIELDS))
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
    # trace(a a^T) is the sum of the squared entries of a
    tr = (a * a.transpose()).trace()
    assert tr == F.of(sum(raw(x) ** 2 for x in a.flat()))
    assert type(tr) is type(F.zero)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_reference_elimination(m):
    r, pivots = m.rref()
    ref, ref_pivots = reference_rref(m)
    assert pivots == ref_pivots
    assert r.data == ref
    assert all(type(x) is type(m.field.zero) for row in r.data for x in row)


def over_common_denominator(F, xs) -> list:
    """Field values as ints: residues over F_p; over QQ the numerators
    over the lcm of the denominators."""
    if F.char:
        return [x.v for x in xs]
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs]


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_echelon_accepts_the_rref_pivot_columns(m, data):
    # Echelon takes integer vectors: the columns as ints over their own
    # denominators, and the same ints scaled by nonzero integers (nonzero
    # mod p over F_p, where each entry is also moved by a multiple of p)
    # accept the rref pivot columns
    F, p = m.field, m.field.char
    pivots = m.rref()[1]
    cols = [over_common_denominator(F, m.column(j)) for j in range(m.cols)]
    ints = st.integers(-10**6, 10**6)
    scales = data.draw(st.lists(ints.filter(lambda c: c % p if p else c),
                                min_size=m.cols, max_size=m.cols))
    shifts = data.draw(st.lists(ints, min_size=m.rows, max_size=m.rows))
    scaled = [[c * x + p * s for x, s in zip(v, shifts)] for c, v in zip(scales, cols)]
    for vecs in (cols, scaled):
        ech = Echelon(F)
        assert tuple(j for j, v in enumerate(vecs) if ech.add(v)) == pivots
    assert len(pivots) == m.rank()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_and_inverse_match_reference_elimination(data):
    a = data.draw(matrices())
    F = a.field
    k = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        b = a * data.draw(matrices(field=F, shape=(a.cols, k)))  # consistent
    else:
        b = data.draw(matrices(field=F, shape=(a.rows, k)))
    _, pivots = reference_rref(hstack([a, b]))
    x = a.solve(b)
    if all(p < a.cols for p in pivots):
        assert x is not None and a * x == b
    else:
        assert x is None
    sq = data.draw(matrices(field=F, shape=(a.rows, a.rows)))
    one = Matrix.identity(F, sq.rows)
    if len(reference_rref(sq)[1]) == sq.rows:
        inv = sq.inverse()
        assert sq * inv == one and inv * sq == one
    else:
        with pytest.raises(SingularMatrix):
            sq.inverse()


def test_fp_rref_wraps_each_output_entry_once(monkeypatch):
    n = 12
    F = PrimeField(1000003)
    m = Matrix(F, [[(i * i + 3 * j * j + i * j + 1) % 11 for j in range(n)]
                   for i in range(n)])
    made = 0
    init = FpValue.__init__

    def counting(self, v, p):
        nonlocal made
        made += 1
        init(self, v, p)

    monkeypatch.setattr(FpValue, "__init__", counting)
    r, pivots = m.rref()
    assert made <= n * n
    assert (r.data, pivots) == reference_rref(m)


@settings(max_examples=60, deadline=None)
@given(matrix_pairs(),
       st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**40)))
def test_scalars_and_matrices_read_back_what_format_writes(pair, q):
    m = pair[0]
    F = m.field
    if F.char and q.denominator % F.char == 0:
        q = Fraction(q.numerator)
    x = F.of(q)
    assert F.parse(F.format(x)) == x
    m = m.scale(x)
    assert Matrix.from_lists(F, m.to_lists(), m.rows, m.cols) == m


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vector_i_is_the_unit_at_the_i_th_free_column(m):
    _, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = m.kernel_basis()
    assert len(basis) == len(free)
    F = m.field
    for i, (v, fc) in enumerate(zip(basis, free)):
        assert v.cols == 1 and v.rows == m.cols
        assert [v[c, 0] for c in free] == [F.one if j == i else F.zero
                                           for j in range(len(free))]
        assert all(v[c, 0] == F.zero for c in range(fc + 1, m.cols))


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert (m * v).is_zero()
    assert m.cols == m.rank() + len(m.kernel_basis())


@pytest.mark.parametrize("F", [QQ, F7], ids=["QQ", "F7"])
def test_inverse_refuses_singular_and_non_square_matrices(F):
    singular = [Matrix.zeros(F, 1, 1), Matrix.zeros(F, 3, 3),
                Matrix(F, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])]
    # the determinant of m is -7: invertible over QQ, singular over F_7
    m = Matrix(F, [[1, 2], [3, -1]])
    if F.char:
        singular.append(m)
    else:
        assert m.inverse() == Matrix(F, [[Fraction(1, 7), Fraction(2, 7)],
                                         [Fraction(3, 7), Fraction(-1, 7)]])
    for s in singular:
        with pytest.raises(SingularMatrix):
            s.inverse()
    with pytest.raises(NotSquare):
        Matrix.zeros(F, 2, 3).inverse()
    empty = Matrix.zeros(F, 0, 0).inverse()
    assert (empty.rows, empty.cols) == (0, 0)


def assert_canonical(m):
    """m holds its entries once, in canonical form, and equals (and
    hashes as) the matrix the public constructor builds from them."""
    F = m.field
    assert len(m._num) == m.rows * m.cols and all(type(x) is int for x in m._num)
    if F.char:
        assert m._den == 1 and all(0 <= x < F.char for x in m._num)
    else:
        assert m._den > 0 and gcd(m._den, *m._num) == 1
    same = Matrix(F, [list(row) for row in m.data], cols=m.cols)
    assert same == m and hash(same) == hash(m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_operation_returns_the_canonical_form(data):
    a = data.draw(matrices(nmax=4))
    F, (r, c) = a.field, (a.rows, a.cols)
    b = data.draw(matrices(field=F, shape=(r, c)))
    k = data.draw(st.integers(0, 3))
    x = data.draw(matrices(field=F, shape=(c, k))) if k else Matrix.zeros(F, c, 0)
    s = data.draw(fractions(data.draw(st.booleans())))
    sq = data.draw(matrices(field=F, shape=(r, r)))
    out = [a, b, Matrix.from_lists(F, a.to_lists(), r, c), a + b, a - b, a - a,
           a * x, a.scale(s), a.scale(0), a.transpose(), a.rref()[0],
           hstack([a, b]), vstack([a, b]), *a.kernel_basis()]
    for rhs in (b, a * x):
        sol = a.solve(rhs)
        if sol is not None:
            out.append(sol)
    if sq.rank() == r:
        out.append(sq.inverse())
    for m in out:
        assert_canonical(m)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FIELDS[1:]), st.data())
def test_prime_field_rref_and_submatrices_are_built_canonical(raw_guard, F, data):
    # over F_p rref and _sub hand their residues to Matrix._raw unreduced;
    # raw_guard asserts each such build is already canonical
    a = data.draw(matrices(field=F, nmax=5))
    rows = data.draw(st.lists(st.integers(0, a.rows - 1), max_size=a.rows))
    cols = data.draw(st.lists(st.integers(0, a.cols - 1), max_size=a.cols))
    before = len(raw_guard)
    R, pivots = a.rref()
    subs = {(tuple(rows), tuple(cols)): a._sub(rows, cols),
            (tuple(rows), tuple(range(a.cols))): a._sub(rows=rows),
            (tuple(range(a.rows)), tuple(cols)): a._sub(cols=cols)}
    assert len(raw_guard) == before + 4
    # R is the reduced echelon form of a row space equal to a's
    rank = elimination_rank(a.data)
    assert len(pivots) == rank == elimination_rank(a.data + R.data)
    for i, pc in enumerate(pivots):
        assert R[i, pc] == 1 and all(R[r, pc] == 0 for r in range(R.rows) if r != i)
        assert all(R[i, c] == 0 for c in range(pc))
    assert all(R[r, c] == 0 for r in range(rank, R.rows) for c in range(R.cols))
    for (rs, cs), m in subs.items():
        assert m.data == tuple(tuple(a[r, c] for c in cs) for r in rs)
    for m in (R, *subs.values()):
        assert_canonical(m)


@st.composite
def polynomials(draw, field, dmax=4):
    """A polynomial over the field of degree at most dmax, dense or sparse,
    with coefficients of denominators 1-6."""
    return Polynomial(field, draw(st.lists(fractions(draw(st.booleans())),
                                           max_size=dmax + 1)))


def assert_canonical_poly(f):
    """f holds its coefficients once, as canonical ints with no trailing
    zero, and equals (and hashes as) the polynomial built from them."""
    F = f.field
    assert all(type(x) is int for x in f._num) and (not f._num or f._num[-1])
    if F.char:
        assert f._den == 1 and all(0 <= x < F.char for x in f._num)
    else:
        assert f._den > 0 and gcd(f._den, *f._num) == 1
    same = Polynomial(F, f.coeffs)
    assert same == f and hash(same) == hash(f)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_polynomial_operations_match_the_field_valued_oracle(data):
    F = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(polynomials(F)), data.draw(polynomials(F))
    c = data.draw(polynomials(F, dmax=2))
    if data.draw(st.booleans()):
        a, b = a * c, b * c  # a common factor, so the gcd has work to do
    s = data.draw(fractions(data.draw(st.booleans())))
    k = data.draw(st.integers(0, 3))
    A, B = list(a.coeffs), list(b.coeffs)
    n = max(a.deg, 0) + k
    cases = [(a + b, poly_add(F, A, B)), (a - b, poly_add(F, A, B, -1)),
             (-a, poly_scale(F, A, -F.one)), (a.scale(s), poly_scale(F, A, F.of(s))),
             (a * b, poly_mul(F, A, B)), (a.monic(), poly_monic(F, A)),
             (a.derivative(), poly_derivative(F, A)),
             (a.reversed_poly(n), poly_reversed(F, A, n)), (a.shifted(k), poly_shifted(F, A, k))]
    if not b.is_zero():
        q, r = divmod(a, b)
        cases += zip((q, r), poly_divmod(F, A, B))
    if not (a.is_zero() and b.is_zero()):
        g, m = poly_gcd_lcm(a, b)
        cases += [(g, oracle_gcd(F, A, B)), (m, poly_lcm(F, A, B)),
                  (poly_gcd(a, b), oracle_gcd(F, A, B))]
    for got, want in cases:
        assert list(got.coeffs) == want
        assert_canonical_poly(got)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_and_rational_to_rep_match_long_division(data):
    F = data.draw(st.sampled_from(FIELDS))
    num = data.draw(polynomials(F))
    den = data.draw(polynomials(F, dmax=3))
    den0 = data.draw(fractions(False).filter(lambda x: F.of(x) != F.zero))
    den = den.shifted(1) + Polynomial(F, [den0])  # den(0) != 0
    z = RationalFunction1(F, num, den)
    r = rational_to_rep(z)
    n = 2 * r.dim
    coeffs = z.taylor(n)
    assert coeffs == series_by_long_division(F, list(num.coeffs), list(den.coeffs), n)
    assert [r.value((0,) * m) for m in range(n + 1)] == coeffs
