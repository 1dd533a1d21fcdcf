"""Builders for randomized and corpus test inputs.

Random symmetric Frobenius algebras are assembled from blocks that are
Frobenius by construction (a point, k[x]/(x^2), k[x]/(x^3), 2x2 matrices)
and then hidden behind a random change of basis, so tests exercise the
engine on algebras with no visible block structure.  ``theory_corpus``
returns the fixed list of theories the property suites sweep.
"""
from fractions import Fraction

from hypothesis import strategies as st

from defekt.exactla import Matrix, PrimeField, QQ
from defekt.frobenius import FrobeniusAlgebra
from defekt.openclosed import KnowledgeablePair
from defekt.series import (
    CircularRepresentation,
    LinearRepresentation,
    Polynomial,
    RationalFunction1,
    rational_to_rep,
)
from defekt.universal import Theory, interval_trace_series, minimize


def point_block(field, r) -> FrobeniusAlgebra:
    """One-dimensional algebra with trace(1) = r (r nonzero)."""
    return FrobeniusAlgebra(field, ["1"], [[[field.one]]], [field.one], [r])


def nilpotent_block(field, r, s) -> FrobeniusAlgebra:
    """k[x]/(x^2) with trace (r, s); nondegenerate whenever s != 0."""
    z, o = field.zero, field.one
    mult = [[[o, z], [z, o]], [[z, o], [z, z]]]
    return FrobeniusAlgebra(field, ["1", "x"], mult, [o, z], [r, s])


def jordan3_block(field, r, s, u) -> FrobeniusAlgebra:
    """k[x]/(x^3) with trace (r, s, u); nondegenerate whenever u != 0."""
    z, o = field.zero, field.one
    basis = ["1", "x", "x2"]
    mult = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                mult[i][j][i + j] = o
    return FrobeniusAlgebra(field, basis, mult, [o, z, z], [r, s, u])


def mat2_block(field, r) -> FrobeniusAlgebra:
    """2x2 matrices with trace = r * (matrix trace); r nonzero."""
    z, o = field.zero, field.one
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    mult = [[[z] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mult[i][j][idx[(a, d)]] = o
    return FrobeniusAlgebra(field, ["e11", "e12", "e21", "e22"], mult,
                            [o, z, z, o], [r, z, z, r])


def group_algebra_cyclic(field, p: int) -> FrobeniusAlgebra:
    """F[C_p] with trace picking the coefficient of the identity."""
    z, o = field.zero, field.one
    mult = [[[z] * p for _ in range(p)] for _ in range(p)]
    for i in range(p):
        for j in range(p):
            mult[i][j][(i + j) % p] = o
    return FrobeniusAlgebra(field, [f"g{i}" for i in range(p)], mult,
                            [o] + [z] * (p - 1), [o] + [z] * (p - 1))


def direct_sum(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    F = a.field
    n, m = a.dim, b.dim
    z = F.zero
    mult = [[[z] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mult[i][j][k] = a.mult[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                mult[n + i][n + j][n + k] = b.mult[i][j][k]
    names = [f"l.{x}" for x in a.names] + [f"r.{x}" for x in b.names]
    return FrobeniusAlgebra(F, names, mult,
                            list(a.unit) + list(b.unit),
                            list(a.trace) + list(b.trace))


def change_basis(b: FrobeniusAlgebra, S: Matrix) -> FrobeniusAlgebra:
    """Rewrite b over the basis f_i = sum_k S[k][i] e_k (S invertible)."""
    F = b.field
    n = b.dim
    sinv = S.inverse()
    cols = [Matrix.col_vector(F, list(S.column(i))) for i in range(n)]
    mult = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = b.mul(cols[i], cols[j])
            plane.append(tuple((sinv * prod).flat()))
        mult.append(tuple(plane))
    unit = tuple((sinv * b.unit_el()).flat())
    trace = tuple(b.trace_of(c) for c in cols)
    return FrobeniusAlgebra(F, [f"f{i}" for i in range(n)], mult, unit, trace)


def random_scalar(rng, field, nonzero=False):
    if field.char:
        lo = 1 if nonzero else 0
        return field.parse(rng.randint(lo, field.char - 1))
    v = Fraction(rng.randint(1 if nonzero else -3, 4))
    return field.parse(str(v))


def random_invertible(rng, field, n: int) -> Matrix:
    while True:
        rows = [[random_scalar(rng, field) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows, cols=n)
        if m.rank() == n:
            return m


def random_symmetric_frobenius(rng, field, max_dim: int = 4) -> FrobeniusAlgebra:
    target = rng.randint(1, max_dim)
    alg = None
    remaining = target
    while remaining:
        choices = [d for d in (1, 2, 3, 4) if d <= remaining]
        d = rng.choice(choices)
        if d == 1:
            blk = point_block(field, random_scalar(rng, field, nonzero=True))
        elif d == 2:
            blk = nilpotent_block(field, random_scalar(rng, field),
                                  random_scalar(rng, field, nonzero=True))
        elif d == 3:
            blk = jordan3_block(field, random_scalar(rng, field),
                                random_scalar(rng, field),
                                random_scalar(rng, field, nonzero=True))
        else:
            blk = mat2_block(field, random_scalar(rng, field, nonzero=True))
        alg = blk if alg is None else direct_sum(alg, blk)
        remaining -= d
    return change_basis(alg, random_invertible(rng, field, alg.dim))


def random_element(rng, b: FrobeniusAlgebra) -> Matrix:
    return b.el([random_scalar(rng, b.field) for _ in range(b.dim)])


def entries(sparse):
    """Small integer entries (a hypothesis strategy); sparse ones are zero
    three times in four, like the block generators, echelon rows and basis
    elements the library multiplies."""
    ints = st.integers(-4, 4)
    if sparse:
        return st.integers(0, 3).flatmap(lambda k: ints if k == 0 else st.just(0))
    return ints


# -- open/closed pairs ---------------------------------------------------------


def knowledgeable_pair_cyclic(field, lam) -> KnowledgeablePair:
    """Pair F_p[C_p] over k[x]/(x^2) in characteristic p.

    The open trace picks the identity coefficient, the closed trace sends
    1 to lam and x to 1.  The zipper sends the identity of the group
    algebra to x and every other group element to 0; the cozipper sends 1
    to 1 and x to 0.
    """
    p = field.char
    if not p:
        raise ValueError("pair needs positive characteristic")
    b = group_algebra_cyclic(field, p)
    c = nilpotent_block(field, lam, field.one)
    zip_rows = [[field.zero] * p for _ in range(2)]
    zip_rows[1][0] = field.one
    coz_rows = [[field.zero] * 2 for _ in range(p)]
    coz_rows[0][0] = field.one
    return KnowledgeablePair(b, c, Matrix(field, zip_rows),
                             Matrix(field, coz_rows, cols=2))


def knowledgeable_pair_matrix(field) -> KnowledgeablePair:
    """Pair Mat_2(k) over k: zipper is the matrix trace, cozipper c -> c*Id."""
    z, o = field.zero, field.one
    b = mat2_block(field, o)
    c = point_block(field, o)
    return KnowledgeablePair(b, c, Matrix(field, [[o, z, z, o]]),
                             Matrix(field, [[o], [z], [z], [o]], cols=1))


# -- theory corpus ------------------------------------------------------------


def _rat(field, num, den) -> RationalFunction1:
    return RationalFunction1(
        field,
        Polynomial(field, [field.parse(c) for c in num]),
        Polynomial(field, [field.parse(c) for c in den]),
    )


def one_letter_theory(field, zi: RationalFunction1,
                      zc: RationalFunction1) -> Theory:
    rep = rational_to_rep(zi)
    return Theory(field, ("a",), rep, CircularRepresentation.from_rational(zc, 1))


def empty_alphabet_theory(field, interval_value, circle_value) -> Theory:
    interval = LinearRepresentation(
        field, 0, 1,
        Matrix(field, [[interval_value]]), (), Matrix(field, [[field.one]]),
    )
    circ = CircularRepresentation(field, 0, 1, (),
                                  Matrix(field, [[circle_value]]))
    return Theory(field, (), interval, circ)


def two_letter_theory(field, scale) -> Theory:
    """Fixed two-letter theory: a 2-dim interval action and a circular
    evaluation in trace form with a scalar weight."""
    p = field.parse
    init = Matrix(field, [[p(1), p(0)]])
    final = Matrix(field, [[p(1)], [p(1)]])
    mu_a = Matrix(field, [[p(0), p(1)], [p(0), p(0)]])
    mu_b = Matrix(field, [[p(1), p(0)], [p(1), p(1)]])
    interval = LinearRepresentation(field, 2, 2, init, (mu_a, mu_b), final)
    rho_a = Matrix(field, [[p(0), p(1)], [p(1), p(0)]])
    rho_b = Matrix(field, [[p(1), p(1)], [p(0), p(1)]])
    weight = Matrix(field, [[scale, p(0)], [p(0), scale]])
    circ = CircularRepresentation(field, 2, 2, (rho_a, rho_b), weight)
    return Theory(field, ("a", "b"), interval, circ)


def zero_interval_theory(field) -> Theory:
    """alpha_I = 0, so the whole pair state space is the kernel ideal; the
    circular data is the trace form of the swap representation."""
    interval = LinearRepresentation(
        field, 1, 0, Matrix.zeros(field, 1, 0),
        (Matrix.zeros(field, 0, 0),), Matrix.zeros(field, 0, 1),
    )
    p = field.parse
    rho = Matrix(field, [[p(0), p(1)], [p(1), p(0)]])
    circ = CircularRepresentation(field, 1, 2, (rho,),
                                  Matrix.identity(field, 2))
    return Theory(field, ("a",), interval, circ)


def tqft_theory(field, zi: RationalFunction1) -> Theory:
    rep = rational_to_rep(zi)
    return Theory(field, ("a",), rep,
                  interval_trace_series(minimize(rep)), circular_is_trace=True)


def theory_corpus() -> list[tuple[str, Theory]]:
    F7 = PrimeField(7)
    out = [
        ("eval1_lam5", empty_alphabet_theory(QQ, Fraction(1), Fraction(5))),
        ("ex2_t1_lam3", one_letter_theory(
            QQ, _rat(QQ, ["1"], ["1", "-2"]),
            _rat(QQ, ["2"], ["1", "-1"]) + _rat(QQ, ["1"], ["1", "-2"]))),
        ("ex3_mu3_lam5", one_letter_theory(
            QQ, _rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["5"], ["1"]))),
        ("ex3_mu3_lam2", one_letter_theory(
            QQ, _rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["2"], ["1"]))),
        ("ex2_f7", one_letter_theory(
            F7, _rat(F7, ["1"], ["1", "5"]),
            _rat(F7, ["2"], ["1", "6"]) + _rat(F7, ["1"], ["1", "5"]))),
        ("two_letter_qq", two_letter_theory(QQ, Fraction(2))),
        ("two_letter_f7", two_letter_theory(F7, F7.parse(3))),
        ("zero_interval_qq", zero_interval_theory(QQ)),
        ("tqft_fib", tqft_theory(QQ, _rat(QQ, ["1", "1"], ["1", "-1", "-1"]))),
    ]
    return out
