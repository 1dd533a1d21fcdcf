"""Acceptance gate: one test per release criterion, all exact.

Each test is self-contained and freezes its expected values inline; the
two randomized sweeps carry explicit wall-clock budgets.
"""
import random
import time
from fractions import Fraction as Fr
from itertools import product

from defekt.diagrams import (
    Arc,
    Diagram,
    FloatingCircle,
    compose,
    evaluate_closed,
    hom_dim,
    mirror,
    mirror_signs,
    spanning_diagrams,
)
from defekt.exactla import Matrix, PrimeField, QQ
from defekt.frobenius import (
    SurfaceComponent,
    SurfaceSpec,
    beta_map,
    embedding_obstruction,
    eval_surface,
    eval_surface_by_surgery,
    hole_element,
    verify,
    window,
)
from defekt.onevar import analyze, cross_check, trace_series_1var
from defekt.openclosed import check_knowledgeable
from defekt.universal import (
    build_pair_algebra,
    frobenius_of_K,
    invariant_triple,
    minimize,
    project_word,
    trace_K,
)

from factories import (
    _rat,
    empty_alphabet_theory,
    group_algebra_cyclic,
    knowledgeable_pair_cyclic,
    mat2_block,
    nilpotent_block,
    one_letter_theory,
    random_element,
    random_symmetric_frobenius,
    theory_corpus,
    tqft_theory,
)
from oracles import from_K_coords, is_zero_algebra, pairing_matrix, zero_el


def test_01_interval_one_circle_five():
    """Empty alphabet, interval value 1, circle value 5: the kernel is one
    idempotent of closure trace 4."""
    t = empty_alphabet_theory(QQ, Fr(1), Fr(5))
    pa = build_pair_algebra(t)
    assert invariant_triple(t) == (1, 0, 1)
    assert pa.dim == 2
    w = project_word(pa, ())
    full = from_K_coords(pa, w)
    assert pa.mul(full, full) == full
    assert trace_K(pa, w) == Fr(4)


def test_02_dot_skein_relation():
    """One letter with interval values 2^n and circle values 2 + 2^n: the
    dotted-circle table and the relation a^2 = 3a - 2 under all closures."""
    zi = _rat(QQ, ["1"], ["1", "-2"])
    zc = _rat(QQ, ["2"], ["1", "-1"]) + zi
    t = one_letter_theory(QQ, zi, zc)
    assert invariant_triple(t) == (1, 1, 1)
    for n in range(7):
        circle = Diagram("", "", (FloatingCircle((0,) * n),))
        assert evaluate_closed(t, circle) == Fr(3) + Fr(2) ** n - Fr(1)
    arcs = [Diagram("", "+-", (Arc(("top", 1), ("top", 0), (0,) * n),))
            for n in range(3)]
    caps = [Diagram("+-", "", (Arc(("bottom", 0), ("bottom", 1), (0,) * j),))
            for j in range(5)]
    closures = caps + [mirror(s) for s in spanning_diagrams(t, mirror_signs("+-"))]
    assert len(closures) > 5
    for c in closures:
        v = [evaluate_closed(t, compose(t, a, c)) for a in arcs]
        assert v[2] == 3 * v[1] - 2 * v[0]


def test_03_interval_polynomial_example():
    """Interval series 3 + T: two-dimensional interval state space with a
    square-zero letter, and circle value 2 makes the kernel vanish."""
    zi = _rat(QQ, ["3", "1"], ["1"])
    t = one_letter_theory(QQ, zi, _rat(QQ, ["5"], ["1"]))
    ss = minimize(t.interval)
    assert ss.dim == 2
    assert ss.act((0, 0)).is_zero()
    assert ss.word_basis == ((), (0,))
    assert pairing_matrix(ss) == Matrix(
        QQ, [[Fr(3), Fr(1)], [Fr(1), Fr(0)]], cols=2
    )
    pa = build_pair_algebra(t)
    assert pa.dim == 5
    assert invariant_triple(t) == (2, 1, 1)

    zc2 = _rat(QQ, ["2"], ["1"])
    t2 = one_letter_theory(QQ, zi, zc2)
    assert invariant_triple(t2) == (2, 2, 0)
    assert is_zero_algebra(frobenius_of_K(build_pair_algebra(t2)))
    assert trace_series_1var(zi) == zc2


def test_04_one_variable_trace_series():
    """Trace series of 1/(2-T)^3 is 3/(1-T/2); a degree-k polynomial
    interval series has constant trace series k + 1."""
    zt = trace_series_1var(_rat(QQ, ["1"], ["8", "-12", "6", "-1"]))
    assert zt == _rat(QQ, ["3"], ["1", "-1/2"])
    coeffs = zt.taylor(10)
    for m in range(11):
        assert coeffs[m] == 3 * Fr(1, 2) ** m
    for k in range(6):
        poly = _rat(QQ, ["0"] * k + ["1"], ["1"])
        assert trace_series_1var(poly) == _rat(QQ, [str(k + 1)], ["1"])


def test_05_onevar_agrees_with_general_construction():
    """Fifty random reduced series pairs per field: dimension triples and
    kernel traces match between the one-variable shortcut and the general
    pairing construction."""
    start = time.monotonic()
    rng = random.Random(105)

    def random_series(field):
        while True:
            num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            if not any(num):
                continue
            den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            den[0] = rng.choice([1, -1, 2, 3])
            return _rat(field, [str(c) for c in num], [str(c) for c in den])

    for field in (QQ, PrimeField(7)):
        for _ in range(50):
            rep = cross_check(random_series(field), random_series(field), 8)
            assert rep.passed
            assert rep.dims_onevar == rep.dims_universal
    assert time.monotonic() - start < 10.0


def test_06_hom_dimensions_in_trace_mode():
    """Circle series completed to the interval trace: every hom space has
    dimension 2^(number of boundary points) when the interval space is
    two-dimensional."""
    t = tqft_theory(QQ, _rat(QQ, ["1", "1"], ["1", "-1", "-1"]))
    assert minimize(t.interval).dim == 2
    for n1 in range(5):
        for n2 in range(5 - n1):
            for e1 in product("+-", repeat=n1):
                for e2 in product("+-", repeat=n2):
                    eps1, eps2 = "".join(e1), "".join(e2)
                    assert hom_dim(t, eps1, eps2) == 2 ** (n1 + n2)


def test_07_kernel_extraction_is_frobenius():
    """Every corpus theory with a nonzero kernel yields a symmetric
    Frobenius algebra."""
    checked = 0
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        if pa.K_dim == 0:
            continue
        rep = verify(frobenius_of_K(pa))
        assert rep.passed, name
        checked += 1
    assert checked >= 3


def test_08_cyclic_group_algebra_window_vanishes():
    """F_5[C_5]: window map and its induced quotient map are zero; the
    disk evaluates to 1 and every positive-genus surface with boundary
    to 0."""
    field = PrimeField(5)
    b = group_algebra_cyclic(field, 5)
    for i in range(b.dim):
        assert window(b, b.basis_el(i)) == zero_el(b)
    assert beta_map(b).is_zero
    disk = SurfaceSpec((SurfaceComponent(0, ((),)),))
    assert eval_surface(b, disk) == field.one
    for m in (1, 2, 3):
        for g in (1, 2):
            s = SurfaceSpec((SurfaceComponent(g, ((),) * m),))
            assert eval_surface(b, s) == field.zero


def test_09_group_algebra_dual_pair():
    """The pair (F_p[C_p], k[x]/(x^2)) with tr(1) = lambda, tr(x) = 1
    passes every axiom, and its closed sector sees only genus 0 and 1."""
    for p in (3, 5):
        field = PrimeField(p)
        for lam_text in ("0", "1", "2"):
            lam = field.parse(lam_text)
            pair = knowledgeable_pair_cyclic(field, lam)
            rep = check_knowledgeable(pair)
            assert rep.cozipper_algebra_hom and rep.cozipper_unital
            assert rep.cozipper_image_central
            assert rep.zipper_coalgebra_hom and rep.zipper_trace_respecting
            assert rep.duality
            assert rep.cardy
            assert rep.passed
            c = pair.closed_algebra
            h = hole_element(c)
            assert c.trace_of(c.unit_el()) == lam
            assert c.trace_of(h) == field.parse("2")
            for g in (2, 3, 4):
                assert c.trace_of(c.power(h, g)) == field.zero


def test_10_surgery_oracle_certifies_closed_form():
    """Twenty random symmetric Frobenius algebras: the closed-form surface
    evaluation equals literal iterated surgery for every genus up to 2 and
    up to 3 decorated boundary circles."""
    start = time.monotonic()
    rng = random.Random(110)
    for i in range(20):
        field = QQ if i % 2 == 0 else PrimeField(7)
        b = random_symmetric_frobenius(rng, field, max_dim=4)
        for g in range(3):
            for m in range(1, 4):
                words = tuple(
                    tuple(random_element(rng, b)
                          for _ in range(rng.randint(0, 2)))
                    for _ in range(m)
                )
                s = SurfaceSpec((SurfaceComponent(g, words),))
                assert eval_surface(b, s) == eval_surface_by_surgery(b, s)
    assert time.monotonic() - start < 30.0


def test_11_characteristic_polynomial_divisibility():
    """The kernel's characteristic polynomial divides the lcm of the
    interval and circle ones, over 200 random pairs."""
    rng = random.Random(111)

    def random_series(field):
        while True:
            num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            if not any(num):
                continue
            den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            den[0] = rng.choice([1, -1, 2, 3])
            return _rat(field, [str(c) for c in num], [str(c) for c in den])

    for field in (QQ, PrimeField(7)):
        for _ in range(100):
            a = analyze(random_series(field), random_series(field))
            _, rem = divmod(a.g_alpha, a.g_circ_interval)
            assert rem.is_zero()


def test_12_trace_embedding_obstruction():
    """Dual numbers never embed into a matrix-trace pair regardless of the
    symmetric trace chosen; the 2x2 matrix algebra does."""
    for r, s in ((Fr(0), Fr(1)), (Fr(1), Fr(1)), (Fr(5), Fr(-2)),
                 (Fr(-3), Fr(7)), (Fr(1, 2), Fr(3, 4))):
        b = nilpotent_block(QQ, r, s)
        rep = embedding_obstruction(b)
        assert rep.status == "not_semisimple"
        assert rep.witness is not None
        assert not rep.witness.is_zero()
        k = rep.witness_nilpotency
        assert k >= 2
        assert b.power(rep.witness, k).is_zero()
        assert not b.power(rep.witness, k - 1).is_zero()
    assert embedding_obstruction(mat2_block(QQ, Fr(1))).status == "semisimple"
