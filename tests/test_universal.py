"""Tests for the universal module: minimization, the pair state space, its
ideals, and the kernel Frobenius algebra."""
import copy
import random
from fractions import Fraction as Fr
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defekt import exactla, frobenius, series, universal
from defekt.diagrams import state_space_dim
from defekt.errors import DefektError, FieldMismatch, SchemaError
from defekt.exactla import FpValue, Matrix, PrimeField, QQ, RationalField, hstack
from defekt.frobenius import frobenius_to_json, verify
from defekt.series import (
    CircularRepresentation,
    LinearRepresentation,
    Polynomial,
    RationalFunction1,
    rational_to_rep,
)
from defekt.universal import (
    Theory,
    build_pair_algebra,
    frobenius_of_K,
    idempotent_report,
    interval_trace_series,
    invariant_triple,
    minimize,
    project_word,
    theory_from_json,
    trace_K,
)

from factories import (
    empty_alphabet_theory,
    one_letter_theory,
    presentations,
    theories,
    theory_corpus,
    two_letter_theory,
    zero_interval_theory,
    _rat,
)
from oracles import (
    arc_class,
    closure_value,
    from_K_coords,
    greedy_words,
    idempotent_flags_by_pairs,
    is_zero_algebra,
    kernel_algebra_by_pairs,
    mixed_product,
    pairing_matrix,
    saturate_by_products,
    words_upto,
)


def ex2_theory(field=QQ):
    zi = _rat(field, ["1"], ["1", "-2"])
    zc = _rat(field, ["2"], ["1", "-1"]) + _rat(field, ["1"], ["1", "-2"])
    return one_letter_theory(field, zi, zc)


def ex3_theory(lam, field=QQ):
    zi = _rat(field, ["3", "1"], ["1"])
    zc = _rat(field, [str(lam)], ["1"])
    return one_letter_theory(field, zi, zc)


# -- minimize -----------------------------------------------------------------


def test_minimize_polynomial_plus_dot():
    rep = rational_to_rep(_rat(QQ, ["3", "1"], ["1"]))
    ss = minimize(rep)
    assert ss.dim == 2
    assert ss.word_basis == ((), (0,))
    a = ss.letters[0]
    assert (a * a).is_zero()
    assert pairing_matrix(ss).to_lists() == [["3", "1"], ["1", "0"]]


def test_minimize_zero_series():
    ss = minimize(rational_to_rep(_rat(QQ, ["0"], ["1"])))
    assert ss.dim == 0
    assert ss.value((0,) * 3) == QQ.zero


def test_minimize_reproduces_values():
    rep = rational_to_rep(_rat(QQ, ["1", "1"], ["1", "-1", "-1"]))
    ss = minimize(rep)
    assert ss.dim == 2
    for n in range(8):
        assert ss.value((0,) * n) == rep.value((0,) * n)


def test_minimize_inflated_presentation():
    # pad a rank-1 series into a dim-3 presentation; minimize must find 1
    F = QQ
    init = Matrix(F, [[Fr(1), Fr(1), Fr(0)]])
    m = Matrix(F, [[Fr(2), Fr(0), Fr(0)], [Fr(0), Fr(2), Fr(0)],
                   [Fr(0), Fr(0), Fr(3)]])
    final = Matrix(F, [[Fr(1)], [Fr(0)], [Fr(0)]])
    rep = LinearRepresentation(F, 1, 3, init, (m,), final)
    ss = minimize(rep)
    assert ss.dim == 1
    for n in range(6):
        assert ss.value((0,) * n) == rep.value((0,) * n)


def test_minimize_dim_is_hankel_rank():
    import random

    rng = random.Random(11)
    F = PrimeField(7)
    for _ in range(6):
        init = Matrix(F, [[F.parse(rng.randint(0, 6)) for _ in range(3)]])
        letters = tuple(
            Matrix(F, [[F.parse(rng.randint(0, 6)) for _ in range(3)]
                       for _ in range(3)])
            for _ in range(2)
        )
        final = Matrix(F, [[F.parse(rng.randint(0, 6))] for _ in range(3)])
        rep = LinearRepresentation(F, 2, 3, init, letters, final)
        ss = minimize(rep)
        words = [()]
        for _ in range(3):
            words += [w + (a,) for w in words if len(w) == _ for a in (0, 1)]
        hankel = Matrix(F, [[rep.value(u + v) for v in words] for u in words],
                        cols=len(words))
        assert ss.dim == hankel.rank()
        for w in words:
            assert ss.value(w) == rep.value(w)


def _units(*ones):
    """The 4 x 4 matrix with ones at the given (row, column) entries."""
    return Matrix(QQ, [[int((r, c) in ones) for c in range(4)]
                       for r in range(4)])


# a*a*final vanishes and a*b*final = b*a*final is new, so only the order
# in which length-2 words are tested decides between "ab" and "ba"
ORDER_SENSITIVE = (
    LinearRepresentation(QQ, 2, 4, Matrix(QQ, [[0, 0, 0, 1]]),
                         [_units((1, 0), (3, 2)), _units((2, 0), (3, 1))],
                         Matrix.col_vector(QQ, [1, 0, 0, 0])),
    CircularRepresentation(QQ, 2, 1, [Matrix(QQ, [[1]])] * 2, Matrix(QQ, [[1]])),
)


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_minimize_is_idempotent(case):
    # the state space is a linear representation, and already minimal
    ss = minimize(case[0])
    again = minimize(ss)
    assert isinstance(ss, LinearRepresentation)
    assert (again.dim, again.letters, again.init, again.final) == (
        ss.dim, ss.letters, ss.init, ss.final)
    assert (again.word_basis, again.cobasis_words) == (ss.word_basis, ss.cobasis_words)


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_a_presentation_owns_its_minimal_state_space(case):
    # the first minimize builds the state space and the presentation holds
    # it; the held result is what a fresh build on equal matrices gives
    rep = case[0]
    ss = minimize(rep)
    assert minimize(rep) is ss
    fresh = minimize(_unminimized(rep))
    assert fresh is not ss
    assert (fresh.dim, fresh.word_basis, fresh.cobasis_words) == (
        ss.dim, ss.word_basis, ss.cobasis_words)
    assert (fresh.init, fresh.letters, fresh.final) == (ss.init, ss.letters, ss.final)


def test_representations_stay_immutable_when_they_hold_a_state_space():
    t = two_letter_theory(QQ, Fr(2))
    rep, circ = t.interval, t.circular
    ss = minimize(rep)
    for obj in (rep, ss, circ):
        for name in ("dim", "letters", "_minimal", "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    assert minimize(rep) is ss


def test_representations_refuse_deletion():
    # deleting is refused as assigning is, on both representation kinds,
    # so the held state space cannot be dropped and built again
    t = two_letter_theory(QQ, Fr(2))
    rep, circ = t.interval, t.circular
    assert isinstance(rep, LinearRepresentation)
    assert isinstance(circ, CircularRepresentation)
    ss = minimize(rep)
    for obj, names in ((rep, ("dim", "letters", "init", "final", "_minimal")),
                       (circ, ("dim", "letters", "weight")),
                       (ss, ("dim", "letters", "init", "final"))):
        for name in names:
            held = getattr(obj, name)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is held
    assert minimize(rep) is ss and minimize(rep) is minimize(rep)


@settings(max_examples=40, deadline=None)
@given(presentations())
@example(ORDER_SENSITIVE)
def test_word_families_are_the_greedy_length_then_lex_families(case):
    rep, circ = case
    ss = minimize(rep)
    words = words_upto(rep.num_letters, rep.dim)
    assert list(ss.word_basis) == greedy_words(
        words, lambda w: [rep.value(u + w) for u in words])
    assert list(ss.cobasis_words) == greedy_words(
        words, lambda w: [rep.value(w + u) for u in words])
    arcs = universal.arc_word_family(ss, circ)
    # the span of the words up to some length is closed under the letters
    # once one more length adds nothing to it
    assert arcs == greedy_words(
        words_upto(rep.num_letters, len(arcs[-1]) + 1),
        lambda w: ss.act(w).flat() + circ.act(w).flat())


def _unminimized(rep):
    """A new presentation with rep's matrices, owning no state space yet,
    so that minimizing it does the whole build."""
    return LinearRepresentation(rep.field, rep.num_letters, rep.dim, rep.init,
                                rep.letters, rep.final)


def _recorded_saturations(run):
    """run()'s result, and every ``_saturate`` call it made as (args,
    kwargs, result)."""
    calls = []
    real = universal._saturate

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    with patch.object(universal, "_saturate", recording):
        return run(), calls


def _fractional_theory(field):
    """A two-letter theory whose matrices have denominators 2 and 3, so
    that each word length scales the states' common denominator."""
    def m(*rows):
        return Matrix(field, [list(r) for r in rows])

    rep = LinearRepresentation(field, 2, 2, m((Fr(1, 2), 1)),
                               [m((Fr(1, 3), 1), (0, Fr(1, 2))), m((0, Fr(2, 3)), (1, 0))],
                               m((1,), (Fr(1, 3),)))
    circ = CircularRepresentation(field, 2, 1, [m((Fr(1, 2),)), m((Fr(1, 3),))],
                                  m((Fr(3, 2),)))
    return Theory(field, ("a", "b"), rep, circ)


@settings(max_examples=40, deadline=None)
@given(theories())
@example(_fractional_theory(QQ))
@example(_fractional_theory(PrimeField(7)))
def test_integer_saturation_matches_the_matrix_route(t):
    # the covector, vector and cobasis families of minimize, then the arc
    # words: each integer saturation keeps the words and, as the rows of
    # its matrix, the states of the saturation on Matrix products
    def run():
        ss = minimize(_unminimized(t.interval))
        return ss, universal._arc_states(ss, t.circular)

    (ss, arcs), calls = _recorded_saturations(run)
    prepends = [kwargs.get("prepend", False) for _, kwargs, _ in calls]
    assert prepends[-1] is False
    if ss.dim:
        assert prepends == [False, True, False, False]
    for (field, start, letters), kwargs, got in calls:
        want = saturate_by_products(field, start, letters, **kwargs)
        words, states = got
        assert words == [w for w, _ in want]
        assert states.rows == len(want)
        assert states.cols == sum(m.rows * m.cols for m in start)
        for i, (_, mats) in enumerate(want):
            assert states.row(i) == tuple(x for m in mats for x in m.flat())
    _, _, arc_want = calls[-1]
    assert [w for w, _, _ in arcs] == arc_want[0]
    assert universal.arc_word_family(ss, t.circular) == [w for w, _, _ in arcs]
    assert t.arc_states == tuple(arcs)
    assert t.arc_words == tuple(w for w, _, _ in arcs)


def test_minimize_pairing_nondegenerate():
    for _, t in theory_corpus():
        ss = minimize(t.interval)
        if ss.dim:
            assert pairing_matrix(ss).rank() == ss.dim
        assert len(ss.word_basis) == ss.dim
        assert len(ss.cobasis_words) == ss.dim


def test_interval_trace_series_geometric_cube():
    # 1/(2-T)^3: traces 3 * 2^-m
    den = Polynomial(QQ, [Fr(2), Fr(-1)])
    cube = den * den * den
    z = RationalFunction1(QQ, Polynomial(QQ, [Fr(1)]), cube)
    ss = minimize(rational_to_rep(z))
    assert ss.dim == 3
    tr = interval_trace_series(ss)
    for m in range(7):
        assert tr.value((0,) * m) == Fr(3, 2**m)


def test_interval_trace_series_polynomial():
    z = _rat(QQ, ["1", "2", "5"], ["1"])
    ss = minimize(rational_to_rep(z))
    tr = interval_trace_series(ss)
    assert tr.value(()) == Fr(3)
    for m in range(1, 6):
        assert tr.value((0,) * m) == Fr(0)


def test_interval_trace_series_zero():
    ss = minimize(rational_to_rep(_rat(QQ, ["0"], ["1"])))
    tr = interval_trace_series(ss)
    assert tr.value(()) == QQ.zero


# -- worked example: interval 1, circle lambda --------------------------------


def test_eval1_pair_algebra():
    t = empty_alphabet_theory(QQ, Fr(1), Fr(5))
    pa = build_pair_algebra(t)
    assert pa.dim == 2
    assert invariant_triple(t) == (1, 0, 1)
    w = project_word(pa, ())
    assert from_K_coords(pa, w) == pa.one_K
    full = from_K_coords(pa, w)
    assert pa.mul(full, full) == full
    assert trace_K(pa, w) == Fr(4)
    rep = idempotent_report(pa)
    assert len(rep.idempotents) == 2
    assert rep.each_idempotent and rep.orthogonal and rep.sum_is_unit
    K = frobenius_of_K(pa)
    assert K.dim == 1
    assert K.trace_of(K.unit_el()) == Fr(4)
    assert verify(K).passed


def test_eval1_lambda_one_kills_K():
    # circle value 1 agrees with the interval trace, so the kernel vanishes
    t = empty_alphabet_theory(QQ, Fr(1), Fr(1))
    assert invariant_triple(t) == (1, 1, 0)
    assert is_zero_algebra(frobenius_of_K(build_pair_algebra(t)))


# -- worked example: geometric interval, two-term circle ----------------------


def test_ex2_invariants():
    t = ex2_theory()
    pa = build_pair_algebra(t)
    assert pa.dim == 2
    assert invariant_triple(t) == (1, 1, 1)
    assert pa.U_dim == 2
    assert trace_K(pa, pa.to_K_coords(pa.one_K)) == Fr(2)


def test_ex2_projection_constant():
    t = ex2_theory()
    pa = build_pair_algebra(t)
    for n in range(5):
        pw = project_word(pa, (0,) * n)
        assert from_K_coords(pa, pw) == pa.one_K
        assert trace_K(pa, pw) == Fr(2)


def test_ex2_skein_relation():
    # a^2 = 3a - 2 in the arc subalgebra (t = 1)
    pa = build_pair_algebra(ex2_theory())
    lhs = arc_class(pa, (0, 0))
    rhs = arc_class(pa, (0,)).scale(Fr(3)) - arc_class(pa, ()).scale(Fr(2))
    assert lhs == rhs


def test_ex2_over_f7():
    F7 = PrimeField(7)
    t = ex2_theory(F7)
    pa = build_pair_algebra(t)
    assert invariant_triple(t) == (1, 1, 1)
    assert trace_K(pa, pa.to_K_coords(pa.one_K)) == F7.parse(2)


# -- worked example: nilpotent interval ---------------------------------------


def test_ex3_invariants():
    t = ex3_theory(5)
    pa = build_pair_algebra(t)
    assert pa.dim == 5
    assert invariant_triple(t) == (2, 1, 1)
    assert trace_K(pa, pa.to_K_coords(pa.one_K)) == Fr(3)
    rep = idempotent_report(pa)
    assert len(rep.idempotents) == 3
    assert rep.each_idempotent and rep.orthogonal and rep.sum_is_unit


def test_ex3_tqft_at_lambda_two():
    t = ex3_theory(2)
    pa = build_pair_algebra(t)
    assert invariant_triple(t) == (2, 2, 0)
    assert pa.dim == 4
    assert is_zero_algebra(frobenius_of_K(pa))
    for n in range(4):
        assert project_word(pa, (0,) * n).rows == 0


def test_tqft_mode_matches_trace_completion():
    # trace_of_interval on the same interval equals the lambda = 2 circle
    zi = _rat(QQ, ["3", "1"], ["1"])
    rep = rational_to_rep(zi)
    t = Theory(QQ, ("a",), rep, interval_trace_series(minimize(rep)),
               circular_is_trace=True)
    assert invariant_triple(t) == (2, 2, 0)
    assert build_pair_algebra(t).dim == 4


# -- structural properties over the corpus ------------------------------------


def test_trace_relation_on_words():
    # tr_K(p*(w)) = circle(w) - interval-trace(w) for small words
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        tr_rep = interval_trace_series(pa.statespace)
        nl = len(t.alphabet)
        words = [()]
        frontier = [()]
        for _ in range(4 if nl > 1 else 6):
            frontier = [w + (a,) for w in frontier for a in range(nl)]
            words += frontier
        for w in words:
            lhs = trace_K(pa, project_word(pa, w))
            rhs = t.circular.value(w) - tr_rep.value(w)
            assert lhs == rhs, (name, w)


def test_exactness_of_arc_subalgebra():
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        assert pa.U_dim == pa.U_prime_dim + pa.K_dim, name
        assert pa.dim == pa.k**2 + pa.K_dim, name
        assert pa.U_prime_dim <= pa.k**2, name


def test_kernel_annihilates_state_space():
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        for i in range(pa.K_dim):
            z = Matrix.col_vector(pa.field, [
                pa.field.one if j == i else pa.field.zero
                for j in range(pa.K_dim)
            ])
            _, _, a = pa.triple_of(from_K_coords(pa, z))
            assert a.is_zero(), name


def test_matrix_units_multiply():
    pa = build_pair_algebra(ex3_theory(5))
    k = pa.k
    for i in range(k):
        for j in range(k):
            for l in range(k):
                for s in range(k):
                    prod = pa.mul(pa.I_coords[i][j], pa.I_coords[l][s])
                    if j == l:
                        assert prod == pa.I_coords[i][s]
                    else:
                        assert prod.is_zero()


def test_unit_decomposition_acts_on_ideals():
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        for i in range(pa.k):
            for j in range(pa.k):
                e = pa.I_coords[i][j]
                assert pa.mul(pa.one_prime, e) == e, name
                assert pa.mul(e, pa.one_prime) == e, name
                assert pa.mul(pa.one_K, e).is_zero(), name
        kk = from_K_coords(pa, pa.to_K_coords(pa.one_K)) if pa.K_dim else None
        if kk is not None:
            assert pa.mul(pa.one_K, kk) == kk, name
            assert pa.mul(pa.one_prime, kk).is_zero(), name


def test_frobenius_of_K_verifies_on_corpus():
    for name, t in theory_corpus():
        K = frobenius_of_K(build_pair_algebra(t))
        assert verify(K).passed, name


def test_unit_is_two_sided():
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        for i in range(pa.dim):
            e = Matrix.col_vector(pa.field, [
                pa.field.one if j == i else pa.field.zero
                for j in range(pa.dim)
            ])
            assert pa.mul(pa.unit, e) == e, name
            assert pa.mul(e, pa.unit) == e, name


def test_zero_interval_theory_is_pure_kernel():
    t = zero_interval_theory(QQ)
    pa = build_pair_algebra(t)
    assert pa.k == 0
    assert pa.dim == pa.K_dim == 2
    K = frobenius_of_K(pa)
    assert verify(K).passed
    assert K.trace_of(K.unit_el()) == Fr(2)


def test_two_letter_closure_values():
    t = two_letter_theory(QQ, Fr(2))
    pa = build_pair_algebra(t)
    # closing the pair with a word must reproduce circle values on arcs
    for w in [(), (0,), (1,), (0, 1), (1, 0, 0)]:
        assert closure_value(pa, arc_class(pa, w)) == t.circular.value(w)


def test_closure_functional_matches_matrix_products():
    # the closure of a spanning triple against an arc word, read off its
    # class, equals trace(D*rho*rho_w) + trace(phi_w*(a - phi)) multiplied
    # out
    fields = set()
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        fields.add(pa.field)
        D = pa.circ.weight
        for w in pa.arc_words:
            phi_w, rho_w = pa.statespace.act(w), pa.circ.act(w)
            for phi, rho, a in pa._gens:
                want = (D * rho * rho_w).trace() + (phi_w * (a - phi)).trace()
                got = closure_value(pa, pa.coords((phi, rho, a)), w)
                assert got == want, (name, w)
    assert fields == {QQ, PrimeField(7)}


def test_to_K_coords_round_trip_and_refusal():
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        for i in range(pa.K_dim):
            e = Matrix.col_vector(pa.field, [
                pa.field.one if j == i else pa.field.zero
                for j in range(pa.K_dim)
            ])
            assert pa.to_K_coords(from_K_coords(pa, e)) == e, name
        if pa.k > 0:
            # the unit acts by the identity on A(+), so it is not in K
            with pytest.raises(DefektError):
                pa.to_K_coords(pa.unit)


def trace_K_by_triple(pa, x):
    """Closure trace of a K element read off its whole spanning triple."""
    phi, rho, a = pa.triple_of(from_K_coords(pa, x))
    return (pa.circ.weight * rho).trace() + (a - phi).trace()


def test_trace_K_matches_the_triple_route():
    fields = set()
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        if not pa.K_dim:
            continue
        fields.add(pa.field)
        K = frobenius_of_K(pa)
        basis = [K.basis_el(i) for i in range(K.dim)]
        assert K.trace == tuple(trace_K_by_triple(pa, e) for e in basis), name
        elems = basis + [K.mul(a, b) for a in basis for b in basis]
        if t.alphabet:
            elems += [project_word(pa, (0,) * n) for n in range(4)]
        for x in elems:
            assert trace_K(pa, x) == trace_K_by_triple(pa, x), name
        with pytest.raises(FieldMismatch):
            trace_K(pa, Matrix.zeros(pa.field, pa.K_dim + 1, 1))
    assert fields == {QQ, PrimeField(7)}


# -- classes read off the elimination -------------------------------------------


def solved_route(pa):
    """The unit, one_prime, E_ij classes and the dimensions of U and U' as
    solved and ranked one by one from spanning triples."""
    F, k, m, W = pa.field, pa.k, pa.m, len(pa.arc_words)
    unit = pa.coords((Matrix.identity(F, k), Matrix.identity(F, m),
                      Matrix.identity(F, k)))
    one_prime = pa.coords((Matrix.zeros(F, k, k), Matrix.zeros(F, m, m),
                           Matrix.identity(F, k)))
    I_coords = [[pa.coords(pa._gens[W + i * k + j]) for j in range(k)]
                for i in range(k)]
    arcs = [pa.coords(g) for g in pa._gens[:W]]
    U_dim = hstack(arcs).rank() if arcs else 0
    flat_I = [c for row in I_coords for c in row]
    U_prime_dim = (U_dim + k * k - hstack(arcs + flat_I).rank()
                   if arcs and flat_I else 0)
    return unit, one_prime, I_coords, U_dim, U_prime_dim


def functionals(pa, triple):
    """The functionals ``L`` evaluated on one spanning triple."""
    return (pa.L * universal._flat_columns(pa.field, [triple], pa.L.cols)).flat()


def test_pair_algebra_solves_nothing_per_generator(monkeypatch):
    # two eliminations: the one reduction of [Fmat | I], and the kernel of
    # the A(+) action that gives K; no inverse
    calls = {"coords": 0, "inverse": 0, "rref": 0}
    real_coords = universal.PairAlgebra.coords
    real_inverse = Matrix.inverse
    real_rref = exactla._rref

    def counted_coords(self, triple):
        calls["coords"] += 1
        return real_coords(self, triple)

    def counted_inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    def counted_rref(p, work, ncols):
        calls["rref"] += 1
        return real_rref(p, work, ncols)

    monkeypatch.setattr(universal.PairAlgebra, "coords", counted_coords)
    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    monkeypatch.setattr(exactla, "_rref", counted_rref)
    for name, t in theory_corpus():
        # count only what building the pair algebra itself does
        _ = t.statespace, t.arc_words
        calls.update(coords=0, inverse=0, rref=0)
        universal.PairAlgebra(t)
        assert calls == {"coords": 0, "inverse": 0, "rref": 2}, name


def test_minimize_solves_once_per_side(monkeypatch):
    # the restriction and the quotient each solve for all letters at once
    calls = []
    real_solve = Matrix.solve

    def counted_solve(self, rhs):
        calls.append(rhs.cols)
        return real_solve(self, rhs)

    monkeypatch.setattr(Matrix, "solve", counted_solve)
    seen = set()
    for name, t in theory_corpus():
        rep = _unminimized(t.interval)
        calls.clear()
        s = minimize(rep)
        if rep.num_letters and s.dim:
            seen.add(rep.num_letters)
            assert len(calls) == 2, name
    assert seen == {1, 2}


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_classes_read_off_the_elimination_match_the_solved_route(case):
    rep, circ = case
    t = Theory(rep.field, tuple("ab"[:rep.num_letters]), rep, circ)
    pa = build_pair_algebra(t)
    unit, one_prime, I_coords, U_dim, U_prime_dim = solved_route(pa)
    assert pa.unit == unit
    assert pa.one_prime == one_prime
    assert pa.I_coords == I_coords
    assert (pa.U_dim, pa.U_prime_dim) == (U_dim, U_prime_dim)
    # column c of the rref is the class of generator c
    F = pa.field
    fvals = [functionals(pa, g) for g in pa._gens]
    R, pivots = Matrix(F, [list(r) for r in zip(*fvals)], cols=len(fvals)).rref()
    assert len(pivots) == pa.dim
    for c, g in enumerate(pa._gens):
        col = Matrix.col_vector(F, [R[r, c] for r in range(pa.dim)])
        assert pa.coords(g) == col
    # K coordinates are the unique solution, and only K elements have them
    elems = list(pa.K_basis) + [pa.unit, pa.one_K, pa.one_prime]
    elems += [pa.coords(mixed_product(g, h)) for g in pa._gens[:3] for h in pa._gens[:3]]
    elems += [pa.mul(pa.one_K, pa.coords(g)) for g in pa._gens[:3]]
    for x in elems:
        want = pa._K_mat.solve(x)
        if want is None:
            with pytest.raises(DefektError):
                pa.to_K_coords(x)
        else:
            assert pa.to_K_coords(x) == want


def _one_letter(init, letter, final, circ_letter, weight):
    """A one-letter QQ presentation of 1 x 1 matrices, with its circle
    data."""
    def m(x):
        return Matrix(QQ, [[x]])

    return (LinearRepresentation(QQ, 1, 1, m(init), [m(letter)], m(final)),
            CircularRepresentation(QQ, 1, 1, [m(circ_letter)], m(weight)))


ZERO_INTERVAL = _one_letter(0, 1, 1, 2, 1)  # k = 0, dim K = 1
ZERO_PAIR = _one_letter(0, 1, 1, 2, 0)  # k = 0, dim K = 0: no classes
_TRACED = _one_letter(1, 3, 1, 1, 1)[0]
TRACED = (_TRACED, interval_trace_series(minimize(_TRACED)))  # k = 1, dim K = 0


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(0, 2**32 - 1))
@example(ZERO_INTERVAL, 0)
@example(ZERO_PAIR, 1)
@example(TRACED, 2)
def test_batched_classes_match_the_per_pair_route(case, seed):
    rep, circ = case
    t = Theory(rep.field, tuple("ab"[:rep.num_letters]), rep, circ)
    pa = build_pair_algebra(t)
    F = pa.field
    # the batched products of random classes, none to three at a time,
    # equal the triple route's products pair by pair
    rng = random.Random(seed)
    for n in range(4):
        x = Matrix(F, [[Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                       for _ in range(pa.dim)], cols=n)
        prods = pa._products(x)
        assert (prods.rows, prods.cols) == (pa.dim, n * n)
        xs = [Matrix.col_vector(F, x.column(j)) for j in range(x.cols)]
        for i, j in product(range(n), repeat=2):
            assert prods.column(i * n + j) == pa.mul(xs[i], xs[j]).flat()
    K = frobenius_of_K(pa)
    assert (K.mult, K.unit, K.trace) == kernel_algebra_by_pairs(pa)
    idem = idempotent_report(pa)
    assert ((idem.each_idempotent, idem.orthogonal, idem.sum_is_unit)
            == idempotent_flags_by_pairs(pa))
    for x in pa.K_basis:
        assert trace_K(pa, pa.to_K_coords(x)) == closure_value(pa, x)


@settings(max_examples=40, deadline=None)
@given(theories())
def test_kernel_algebra_claims_on_random_theories(t):
    # the empty alphabet and the trace_of_interval circle kind included:
    # tracing the interval action leaves no kernel, and K is always a
    # symmetric Frobenius algebra whose idempotents decompose the unit
    pa = build_pair_algebra(t)
    K = frobenius_of_K(pa)
    if t.circular_is_trace:
        assert K.dim == 0
    assert verify(K).passed
    idem = idempotent_report(pa)
    assert idem.each_idempotent and idem.orthogonal and idem.sum_is_unit


def test_products_are_classed_by_one_product_with_M(monkeypatch):
    # frobenius_of_K and idempotent_report each class their products once,
    # through the rows of the M the algebra holds: no coords call and no
    # Matrix product with M itself
    real_coords = universal.PairAlgebra.coords
    real_products = universal.PairAlgebra._products
    real_mul = Matrix.__mul__
    calls = {"coords": 0, "products": 0, "M": 0}
    pa = None

    def counted_coords(self, triple):
        calls["coords"] += 1
        return real_coords(self, triple)

    def counted_products(self, x):
        calls["products"] += 1
        return real_products(self, x)

    def counted_mul(self, other):
        if pa is not None and self is pa.M:
            calls["M"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(universal.PairAlgebra, "coords", counted_coords)
    monkeypatch.setattr(universal.PairAlgebra, "_products", counted_products)
    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    seen_K = False
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        for run, want in ((frobenius_of_K, int(pa.K_dim > 0)),
                          (idempotent_report, 1)):
            calls.update(coords=0, products=0, M=0)
            run(pa)
            assert calls == {"coords": 0, "products": want, "M": 0}, (name, run.__name__)
        # M is held as built, and carries each basis triple to its class
        assert vars(pa)["M"] is pa.M, name
        assert pa.M * pa.B == Matrix.identity(pa.field, pa.dim), name
        seen_K = seen_K or pa.K_dim > 0
    assert seen_K


def test_saturations_and_pair_products_form_no_product_per_word_or_pair(monkeypatch):
    # building a theory's pair algebra acts no arc word (it reads the arc
    # states the theory kept), the saturations form no Matrix product, and
    # a batch of pair products forms one, B * x, however many pairs
    acts = []
    products = {"_saturate": [], "_products": []}
    active = []
    real_mul = Matrix.__mul__
    real_act = series._word_action

    def counted_act(field, dim, letters, word):
        acts.append(word)
        return real_act(field, dim, letters, word)

    def counted_mul(self, other):
        if active:
            products[active[-1]][-1] += 1
        return real_mul(self, other)

    def within(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            products[name].append(0)
            active.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(owner, name, wrapped)

    corpus = theory_corpus()
    # every act, the state space's too, goes through series._word_action
    monkeypatch.setattr(series, "_word_action", counted_act)
    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    within(universal, "_saturate")
    within(universal.PairAlgebra, "_products")
    for name, t in corpus:
        acts.clear()
        pa = t.pair_algebra
        assert acts == [], name
        frobenius_of_K(pa)
        idempotent_report(pa)
        pa._products(hstack(list(pa.K_basis) + [pa.unit] * 3) if pa.dim
                     else Matrix.zeros(pa.field, 0, 2))
    # minimize's families and the arc words, for every theory
    assert len(products["_saturate"]) >= 2 * len(corpus)
    assert set(products["_saturate"]) == {0}
    assert set(products["_products"]) == {1}


# -- theory JSON ---------------------------------------------------------------


def theory_doc():
    return {
        "field": {"type": "rational"},
        "alphabet": ["a"],
        "interval": {"kind": "rational1", "num": ["3", "1"], "den": ["1"]},
        "circular": {"kind": "rational1", "num": ["5"], "den": ["1"]},
    }


def test_theory_from_json_roundtrip():
    t = theory_from_json(theory_doc())
    assert invariant_triple(t) == (2, 1, 1)


def test_theory_from_json_trace_of_interval():
    doc = theory_doc()
    doc["circular"] = {"kind": "trace_of_interval"}
    t = theory_from_json(doc)
    assert t.circular_is_trace
    assert invariant_triple(t) == (2, 2, 0)


@pytest.mark.parametrize("circular", [
    {"kind": "rational1", "num": ["5"], "den": ["1"]},
    {"kind": "trace_of_interval"},
], ids=["rational1", "trace"])
def test_theory_builds_its_state_space_and_pair_algebra_once(monkeypatch,
                                                             circular):
    # counts builds of the state space (the private _minimize), not calls
    # of minimize, which answers from the interval once it holds one
    calls = {"minimize": 0, "pair_algebra": 0}
    real_minimize = universal._minimize
    real_init = universal.PairAlgebra.__init__

    def counted_minimize(rep):
        calls["minimize"] += 1
        return real_minimize(rep)

    def counted_init(self, theory):
        calls["pair_algebra"] += 1
        real_init(self, theory)

    monkeypatch.setattr(universal, "_minimize", counted_minimize)
    monkeypatch.setattr(universal.PairAlgebra, "__init__", counted_init)
    doc = theory_doc()
    doc["circular"] = circular
    t = theory_from_json(doc)
    pa = build_pair_algebra(t)
    assert invariant_triple(t) == (pa.k, pa.U_prime_dim, pa.K_dim)
    assert build_pair_algebra(t) is pa
    assert state_space_dim(t, "+-") == pa.dim
    assert state_space_dim(t, "+") == pa.k
    assert calls == {"minimize": 1, "pair_algebra": 1}


def test_theory_from_json_field_override():
    F7 = PrimeField(7)
    t = theory_from_json(theory_doc(), field_override=F7)
    assert t.field is F7
    assert invariant_triple(t) == (2, 1, 1)


def test_theory_from_json_linrep_and_tracerep():
    doc = {
        "alphabet": ["a", "b"],
        "interval": {
            "kind": "linrep", "dim": 1, "init": ["1"],
            "letters": {"a": [["2"]], "b": [["3"]]}, "final": ["1"],
        },
        "circular": {
            "kind": "tracerep", "dim": 1,
            "letters": {"a": [["2"]], "b": [["3"]]}, "weight": [["1"]],
        },
    }
    t = theory_from_json(doc)
    assert t.interval.value((0, 1)) == Fr(6)
    assert t.circular.value((1,)) == Fr(3)


# The one-letter corpus theories ex2_t1_lam3 and ex2_f7 as rational1
# documents: 1/(1-2T) on intervals, 2/(1-T) + 1/(1-2T) on circles, over QQ
# and (with -2 = 5, -1 = 6) over F_7.
ONE_LETTER_RATIONAL_DOCS = [
    {"alphabet": ["a"],
     "interval": {"kind": "rational1", "num": ["1"], "den": ["1", "-2"]},
     "circular": {"kind": "rational1", "num": ["3", "-5"], "den": ["1", "-3", "2"]}},
    {"field": {"type": "prime", "p": 7}, "alphabet": ["a"],
     "interval": {"kind": "rational1", "num": ["1"], "den": ["1", "5"]},
     "circular": {"kind": "rational1", "num": ["3", "2"], "den": ["1", "4", "2"]}},
]


def _matrix_json(m):
    return [[m.field.format(x) for x in row] for row in m.data]


@pytest.mark.parametrize("rational_doc", ONE_LETTER_RATIONAL_DOCS, ids=["QQ", "F7"])
def test_one_letter_tracerep_takes_any_weight(rational_doc):
    # the same theory written out as linrep and tracerep matrices: its
    # weight does not commute with the letter, which one letter allows
    r = theory_from_json(rational_doc)
    iv, circ = r.interval, r.circular
    assert circ.weight * circ.letters[0] != circ.letters[0] * circ.weight
    doc = dict(rational_doc, interval={
        "kind": "linrep", "dim": iv.dim, "init": _matrix_json(iv.init)[0],
        "letters": {"a": _matrix_json(iv.letters[0])},
        "final": [row[0] for row in _matrix_json(iv.final)],
    }, circular={
        "kind": "tracerep", "dim": circ.dim,
        "letters": {"a": _matrix_json(circ.letters[0])},
        "weight": _matrix_json(circ.weight),
    })
    want = (invariant_triple(r), frobenius_to_json(frobenius_of_K(r.pair_algebra)))
    t = theory_from_json(doc)
    assert t is not r
    assert (invariant_triple(t), frobenius_to_json(frobenius_of_K(t.pair_algebra))) == want
    # two letters still need a weight commuting with both
    two = dict(doc, alphabet=["a", "b"])
    for part in ("interval", "circular"):
        two[part] = dict(doc[part], letters=dict(doc[part]["letters"],
                                                 b=doc[part]["letters"]["a"]))
    assert _schema_path(two) == "circular.weight"


@pytest.mark.parametrize(
    "mangle,path",
    [
        (lambda d: d.update(alphabet="ab"), "alphabet"),
        (lambda d: d.update(alphabet=["a", "a"]), "alphabet"),
        (lambda d: d.update(interval={"kind": "mystery"}), "interval.kind"),
        (lambda d: d.update(circular={"kind": "mystery"}), "circular.kind"),
        (lambda d: d.pop("interval"), "interval"),
    ],
)
def test_theory_from_json_schema_errors(mangle, path):
    doc = theory_doc()
    mangle(doc)
    with pytest.raises(SchemaError) as exc:
        theory_from_json(doc)
    assert exc.value.path == path


def test_theory_from_json_rational1_needs_small_alphabet():
    doc = theory_doc()
    doc["alphabet"] = ["a", "b"]
    with pytest.raises(SchemaError):
        theory_from_json(doc)


def test_theory_parts_are_read_in_order_and_judged_in_lowest_terms():
    # a bad scalar in both parts is refused at the interval's
    doc = theory_doc()
    doc["interval"]["num"][0] = "1.5"
    doc["circular"]["num"][0] = "1.5"
    assert _schema_path(doc) == "interval.num[0]"
    # an empty alphabet takes (1+T)/(1+T) and 0/(1+T), constant in lowest
    # terms, and refuses (1+T)/1
    for num, den, value in ((["1", "1"], ["1", "1"], Fr(1)), (["0"], ["1", "1"], Fr(0))):
        part = {"kind": "rational1", "num": num, "den": den}
        t = theory_from_json({"alphabet": [], "interval": part, "circular": part})
        assert (t.interval.value(()), t.circular.value(())) == (value, value)
    bad = {"kind": "rational1", "num": ["1", "1"], "den": ["1"]}
    assert _schema_path({"alphabet": [], "interval": bad, "circular": bad}) == "interval"
    # rational1_from_json reads a part as from_lists reads its arrays
    for num, den in ((["2", "2"], ["4", "-4"]), (["1"], ["1", "1/2"])):
        assert (series.rational1_from_json(QQ, {"num": num, "den": den}, "z")
                == RationalFunction1.from_lists(QQ, num, den, "z"))
    for num, den, path in ((None, ["1"], "z.num"), (["1"], None, "z.den"),
                           (["x"], ["1"], "z.num[0]"), (["1"], "1", "z.den"),
                           ([1.5], ["1"], "z.num[0]"), (["1"], ["0"], None)):
        part = {k: v for k, v in (("num", num), ("den", den)) if v is not None}
        errors = []
        for read in (lambda: series.rational1_from_json(QQ, part, "z"),
                     lambda: RationalFunction1.from_lists(QQ, num, den, "z")):
            with pytest.raises(DefektError) as exc:
                read()
            errors.append((type(exc.value), getattr(exc.value, "path", None)))
        assert errors == [errors[0], (errors[0][0], path)]


# -- theory cache --------------------------------------------------------------


FIELD_DOCS = [{"type": "rational"}, {"type": "prime", "p": 7}]
FIELD_IDS = ["QQ", "F7"]


def linrep_doc(field_doc, entry="2"):
    return {
        "field": field_doc,
        "alphabet": ["a", "b"],
        "interval": {
            "kind": "linrep", "dim": 2, "init": ["1", "0"],
            "letters": {"a": [[entry, "1"], ["0", "1"]],
                        "b": [["1", "0"], ["1", "3"]]},
            "final": ["0", "1"],
        },
        "circular": {
            "kind": "tracerep", "dim": 1,
            "letters": {"a": [["2"]], "b": [["3"]]}, "weight": [["1"]],
        },
    }


def _reordered(doc):
    """The same document with the keys of every object in reverse order."""
    if isinstance(doc, dict):
        return {k: _reordered(doc[k]) for k in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reordered(x) for x in doc]
    return doc


@st.composite
def respelled_documents(draw):
    """A linrep theory document over QQ or F_7 and a copy with its keys
    reordered and every scalar spelled differently (n/d as kn/kd, and mod
    7 shifted by a multiple of 7)."""
    field_doc = draw(st.sampled_from(FIELD_DOCS))
    p = field_doc.get("p", 0)
    alphabet = ["a", "b"][:draw(st.integers(0, 2))]
    dim, cdim = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def scalar():
        x = Fr(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
        k, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        return (str(x),
                f"{k * (x.numerator + p * m * x.denominator)}/{k * x.denominator}")

    def matrix(rows, cols):
        return [[scalar() for _ in range(cols)] for _ in range(rows)]

    c = scalar()
    doc = {
        "field": field_doc,
        "alphabet": alphabet,
        "interval": {"kind": "linrep", "dim": dim,
                     "init": [scalar() for _ in range(dim)],
                     "letters": {a: matrix(dim, dim) for a in alphabet},
                     "final": [scalar() for _ in range(dim)]},
        # a scalar weight commutes with every letter
        "circular": ({"kind": "trace_of_interval"} if draw(st.booleans()) else
                     {"kind": "tracerep", "dim": cdim,
                      "letters": {a: matrix(cdim, cdim) for a in alphabet},
                      "weight": [[c if i == j else ("0", "0/5")
                                  for j in range(cdim)] for i in range(cdim)]}),
    }

    def spelled(x, which):
        if isinstance(x, tuple):
            return x[which]
        if isinstance(x, dict):
            return {k: spelled(v, which) for k, v in x.items()}
        if isinstance(x, list):
            return [spelled(v, which) for v in x]
        return x

    return spelled(doc, 0), _reordered(spelled(doc, 1))


def _built(t):
    """What a theory is built to, comparable across objects: its field,
    letters and kinds, the matrices of both parts (in lowest terms), its
    invariant triple and its kernel algebra."""
    iv, circ = t.interval, t.circular
    return (t.field, t.alphabet, t.circular_is_trace,
            iv.init, iv.letters, iv.final, circ.letters, circ.weight,
            invariant_triple(t), frobenius_to_json(frobenius_of_K(t.pair_algebra)))


@settings(max_examples=60, deadline=None)
@given(respelled_documents())
def test_equal_content_returns_the_same_theory(docs):
    # a respelled and reordered document is read in full and builds a
    # theory of its own with equal values; an exact repeat gets the one
    # it built back
    doc, respelled = docs
    t = theory_from_json(doc)
    r = theory_from_json(respelled)
    assert r is not t and _built(r) == _built(t)
    assert theory_from_json(copy.deepcopy(doc)) is t
    assert theory_from_json(copy.deepcopy(respelled)) is r
    assert len(universal._theories) <= universal.THEORY_CACHE


def test_different_content_gives_a_different_theory():
    base = theory_from_json(theory_doc())
    assert theory_from_json(theory_doc()) is base
    other_field = dict(theory_doc(), field={"type": "prime", "p": 7})
    other_letter = dict(theory_doc(), alphabet=["b"])
    other_circle = dict(theory_doc(), circular={"kind": "rational1",
                                                "num": ["6"], "den": ["1"]})
    for doc in (other_field, other_letter, other_circle):
        assert theory_from_json(doc) is not base
    # the trace of the interval and the same circle matrices given
    # explicitly are different kinds, so different theories
    trace = theory_from_json(dict(theory_doc(),
                                  circular={"kind": "trace_of_interval"}))
    circ = trace.circular
    explicit = dict(theory_doc(), circular={
        "kind": "tracerep", "dim": circ.dim,
        "letters": {"a": [[QQ.format(x) for x in row]
                          for row in circ.letters[0].data]},
        "weight": [[QQ.format(x) for x in row] for row in circ.weight.data],
    })
    t = theory_from_json(explicit)
    assert t is not trace and t is not base
    assert trace.circular_is_trace and not t.circular_is_trace
    assert t.circular.value((0, 0)) == trace.circular.value((0, 0))


def _scalar_paths(doc, path=()):
    """The path of every scalar string in a theory document's parts."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k not in ("field", "alphabet", "kind"):
                yield from _scalar_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _scalar_paths(v, path + (i,))
    elif isinstance(doc, str):
        yield path


@pytest.mark.parametrize("base", [linrep_doc(f) for f in FIELD_DOCS]
                         + ONE_LETTER_RATIONAL_DOCS,
                         ids=["linrep-QQ", "linrep-F7", "rational1-QQ", "rational1-F7"])
def test_every_scalar_is_part_of_the_content(base):
    # each scalar reaches the built theory: adding 1 to any one of them
    # gives a theory with other matrices or invariants
    t = theory_from_json(base)
    built = _built(t)
    paths = list(_scalar_paths(base))
    assert len(paths) >= 6
    for path in paths:
        doc = _reordered(base)  # a deep copy
        *head, last = path
        node = doc
        for k in head:
            node = node[k]
        node[last] = str(Fr(node[last]) + 1)
        r = theory_from_json(doc)
        assert r is not t, path
        assert _built(r) != built, path


def test_field_override_is_part_of_the_content():
    F7 = PrimeField(7)
    t = theory_from_json(theory_doc(), field_override=F7)
    assert t is not theory_from_json(theory_doc())
    assert theory_from_json(theory_doc(), field_override=PrimeField(7)) is t


@pytest.mark.parametrize("doc", [linrep_doc(FIELD_DOCS[0]), ONE_LETTER_RATIONAL_DOCS[0],
                                 dict(theory_doc(), circular={"kind": "trace_of_interval"})],
                         ids=["linrep", "rational1", "trace_of_interval"])
def test_a_theory_reads_its_state_space_off_the_interval(doc):
    t = theory_from_json(doc)
    assert t.statespace is minimize(t.interval)
    if t.circular_is_trace:
        # the circle data was built from the state space the theory holds
        assert all(c is s for c, s in zip(t.circular.letters, t.statespace.letters))


def test_trace_mode_hit_does_not_minimize(monkeypatch):
    # counts builds of the state space (the private _minimize)
    calls = []
    real_minimize = universal._minimize
    monkeypatch.setattr(universal, "_minimize",
                        lambda rep: calls.append(rep) or real_minimize(rep))
    doc = dict(theory_doc(), circular={"kind": "trace_of_interval"})
    t = theory_from_json(doc)
    assert len(calls) == 1
    assert theory_from_json(doc) is t
    assert theory_from_json(copy.deepcopy(doc)) is t
    assert len(calls) == 1
    # a reordered document is read in full and minimizes to equal values
    r = theory_from_json(_reordered(doc))
    assert len(calls) == 2
    assert r is not t and _built(r) == _built(t)


def _schema_path(doc):
    with pytest.raises(SchemaError) as exc:
        theory_from_json(doc)
    return exc.value.path


def _schema_error(doc):
    with pytest.raises(SchemaError) as exc:
        theory_from_json(doc)
    return exc.value.path, exc.value.message


def _with(doc, part, **changes):
    return dict(doc, **{part: dict(doc[part], **changes)})


@pytest.mark.parametrize("field_doc", FIELD_DOCS, ids=FIELD_IDS)
def test_a_hit_never_skips_validation(field_doc):
    # each bad document differs from a kept one in one place; after the
    # kept ones are hits, every one still fails where and as it did cold
    good = linrep_doc(field_doc)
    rational = dict(ONE_LETTER_RATIONAL_DOCS[0], field=field_doc)
    circle = good["circular"]
    bad = [
        (linrep_doc(field_doc, entry="1e3"), "interval.letters.a[0][0]"),
        (dict(good, alphabet=["a", "a"]), "alphabet"),
        (_with(good, "circular", letters=dict(circle["letters"], b=[["3x"]])),
         "circular.letters.b[0][0]"),
        (_with(rational, "interval", num=["1", "1/0"]), "interval.num[1]"),
        (_with(good, "interval", letters=dict(good["interval"]["letters"],
                                              c=[["1", "0"], ["0", "1"]])),
         "interval.letters.c"),
        (_with(good, "circular", dim=2, weight=[["1", "0"], ["0", "2"]],
               letters={"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]}),
         "circular.weight"),
    ]
    cold = [_schema_error(doc) for doc, _ in bad]
    assert [path for path, _ in cold] == [path for _, path in bad]
    assert "does not commute with letter 0" in cold[-1][1]
    assert not universal._theories
    t, r = theory_from_json(good), theory_from_json(rational)
    assert theory_from_json(good) is t and theory_from_json(rational) is r
    assert [_schema_error(doc) for doc, _ in bad] == cold
    assert theory_from_json(linrep_doc(field_doc)) is t


def _counting(monkeypatch):
    """A list that every field value, matrix, polynomial or rational
    function built from now on appends its kind to; a field value that
    ``_wrap`` makes counts as one "value"."""
    built = []

    def count(kind, f):
        return lambda *a, **k: built.append(kind) or f(*a, **k)

    monkeypatch.setattr(RationalField, "_value", staticmethod(count("value", Fr)))
    monkeypatch.setattr(PrimeField, "_value", count("value", PrimeField._value))
    monkeypatch.setattr(FpValue, "__init__", count("FpValue", FpValue.__init__))
    monkeypatch.setattr(Matrix, "__init__", count("Matrix", Matrix.__init__))
    monkeypatch.setattr(Matrix, "_raw", classmethod(
        lambda cls, *a, f=Matrix._raw: built.append("Matrix") or f(*a)))

    def wrap(F, ints, d, f=exactla._wrap):
        out = f(F, ints, d)
        built.extend(["value"] * len(out))
        return out

    # series and frobenius import _wrap by name
    for module in (exactla, series, frobenius):
        monkeypatch.setattr(module, "_wrap", wrap)
    monkeypatch.setattr(Polynomial, "__init__", count("Polynomial", Polynomial.__init__))
    monkeypatch.setattr(Polynomial, "_of_ints", classmethod(
        lambda cls, *a, f=Polynomial._of_ints: built.append("Polynomial") or f(*a)))
    monkeypatch.setattr(RationalFunction1, "__init__",
                        count("RationalFunction1", RationalFunction1.__init__))
    monkeypatch.setattr(RationalFunction1, "_of_lowest_terms", classmethod(
        lambda cls, *a, f=RationalFunction1._of_lowest_terms:
        built.append("RationalFunction1") or f(*a)))
    return built


HIT_DOCS = ([linrep_doc(f) for f in FIELD_DOCS] + ONE_LETTER_RATIONAL_DOCS
            + [dict(linrep_doc(f), circular={"kind": "trace_of_interval"})
               for f in FIELD_DOCS])


@pytest.mark.parametrize("doc", HIT_DOCS, ids=[
    "linrep-QQ", "linrep-F7", "rational1-QQ", "rational1-F7", "trace-QQ", "trace-F7"])
def test_a_hit_builds_no_field_value_matrix_or_function(monkeypatch, doc):
    t = theory_from_json(doc)
    built = _counting(monkeypatch)
    assert theory_from_json(copy.deepcopy(doc)) is t
    assert built == []
    # the counters see a reordered document read in full, to equal values
    r = theory_from_json(_reordered(doc))
    assert r is not t
    assert "Matrix" in built and "value" not in built
    assert _built(r) == _built(t)


def _times(coeffs, factor):
    """The ascending coefficients of the product of two polynomials."""
    out = [Fr(0)] * (len(coeffs) + len(factor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(factor):
            out[i + j] += Fr(a) * Fr(b)
    return [str(x) for x in out]


RATIONAL1_RESPELLINGS = {
    "common-factor": lambda num, den: (_times(num, ["1", "2"]), _times(den, ["1", "2"])),
    "den0-is-3": lambda num, den: (_times(num, ["3"]), _times(den, ["3"])),
    "den0-is--1/2-with-zeros": lambda num, den: (_times(num, ["-1/2"]) + ["0"],
                                                 _times(den, ["-1/2"]) + ["0/4", "0"]),
}


@pytest.mark.parametrize("respell", RATIONAL1_RESPELLINGS.values(),
                         ids=RATIONAL1_RESPELLINGS.keys())
@pytest.mark.parametrize("part", ["interval", "circular"])
@pytest.mark.parametrize("doc", ONE_LETTER_RATIONAL_DOCS, ids=FIELD_IDS)
def test_equal_rational1_functions_return_the_same_theory(doc, part, respell):
    # num and den written with a common factor, or with den(0) != 1, are
    # the same reduced, normalised function: the respelled document is read
    # in full and builds a theory of its own with equal values
    t = theory_from_json(doc)
    num, den = respell(doc[part]["num"], doc[part]["den"])
    respelled = _with(doc, part, num=num, den=den)
    r = theory_from_json(respelled)
    assert r is not t and _built(r) == _built(t)
    # scaling only the numerator is another function
    other = _with(doc, part, num=_times(doc[part]["num"], ["2"]))
    assert theory_from_json(other) is not t


@pytest.mark.parametrize("doc", ONE_LETTER_RATIONAL_DOCS, ids=FIELD_IDS)
def test_zero_rational1_functions_return_the_same_theory(doc):
    # every spelling of the zero function builds a theory with equal values
    t = theory_from_json(_with(doc, "circular", num=[], den=["1"]))
    for num, den in ((["0"], ["1", "3"]), (["0/2", "0"], ["-1/2"])):
        r = theory_from_json(_with(doc, "circular", num=num, den=den))
        assert r is not t and _built(r) == _built(t)


@pytest.mark.parametrize("field_doc", FIELD_DOCS, ids=FIELD_IDS)
def test_theory_cache_is_bounded(field_doc):
    def doc(i):
        return dict(theory_doc(), field=field_doc, alphabet=[f"x{i}"])

    first, second = theory_from_json(doc(0)), theory_from_json(doc(1))
    # a hit makes the first theory the most recently used, so the next
    # distinct content past the bound drops the second one instead
    assert theory_from_json(doc(0)) is first
    for i in range(2, 2 * universal.THEORY_CACHE):
        theory_from_json(doc(i))
        assert len(universal._theories) <= universal.THEORY_CACHE
        if i == universal.THEORY_CACHE:
            assert theory_from_json(doc(0)) is first
            assert theory_from_json(doc(1)) is not second
    assert len(universal._theories) == universal.THEORY_CACHE
    assert theory_from_json(doc(0)) is not first
