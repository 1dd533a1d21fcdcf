"""Tests for the universal module: minimization, the pair state space, its
ideals, and the kernel Frobenius algebra."""
from fractions import Fraction as Fr

import pytest

from defekt import universal
from defekt.diagrams import state_space_dim
from defekt.errors import DefektError, FieldMismatch, SchemaError
from defekt.exactla import Matrix, PrimeField, QQ
from defekt.frobenius import verify
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
    theory_corpus,
    two_letter_theory,
    zero_interval_theory,
    _rat,
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
    a = ss.action[0]
    assert (a * a).is_zero()
    assert ss.pairing_matrix().to_lists() == [["3", "1"], ["1", "0"]]


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


def test_minimize_pairing_nondegenerate():
    for _, t in theory_corpus():
        ss = minimize(t.interval)
        if ss.dim:
            assert ss.pairing_matrix().rank() == ss.dim
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
    assert pa.from_K_coords(w) == pa.one_K
    full = pa.from_K_coords(w)
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
    assert frobenius_of_K(build_pair_algebra(t)).is_zero_algebra


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
        assert pa.from_K_coords(pw) == pa.one_K
        assert trace_K(pa, pw) == Fr(2)


def test_ex2_skein_relation():
    # a^2 = 3a - 2 in the arc subalgebra (t = 1)
    pa = build_pair_algebra(ex2_theory())
    lhs = pa.arc_class((0, 0))
    rhs = pa.arc_class((0,)).scale(Fr(3)) - pa.arc_class(()).scale(Fr(2))
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
    assert frobenius_of_K(pa).is_zero_algebra
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
            phi, _, y = pa.triple_of(pa.from_K_coords(z))
            assert (phi + y).is_zero(), name


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
        kk = pa.from_K_coords(pa.to_K_coords(pa.one_K)) if pa.K_dim else None
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
        assert pa.closure_value(pa.arc_class(w)) == t.circular.value(w)


def test_closure_functional_matches_matrix_products():
    # the closure of a spanning triple against an arc word, read off its
    # class, equals trace(D*rho*rho_w) + trace(phi_w*y) multiplied out
    fields = set()
    for name, t in theory_corpus():
        pa = build_pair_algebra(t)
        fields.add(pa.field)
        D = pa.circ.weight
        for w in pa.arc_words:
            phi_w, rho_w = pa.statespace.act(w), pa.circ.act(w)
            for phi, rho, y in pa._gens:
                want = (D * rho * rho_w).trace() + (phi_w * y).trace()
                got = pa.closure_value(pa.coords((phi, rho, y)), w)
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
            assert pa.to_K_coords(pa.from_K_coords(e)) == e, name
        if pa.k > 0:
            # the unit acts by the identity on A(+), so it is not in K
            with pytest.raises(DefektError):
                pa.to_K_coords(pa.unit)


def trace_K_by_triple(pa, x):
    """Closure trace of a K element read off its whole spanning triple."""
    _, rho, y = pa.triple_of(pa.from_K_coords(x))
    return (pa.circ.weight * rho).trace() + y.trace()


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
    calls = {"minimize": 0, "pair_algebra": 0}
    real_minimize = universal.minimize
    real_init = universal.PairAlgebra.__init__

    def counted_minimize(rep):
        calls["minimize"] += 1
        return real_minimize(rep)

    def counted_init(self, theory):
        calls["pair_algebra"] += 1
        real_init(self, theory)

    monkeypatch.setattr(universal, "minimize", counted_minimize)
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
