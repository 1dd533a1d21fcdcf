"""Tests for the one-variable pipeline."""
import random
from fractions import Fraction as Fr

import pytest

from defekt import onevar
from defekt.errors import DefektError
from defekt.exactla import Polynomial, PrimeField, QQ
from defekt.onevar import (
    analysis_to_json,
    analyze,
    cross_check,
    g_of,
    trace_series_1var,
)
from defekt.series import RationalFunction1

from factories import _rat
from oracles import companion_trace_powers


def poly(field, coeffs):
    return Polynomial(field, [field.parse(c) for c in coeffs])


def random_rational(rng, field, max_deg=3):
    while True:
        num = [rng.randint(-3, 3) for _ in range(rng.randint(0, max_deg) + 1)]
        den = [1] + [rng.randint(-2, 2) for _ in range(rng.randint(0, max_deg))]
        if field.char:
            num = [x % field.char for x in num]
            den = [1] + [x % field.char for x in den[1:]]
        try:
            return _rat(field, [str(x) for x in num], [str(x) for x in den])
        except Exception:
            continue


# -- g_of ----------------------------------------------------------------------


def test_g_of_geometric():
    assert g_of(_rat(QQ, ["1"], ["1", "-2"])) == poly(QQ, ["-2", "1"])


def test_g_of_polynomial_dot():
    assert g_of(_rat(QQ, ["3", "1"], ["1"])) == poly(QQ, ["0", "0", "1"])


def test_g_of_fibonacci():
    got = g_of(_rat(QQ, ["1", "1"], ["1", "-1", "-1"]))
    assert got == poly(QQ, ["-1", "-1", "1"])


def test_g_of_zero():
    assert g_of(_rat(QQ, ["0"], ["1"])).deg == 0


def test_g_of_degree_formula():
    rng = random.Random(3)
    for _ in range(30):
        z = random_rational(rng, QQ)
        n, m = z.num.deg, z.den.deg
        assert g_of(z).deg == m + max(0, n - m + 1)
        assert g_of(z).leading() == QQ.one


# -- trace series ---------------------------------------------------------------


def test_trace_series_geometric_cube():
    den = poly(QQ, ["2", "-1"])
    z = RationalFunction1(QQ, poly(QQ, ["1"]), den * den * den)
    tr = trace_series_1var(z)
    assert tr == _rat(QQ, ["3"], ["1", "-1/2"])
    got = tr.taylor(10)
    for m in range(11):
        assert got[m] == Fr(3, 2**m)


def test_trace_series_polynomial():
    tr = trace_series_1var(_rat(QQ, ["1", "2", "5"], ["1"]))
    assert tr == _rat(QQ, ["3"], ["1"])


def test_trace_series_nilpotent():
    tr = trace_series_1var(_rat(QQ, ["3", "1"], ["1"]))
    assert tr == _rat(QQ, ["2"], ["1"])


def test_trace_constant_term_is_degree():
    rng = random.Random(5)
    for _ in range(20):
        z = random_rational(rng, QQ)
        tr = trace_series_1var(z)
        assert tr.taylor(0)[0] == QQ.parse(g_of(z).deg)


def test_trace_series_matches_companion_powers():
    rng = random.Random(7)
    for _ in range(10):
        z = random_rational(rng, QQ)
        g = g_of(z)
        seq = companion_trace_powers([Fr(c) for c in g.to_list()], 15)
        got = trace_series_1var(z).taylor(15)
        assert [Fr(x) for x in got] == seq


def test_trace_series_improper_fraction():
    # deg num exceeds deg den; the logarithmic derivative route still works
    z = _rat(QQ, ["1", "0", "0", "1"], ["1", "-1"])
    g = g_of(z)
    assert g.deg == 4
    tr = trace_series_1var(z)
    assert tr.taylor(0)[0] == Fr(4)
    rep = cross_check(z, _rat(QQ, ["1"], ["1", "-1"]), 8)
    assert rep.passed


# -- analyze --------------------------------------------------------------------


def test_analyze_ex2():
    zi = _rat(QQ, ["1"], ["1", "-2"])
    zc = _rat(QQ, ["2"], ["1", "-1"]) + zi
    a = analyze(zi, zc)
    assert a.g_interval == poly(QQ, ["-2", "1"])
    assert a.g_circular == poly(QQ, ["2", "-3", "1"])
    assert a.g_alpha == poly(QQ, ["2", "-3", "1"])
    assert a.z_circ_minus_trace == _rat(QQ, ["2"], ["1", "-1"])
    assert a.g_circ_interval == poly(QQ, ["-1", "1"])
    assert a.dims == (1, 2, 1)


def test_analyze_ex3():
    a = analyze(_rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["5"], ["1"]))
    assert a.g_interval == poly(QQ, ["0", "0", "1"])
    assert a.g_circular == poly(QQ, ["0", "1"])
    assert a.g_alpha == poly(QQ, ["0", "0", "1"])
    assert a.z_circ_minus_trace == _rat(QQ, ["3"], ["1"])
    assert a.g_circ_interval == poly(QQ, ["0", "1"])
    assert a.dims == (2, 2, 1)


def test_analyze_finds_each_characteristic_polynomial_once(monkeypatch):
    # g_I, g_circ and g of Z_circ - Z^tr: the trace series is built from
    # the g_I already found, and equals trace_series_1var
    calls = []
    real = onevar.g_of

    def counted(z):
        calls.append(z)
        return real(z)

    zi = _rat(QQ, ["1"], ["1", "-2"])
    zc = _rat(QQ, ["2"], ["1", "-1"]) + zi
    monkeypatch.setattr(onevar, "g_of", counted)
    a = analyze(zi, zc)
    assert len(calls) == 3
    assert a.z_trace == trace_series_1var(zi)


def test_analyze_ex3_tqft():
    a = analyze(_rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["2"], ["1"]))
    assert a.z_circ_minus_trace.is_zero()
    assert a.dims == (2, 2, 0)


def test_divisibility_invariant():
    rng = random.Random(11)
    for field in (QQ, PrimeField(7)):
        for _ in range(25):
            zi = random_rational(rng, field)
            zc = random_rational(rng, field)
            a = analyze(zi, zc)
            assert a.g_circ_interval.divides(a.g_alpha)


def test_analysis_json_shape():
    a = analyze(_rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["5"], ["1"]))
    doc = analysis_to_json(a)
    assert doc["dims"] == {"A_plus": 2, "U": 2, "K": 1}
    assert doc["g_interval"] == ["0", "0", "1"]
    assert doc["z_circ_minus_trace"] == {"num": ["3"], "den": ["1"]}


# -- cross check ----------------------------------------------------------------


def test_cross_check_ex2():
    zi = _rat(QQ, ["1"], ["1", "-2"])
    zc = _rat(QQ, ["2"], ["1", "-1"]) + zi
    rep = cross_check(zi, zc, 8)
    assert rep.passed
    assert rep.dims_onevar == rep.dims_universal == (1, 2, 1)


def test_cross_check_ex3():
    rep = cross_check(_rat(QQ, ["3", "1"], ["1"]), _rat(QQ, ["5"], ["1"]), 8)
    assert rep.passed
    assert rep.dims_onevar == (2, 2, 1)


def test_cross_check_rejects_negative_depth():
    zi = _rat(QQ, ["1"], ["1", "-2"])
    with pytest.raises(DefektError, match="negative"):
        cross_check(zi, _rat(QQ, ["1"], ["1"]), -3)
    assert cross_check(zi, _rat(QQ, ["1"], ["1"]), 0).depth == 0


def test_cross_check_random_small():
    rng = random.Random(13)
    for field in (QQ, PrimeField(7)):
        for _ in range(5):
            zi = random_rational(rng, field, max_deg=2)
            zc = random_rational(rng, field, max_deg=2)
            rep = cross_check(zi, zc, 6)
            assert rep.passed, rep.counterexample
