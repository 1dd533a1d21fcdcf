"""Tests for words, representations and one-variable rational series."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.errors import AlphabetMismatch, FieldMismatch, PoleAtZero, SchemaError
from defekt.exactla import QQ, Matrix, Polynomial, PrimeField
from defekt.series import (
    CircularRepresentation,
    CyclicWord,
    LinearRepresentation,
    RationalFunction1,
    canonical_rotation,
    eval_cyclic,
    eval_interval,
    rational_to_rep,
    taylor,
    word_from_json,
    word_to_str,
)

from factories import FIELDS, fractions
from oracles import min_rotation, rational_series

F7 = PrimeField(7)


def rat(num, den=(1,)):
    return RationalFunction1(QQ, Polynomial(QQ, num), Polynomial(QQ, den))


def test_rational_functions_refuse_assignment_and_deletion():
    f = rat([1, 2], [1, -1])
    for name in ("field", "num", "den"):
        held = getattr(f, name)
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
        assert getattr(f, name) is held


def test_canonical_rotation_bab():
    # alphabet a=0, b=1: "bab" canonicalizes to "abb"
    assert canonical_rotation((1, 0, 1)) == (0, 1, 1)
    assert canonical_rotation(()) == ()
    assert canonical_rotation((2,)) == (2,)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=7))
def test_canonical_rotation_matches_bruteforce(w):
    assert canonical_rotation(tuple(w)) == min_rotation(w)


def test_cyclic_word_identifies_rotations():
    assert CyclicWord((1, 0, 1)) == CyclicWord((0, 1, 1)) == CyclicWord((1, 1, 0))
    assert CyclicWord((0, 1)) != CyclicWord((0, 0, 1))
    assert len(CyclicWord((1, 0))) == 2


def test_eval_interval_geometric():
    r = rational_to_rep(rat([1], [1, -2]))  # 1/(1-2T)
    assert r.dim == 1
    assert eval_interval(r, (0, 0, 0)) == 8
    assert eval_interval(r, ()) == 1


def test_rational_to_rep_fibonacci_like():
    z = rat([1, 1], [1, -1, -1])  # (1+T)/(1-T-T^2)
    r = rational_to_rep(z)
    assert r.dim == 2
    got = [eval_interval(r, (0,) * n) for n in range(6)]
    assert got == rational_series([1, 1], [1, -1, -1], 5)
    assert got == [1, 2, 3, 5, 8, 13]


def test_rational_to_rep_polynomial_plus_tail():
    z = rat([3, 1])  # 3 + T
    r = rational_to_rep(z)
    assert r.dim == 2
    assert [eval_interval(r, (0,) * n) for n in range(4)] == [3, 1, 0, 0]


def test_rational_to_rep_dims():
    assert rational_to_rep(rat([0])).dim == 0
    assert rational_to_rep(rat([5])).dim == 1
    assert rational_to_rep(rat([1], [1, -1, 0, 4])).dim == 3
    assert rational_to_rep(rat([0, 0, 1])).dim == 3


def test_taylor_matches_oracle():
    cases = [
        ([1], [1, -2]),
        ([1, 1], [1, -1, -1]),
        ([3, -5], [1, -3, 2]),
        ([0, 0, 7], [2, 1]),
    ]
    for num, den in cases:
        z = rat(num, den)
        assert taylor(z, 8) == rational_series(num, den, 8)


def test_taylor_agrees_with_rep_values():
    z = rat([2, 0, -1], [3, 1, 1])
    r = rational_to_rep(z)
    for n, c in enumerate(taylor(z, 10)):
        assert eval_interval(r, (0,) * n) == c


def test_rational_normalization_and_reduction():
    z = rat([1, 0, -1], [2, -2])  # (1-T^2)/(2-2T) = (1+T)/2
    assert z.den == Polynomial.one(QQ)
    assert z.num == Polynomial(QQ, [Fraction(1, 2), Fraction(1, 2)])
    assert rat([0], [5, 1]).is_zero()
    assert rat([1], [1]) == rat([2], [2])


def reduced_by_plain_euclid(field, num, den):
    """num/den divided by the last nonzero Euclid remainder, which is not
    made monic, then scaled to den(0) = 1."""
    if num.is_zero():
        return num, Polynomial.one(field)
    g, h = num, den
    while not h.is_zero():
        g, h = h, g % h
    num, den = num // g, den // g
    inv = field.one / den.coeff(0)
    return num.scale(inv), den.scale(inv)


@st.composite
def fractions_with_a_common_factor(draw):
    """(field, a*c, b*c) with b(0) and c(0) nonzero, over QQ or F_p."""
    field = draw(st.sampled_from(FIELDS))

    def poly(max_deg, nonzero_at_0):
        c0 = draw(fractions(False).filter(bool) if nonzero_at_0 else fractions(True))
        rest = draw(st.lists(fractions(False), max_size=max_deg))
        return Polynomial(field, [c0] + rest)

    c = poly(2, True)
    return field, poly(3, False) * c, poly(3, True) * c


@settings(max_examples=60, deadline=None)
@given(fractions_with_a_common_factor())
def test_reduction_by_the_monic_gcd_matches_plain_euclid(case):
    field, num, den = case
    z = RationalFunction1(field, num, den)
    assert (z.num, z.den) == reduced_by_plain_euclid(field, num, den)


def test_rational_arithmetic():
    a = rat([1], [1, -1])
    b = rat([1], [1, -2])
    s = a + b
    assert taylor(s, 5) == [a + b for a, b in zip(taylor(a, 5), taylor(b, 5))]
    assert (a - a).is_zero()
    assert taylor(a * b, 4) == rational_series([1], [1, -3, 2], 4)


def test_pole_at_zero():
    with pytest.raises(PoleAtZero):
        rat([1], [0, 1])


def test_circular_rep_rotation_invariance_needs_central_weight():
    letters = (Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]))
    with pytest.raises(FieldMismatch):
        CircularRepresentation(QQ, 2, 2, letters, Matrix(QQ, [[1, 0], [0, 2]]))
    ok = CircularRepresentation(QQ, 2, 2, letters, Matrix(QQ, [[3, 0], [0, 3]]))
    assert eval_cyclic(ok, (0, 1)) == eval_cyclic(ok, (1, 0)) == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(1, 5))
def test_eval_cyclic_rotation_invariant_f7(w, k):
    letters = (Matrix(F7, [[1, 1], [0, 1]]), Matrix(F7, [[2, 0], [1, 3]]))
    rep = CircularRepresentation(F7, 2, 2, letters, Matrix(F7, [[4, 0], [0, 4]]))
    rot = w[k % len(w):] + w[: k % len(w)]
    assert eval_cyclic(rep, tuple(w)) == eval_cyclic(rep, tuple(rot))
    assert eval_cyclic(rep, CyclicWord(tuple(w))) == eval_cyclic(rep, tuple(w))


def test_from_rational_circle_values():
    z = rat([3, -5], [1, -3, 2])
    circ = CircularRepresentation.from_rational(z, 1)
    vals = [eval_cyclic(circ, (0,) * n) for n in range(6)]
    assert vals == taylor(z, 5)
    with pytest.raises(AlphabetMismatch):
        CircularRepresentation.from_rational(z, 2)


def test_from_rational_empty_alphabet():
    circ = CircularRepresentation.from_rational(rat([5]), 0)
    assert eval_cyclic(circ, ()) == 5
    with pytest.raises(AlphabetMismatch):
        CircularRepresentation.from_rational(rat([1], [1, -1]), 0)


def test_alphabet_mismatch_on_bad_letter():
    r = rational_to_rep(rat([1], [1, -2]))
    with pytest.raises(AlphabetMismatch):
        eval_interval(r, (1,))


def test_word_json_roundtrip():
    assert word_from_json(("a", "b"), "ab") == (0, 1)
    assert word_from_json(("a", "b"), ["b", "a"]) == (1, 0)
    assert word_to_str(("a", "b"), (0, 1, 1)) == "abb"
    with pytest.raises(SchemaError):
        word_from_json(("a",), "ax")
