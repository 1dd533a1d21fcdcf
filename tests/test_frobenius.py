"""Tests for the symmetric Frobenius algebra engine."""
import copy
import random
from fractions import Fraction as Fr
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.errors import (
    ClosedComponent,
    DegenerateTrace,
    FieldMismatch,
    InvalidArgument,
    SchemaError,
)
import defekt.frobenius as frobenius_module
from defekt.exactla import Field, FpValue, Matrix, PrimeField, QQ, RationalField
from defekt.frobenius import (
    FrobeniusAlgebra,
    SurfaceComponent,
    SurfaceSpec,
    _commutator_rows,
    beta_map,
    center_basis,
    commutator_space,
    dual_bases,
    element_from_json,
    embedding_obstruction,
    eval_surface,
    eval_surface_by_surgery,
    frobenius_from_json,
    frobenius_to_json,
    hole_element,
    surface_from_json,
    verify,
    window,
)

from defekt.openclosed import _comult_table, check_knowledgeable

from factories import (
    FIELDS,
    change_basis,
    direct_sum,
    fractions,
    group_algebra_cyclic,
    jordan3_block,
    knowledgeable_pair_cyclic,
    knowledgeable_pair_matrix,
    mat2_block,
    nilpotent_block,
    point_block,
    random_element,
    random_invertible,
    random_symmetric_frobenius,
)
from oracles import (
    beta_by_solves,
    center_by_products,
    commutators_by_products,
    hole_by_products,
    is_zero_algebra,
    regular_trace_form_by_products,
    verify_by_products,
    window_by_products,
    zero_el,
)

F7 = PrimeField(7)


# -- products -------------------------------------------------------------------


def reference_left(b, x):
    """Rows of the left-multiplication matrix of x, entry by entry from the
    scalar structure constants."""
    F, n = b.field, b.dim
    return [[sum((x[i, 0] * b.mult[i][j][k] for i in range(n)), F.zero)
             for j in range(n)]
            for k in range(n)]


def reference_mul(b, x, y):
    """x*y as the left-multiplication matrix of x times y, in scalar sums."""
    F, n = b.field, b.dim
    left = reference_left(b, x)
    return b.el([sum((left[k][j] * y[j, 0] for j in range(n)), F.zero)
                 for k in range(n)])


@st.composite
def cubes(draw, nmax=5):
    """An algebra over QQ, F_7 or F_1000003 with arbitrary (mostly
    non-associative) structure constants and trace of denominators 1-6,
    dense or three-quarters zero."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, nmax))
    consts = fractions(draw(st.booleans()))
    mult = [[[field.of(draw(consts)) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]
    trace = [field.of(draw(consts)) for _ in range(n)]
    return FrobeniusAlgebra(field, [f"e{i}" for i in range(n)], mult,
                            [field.zero] * n, trace)


@st.composite
def elements(draw, b):
    return b.el([draw(fractions(draw(st.booleans()))) for _ in range(b.dim)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_left_multiplication_matrix(data):
    b = data.draw(cubes())
    F, n = b.field, b.dim
    x, y = data.draw(elements(b)), data.draw(elements(b))
    prod = b.mul(x, y)
    assert prod == reference_mul(b, x, y)
    gram = b.gram()
    assert gram.data == tuple(
        tuple(sum((b.mult[i][j][k] * b.trace[k] for k in range(n)), F.zero)
              for j in range(n))
        for i in range(n))
    tr = b.trace_of(x)
    assert tr == sum((b.trace[i] * x[i, 0] for i in range(n)), F.zero)
    scalar = type(F.zero)
    assert type(tr) is scalar
    assert all(type(c) is scalar for m in (prod, gram) for c in m.flat())


def test_mul_rejects_malformed_elements():
    B = mat2_block(QQ, Fr(1))
    x = B.el([Fr(1), Fr(2), Fr(3), Fr(4)])
    long_x = Matrix.col_vector(QQ, [Fr(1)] * 5)
    short = Matrix.col_vector(QQ, [Fr(1)] * 3)
    foreign = Matrix.col_vector(F7, [1, 2, 3, 4])
    for a, c in ((long_x, x), (short, x), (foreign, x), (x, short)):
        with pytest.raises(FieldMismatch):
            B.mul(a, c)
    # the window and the trace read their argument the same way
    for a in (long_x, short, foreign):
        with pytest.raises(FieldMismatch):
            window(B, a)
        with pytest.raises(FieldMismatch):
            B.trace_of(a)


def _recast(b, scalar):
    """b with every constant, unit and trace entry passed through scalar."""
    mult = [[[scalar(c) for c in row] for row in plane] for plane in b.mult]
    return FrobeniusAlgebra(b.field, b.names, mult, [scalar(c) for c in b.unit],
                            [scalar(c) for c in b.trace])


def test_int_and_field_value_cubes_agree():
    # constants are read through field.of at construction: plain ints, and
    # over F_p Fractions of a denominator prime to p, give the same algebra
    rng = random.Random(47)
    o = QQ.one
    cases = [(b, [int]) for b in (mat2_block(QQ, Fr(3)), group_algebra_cyclic(QQ, 3),
                                  direct_sum(nilpotent_block(QQ, o, o),
                                             jordan3_block(QQ, o, o, o)))]
    cases += [(b, [lambda c: c.v, lambda c: Fr(2 * c.v % 7, 2)])
              for b in (mat2_block(F7, F7.of(3)), group_algebra_cyclic(F7, 3),
                        random_symmetric_frobenius(rng, F7))]
    for b, scalars in cases:
        x, y = random_element(rng, b), random_element(rng, b)
        for scalar in scalars:
            c = _recast(b, scalar)
            assert c.mult == b.mult
            assert c.mul(x, y) == b.mul(x, y)
            assert verify(c) == verify(b)
            assert c.hole == b.hole


def test_raw_constants_are_read_once_at_construction():
    # 8 is 1 in F_7, so x * 1 = 1 * x and the algebra is commutative;
    # the field-valued copy answers the same, and both write the same JSON
    raw = FrobeniusAlgebra(F7, ["1", "x"], [[[1, 0], [0, 8]], [[0, 1], [0, 0]]],
                           [1, 0], [0, 1])
    valued = _recast(raw, F7.of)
    assert raw.mult == valued.mult and raw.unit == valued.unit
    assert verify(raw).passed and len(center_basis(raw)) == 2
    assert raw.is_commutative() and valued.is_commutative()
    assert frobenius_to_json(raw) == frobenius_to_json(valued)
    assert frobenius_to_json(raw)["mult"][0][1] == ["0", "1"]


@st.composite
def perturbed_algebras(draw):
    """A symmetric Frobenius algebra over QQ or F_7, in a hidden basis
    (dense cube) or as blocks (mostly zero cube), with a few structure
    constants, unit entries and trace entries shifted by fractions of
    denominator 1-3."""
    field = draw(st.sampled_from([QQ, F7]))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        b = random_symmetric_frobenius(rng, field, max_dim=4)
    else:
        o = field.one
        b = draw(st.sampled_from([
            mat2_block(field, o),
            group_algebra_cyclic(field, 3),
            direct_sum(nilpotent_block(field, o, o), jordan3_block(field, o, o, o)),
        ]))
    n = b.dim
    index = st.integers(0, n - 1)

    def shift():
        return field.of(Fr(draw(st.integers(1, 4)), draw(st.integers(1, 3))))

    mult = [[list(row) for row in plane] for plane in b.mult]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = draw(index), draw(index), draw(index)
        mult[i][j][k] += shift()
    unit, trace = list(b.unit), list(b.trace)
    for vec in (unit, trace):
        if draw(st.integers(0, 3)) == 0:
            vec[draw(index)] += shift()
    return FrobeniusAlgebra(field, b.names, mult, unit, trace)


@settings(max_examples=40, deadline=None)
@given(perturbed_algebras())
def test_verify_witness_is_first_failing_triple(b):
    # the whole report, every flag and witness, equals the product route's
    assert verify(b) == verify_by_products(b)


def test_axioms_commutators_and_hole_form_no_products(monkeypatch):
    # verify, the commutators, the hole, the window, the center,
    # commutativity and the regular trace form contract the integer cube
    # directly: no product of elements
    def algebras():
        # F_7[C_7], a dense noncommutative hidden-basis F_7 algebra and a
        # semisimple hidden-basis QQ algebra; built afresh on each call, so
        # that no hole or dual basis is cached
        o, q = F7.one, QQ.one
        blocks = direct_sum(mat2_block(F7, o), jordan3_block(F7, o, o, o))
        semisimple = direct_sum(mat2_block(QQ, q), point_block(QQ, Fr(2)))
        return [group_algebra_cyclic(F7, 7),
                change_basis(blocks, random_invertible(random.Random(53), F7, 7)),
                change_basis(semisimple, random_invertible(random.Random(59), QQ, 5))]

    rng = random.Random(61)
    want = []
    for b in algebras():
        elems = list(b.basis_columns) + [random_element(rng, b)]
        want.append((verify_by_products(b), commutators_by_products(b),
                     hole_by_products(b), elems,
                     [window_by_products(b, e) for e in elems],
                     center_by_products(b),
                     all(b.mul(x, y) == b.mul(y, x) for x in elems for y in elems),
                     beta_map(b), embedding_obstruction(b)))
    fresh = algebras()

    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(FrobeniusAlgebra, "mul", refuse)
    for b, (rep, comms, hole, elems, windows, center, commutative, beta,
            obstruction) in zip(fresh, want):
        assert verify(b) == rep and rep.passed
        assert commutator_space(b) == comms
        assert b.hole == hole
        assert [window(b, e) for e in elems] == windows
        assert center_basis(b) == center
        assert b.is_commutative() == commutative
        assert beta_map(b) == beta
        assert embedding_obstruction(b) == obstruction
    assert fresh[0].is_commutative() and not fresh[1].is_commutative()
    assert [embedding_obstruction(b).status for b in fresh] == [
        "unsupported_characteristic", "unsupported_characteristic", "semisimple"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cube_routes_match_the_product_routes(data):
    # window, center, centrality, commutativity and the regular trace
    # form, also on non-associative, non-unital and non-symmetric algebras
    b = data.draw(st.one_of(cubes(), perturbed_algebras()))
    x = data.draw(elements(b))
    try:
        want = window_by_products(b, x)
    except DegenerateTrace:
        with pytest.raises(DegenerateTrace):
            window(b, x)
    else:
        assert window(b, x) == want
    assert center_basis(b) == center_by_products(b)
    basis = b.basis_columns
    assert (_commutator_rows(b) * x).is_zero() == all(b.mul(x, e) == b.mul(e, x)
                                                      for e in basis)
    assert b.is_commutative() == all(b.mul(u, v) == b.mul(v, u)
                                     for u in basis for v in basis)
    rep = embedding_obstruction(b)
    if b.field.char:
        assert rep.status == "unsupported_characteristic"
    else:
        radical = regular_trace_form_by_products(b).kernel_basis()
        assert rep.status == ("not_semisimple" if radical else "semisimple")
        assert rep.witness == (radical[0] if radical else None)


def test_products_build_no_multiplication_matrix():
    # the structure constants are contracted directly: the algebra has no
    # n x n multiplication matrix to form
    assert not hasattr(FrobeniusAlgebra, "left_mult_matrix")
    rng = random.Random(31)
    F5 = PrimeField(5)
    algebras = [mat2_block(QQ, Fr(1)), group_algebra_cyclic(F5, 5),
                random_symmetric_frobenius(rng, QQ),
                random_symmetric_frobenius(rng, F7)]
    pairs = [knowledgeable_pair_cyclic(F5, F5.parse(2)),
             knowledgeable_pair_matrix(QQ)]
    for b in algebras:
        assert verify(b).passed
        u, v = random_element(rng, b), random_element(rng, b)
        assert window(b, b.mul(u, v)) == window(b, b.mul(v, u))
        s = SurfaceSpec((SurfaceComponent(1, ((u,), (v,))),))
        assert eval_surface(b, s) == eval_surface_by_surgery(b, s)
        assert beta_map(b).kills_commutators
    for pair in pairs:
        assert check_knowledgeable(pair).passed


# -- verification --------------------------------------------------------------


def test_verify_group_algebra():
    F5 = PrimeField(5)
    assert verify(group_algebra_cyclic(F5, 5)).passed


def test_verify_point():
    assert verify(point_block(QQ, Fr(1))).passed


def test_verify_degenerate_trace():
    b = nilpotent_block(QQ, Fr(1), Fr(0))
    rep = verify(b)
    assert rep.associative and rep.unital and rep.symmetric
    assert not rep.nondegenerate
    assert rep.radical_witness == b.basis_el(1)
    with pytest.raises(DegenerateTrace):
        dual_bases(b)


def test_verify_catches_broken_axioms():
    z, o = QQ.zero, QQ.one
    # x*x = 1 but the unit vector says x is the unit: unit law fails
    bad_unit = FrobeniusAlgebra(QQ, ["1", "x"],
                                [[[o, z], [z, o]], [[z, o], [o, z]]],
                                [z, o], [o, z])
    rep = verify(bad_unit)
    assert not rep.unital and rep.unital_witness is not None
    # asymmetric trace on upper-triangular 2x2 matrices
    tri = FrobeniusAlgebra(
        QQ, ["e11", "e12", "e22"],
        [[[o, z, z], [z, o, z], [z, z, z]],
         [[z, z, z], [z, z, z], [z, o, z]],
         [[z, z, z], [z, z, z], [z, z, o]]],
        [o, z, o], [o, o, Fr(2)])
    rep = verify(tri)
    assert not rep.symmetric and rep.symmetric_witness is not None


def test_verify_nonassociative_witness():
    z, o = QQ.zero, QQ.one
    # x*x = y, x*y = 1, y*x = y*y = 0: (xx)x = 0 but x(xx) = 1
    bad = FrobeniusAlgebra(
        QQ, ["1", "x", "y"],
        [[[o, z, z], [z, o, z], [z, z, o]],
         [[z, o, z], [z, z, o], [o, z, z]],
         [[z, z, o], [z, z, z], [z, z, z]]],
        [o, z, z], [z, o, z])
    rep = verify(bad)
    assert not rep.associative
    i, j, k = rep.associative_witness
    ei, ej, ek = bad.basis_el(i), bad.basis_el(j), bad.basis_el(k)
    assert bad.mul(bad.mul(ei, ej), ek) != bad.mul(ei, bad.mul(ej, ek))


# -- dual bases, window, hole -------------------------------------------------


def test_mat2_dual_bases():
    B = mat2_block(QQ, Fr(1))
    xs, ys = dual_bases(B)
    # dual of e_ij is e_ji
    assert ys[0] == B.basis_el(0)
    assert ys[1] == B.basis_el(2)
    assert ys[2] == B.basis_el(1)
    assert ys[3] == B.basis_el(3)
    for i in range(4):
        for j in range(4):
            want = QQ.one if i == j else QQ.zero
            assert B.trace_of(B.mul(xs[i], ys[j])) == want


def test_group_algebra_duals():
    F5 = PrimeField(5)
    C5 = group_algebra_cyclic(F5, 5)
    xs, ys = dual_bases(C5)
    for i in range(5):
        assert ys[i] == C5.basis_el((5 - i) % 5)


def test_dual_bases_repeat():
    B = mat2_block(QQ, Fr(1))
    first = dual_bases(B)
    assert dual_bases(B) == first
    assert hole_element(B) == hole_element(B)
    # a degenerate trace is refused on every call, not only the first
    b = nilpotent_block(QQ, Fr(1), Fr(0))
    for _ in range(2):
        with pytest.raises(DegenerateTrace):
            dual_bases(b)
        with pytest.raises(DegenerateTrace):
            hole_element(b)


def test_gram_is_inverted_once_per_algebra(monkeypatch):
    calls = []
    real = frobenius_module.dual_bases
    monkeypatch.setattr(frobenius_module, "dual_bases",
                        lambda b: calls.append(b) or real(b))
    B = mat2_block(QQ, Fr(1))
    s = SurfaceSpec((SurfaceComponent(1, ((B.basis_el(1),), ())),))
    window(B, B.basis_el(2))
    hole_element(B)
    value = eval_surface(B, s)
    assert calls == [B]
    assert eval_surface_by_surgery(B, s) == value
    assert calls == [B]
    # the basis columns are built once and are the x_i of the dual bases
    assert B.basis_el(2) is B.basis_columns[2]
    assert B.duals[0] is B.basis_columns


def test_dual_rows_are_joined_once_per_algebra(monkeypatch):
    # window, the hole and the comultiplication table read the one held
    # rows of the duals; a degenerate trace still raises on every access
    joins = []
    real = frobenius_module._joined
    monkeypatch.setattr(frobenius_module, "_joined",
                        lambda mats: joins.append(mats) or real(mats))
    B = mat2_block(QQ, Fr(1))
    for e in B.basis_columns:
        window(B, e)
    hole_element(B)
    _comult_table(B)
    assert len(joins) == 1 and B._dual_rows is B._dual_rows
    b = nilpotent_block(QQ, Fr(1), Fr(0))
    for _ in range(2):
        with pytest.raises(DegenerateTrace):
            b._dual_rows
        with pytest.raises(DegenerateTrace):
            window(b, b.unit_el())


def test_gram_is_built_once_per_algebra(monkeypatch):
    # every reader of the Gram matrix (verify, the dual bases, the duality
    # identity of a knowledgeable pair) gets the one held matrix
    built = []
    real = FrobeniusAlgebra._gram.func
    counted = cached_property(lambda b: built.append(b) or real(b))
    counted.__set_name__(FrobeniusAlgebra, "_gram")
    monkeypatch.setattr(FrobeniusAlgebra, "_gram", counted)
    pair = knowledgeable_pair_cyclic(PrimeField(5), 1)
    b, c = pair.open_algebra, pair.closed_algebra
    assert check_knowledgeable(pair).passed
    assert sorted(map(id, built)) == sorted([id(b), id(c)])
    assert b.gram() is b.gram() and c.gram() is c.gram()
    assert len(built) == 2


def test_product_starts_from_its_first_factor(monkeypatch):
    # a word of m >= 1 factors costs m - 1 products and equals the product
    # from the unit; the empty product is the unit, and a lone factor is
    # still checked
    rng = random.Random(73)
    algebras = [random_symmetric_frobenius(rng, F, max_dim=5) for F in FIELDS]
    words = [[random_element(rng, b) for _ in range(3)] for b in algebras]
    want = []
    for b, word in zip(algebras, words):
        acc = b.unit_el()
        for e in word:
            acc = b.mul(acc, e)
        want.append(acc)
    calls = []
    real = FrobeniusAlgebra.mul
    monkeypatch.setattr(FrobeniusAlgebra, "mul",
                        lambda b, x, y: calls.append(x) or real(b, x, y))
    for b, word, w in zip(algebras, words, want):
        calls.clear()
        assert b.product(word) == w
        assert len(calls) == 2 and calls[0] is word[0]
        assert b.product(word[:1]) is word[0]
        assert b.product([]) == b.unit_el() == b.power(word[0], 0)
        assert len(calls) == 2
    B = mat2_block(QQ, Fr(1))
    for bad in (Matrix.col_vector(QQ, [Fr(1)] * 3), Matrix.col_vector(F7, [1, 2, 3, 4])):
        with pytest.raises(FieldMismatch):
            B.product([bad])
        with pytest.raises(FieldMismatch):
            B.power(bad, 1)


def test_mat2_window_is_trace_times_identity():
    B = mat2_block(QQ, Fr(1))
    b = B.el([Fr(1), Fr(2), Fr(3), Fr(4)])
    assert window(B, b) == B.el([Fr(5), Fr(0), Fr(0), Fr(5)])
    assert hole_element(B) == B.el([Fr(2), Fr(0), Fr(0), Fr(2)])


def test_group_algebra_window_vanishes():
    F5 = PrimeField(5)
    C5 = group_algebra_cyclic(F5, 5)
    for i in range(5):
        assert window(C5, C5.basis_el(i)).is_zero()
    assert hole_element(C5).is_zero()


def test_point_window_and_hole():
    K = point_block(QQ, Fr(1))
    assert hole_element(K) == K.unit_el()
    assert window(K, K.unit_el()) == K.unit_el()


def test_dual_round_trip_random():
    rng = random.Random(5)
    for _ in range(6):
        b = random_symmetric_frobenius(rng, QQ)
        xs, ys = dual_bases(b)
        z = random_element(rng, b)
        out = zero_el(b)
        for x, y in zip(xs, ys):
            out = out + x.scale(b.trace_of(b.mul(z, y)))
        assert out == z


def test_window_properties_random():
    rng = random.Random(7)
    fields = [QQ, QQ, PrimeField(7)]
    for field in fields:
        b = random_symmetric_frobenius(rng, field)
        u, v, c = (random_element(rng, b) for _ in range(3))
        assert window(b, b.mul(u, v)) == window(b, b.mul(v, u))
        w = window(b, u)
        assert b.mul(w, c) == b.mul(c, w)
        assert hole_element(b) == window(b, b.unit_el())


def test_dual_pair_swap_identity():
    rng = random.Random(9)
    for _ in range(5):
        b = random_symmetric_frobenius(rng, QQ)
        xs, ys = dual_bases(b)
        fwd = zero_el(b)
        bwd = zero_el(b)
        for x, y in zip(xs, ys):
            fwd = fwd + b.mul(x, y)
            bwd = bwd + b.mul(y, x)
        assert fwd == bwd


# -- center, commutators, beta ------------------------------------------------


def test_mat2_beta():
    B = mat2_block(QQ, Fr(1))
    rep = beta_map(B)
    assert len(rep.commutators) == 3
    assert len(rep.center) == 1
    assert rep.kills_commutators and rep.lands_in_center
    assert len(rep.quotient_reps) == 1
    assert not rep.is_zero


def test_group_algebra_beta_zero():
    F5 = PrimeField(5)
    rep = beta_map(group_algebra_cyclic(F5, 5))
    assert rep.commutators == ()
    assert len(rep.center) == 5
    assert rep.is_zero


def test_point_beta_identity():
    rep = beta_map(point_block(QQ, Fr(1)))
    assert rep.matrix.to_lists() == [["1"]]


# A cube with a nondegenerate trace that fails verify: the window of e_0
# lands in the one-dimensional center, that of e_1 leaves it.
LEAVING_CUBE = [[[0, 0, 0], [0, 1, -1], [0, 0, -1]],
                [[1, -1, 0], [0, -1, 0], [0, 0, 0]],
                [[0, 0, -1], [0, 0, 0], [-1, 0, 1]]]


@pytest.mark.parametrize("field", [QQ, F7])
def test_beta_map_when_a_window_leaves_the_center(field):
    b = FrobeniusAlgebra(field, ["e0", "e1", "e2"], LEAVING_CUBE, [1, 0, 0], [0, 2, 1])
    assert not verify(b).passed
    rep = beta_map(b)
    assert (len(rep.center), rep.quotient_reps) == (1, (0, 1))
    assert not rep.lands_in_center
    # the leaving window's column is zero, the landing one's is not
    assert rep.matrix.column(1) == (field.zero,) and rep.matrix[0, 0]
    assert (rep.matrix, rep.lands_in_center) == beta_by_solves(b, rep.center,
                                                              rep.quotient_reps)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(1, 3), st.data())
def test_beta_map_matches_one_solve_per_representative(field, n, data):
    # arbitrary cubes and traces, so windows land or leave the center
    entry = st.integers(-1, 1)
    cube = data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=n, max_size=n), min_size=n, max_size=n))
    trace = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    b = FrobeniusAlgebra(field, [f"e{i}" for i in range(n)], cube, [1] + [0] * (n - 1), trace)
    try:
        rep = beta_map(b)
    except DegenerateTrace:
        return
    assert (rep.matrix, rep.lands_in_center) == beta_by_solves(b, rep.center,
                                                              rep.quotient_reps)


def test_center_and_commutators_random():
    rng = random.Random(13)
    b = random_symmetric_frobenius(rng, QQ)
    for c in center_basis(b):
        for i in range(b.dim):
            e = b.basis_el(i)
            assert b.mul(c, e) == b.mul(e, c)
    for v in commutator_space(b):
        assert window(b, v).is_zero()


# -- surfaces -----------------------------------------------------------------


def test_disk_evaluates_to_trace():
    B = mat2_block(QQ, Fr(1))
    a = B.el([Fr(2), Fr(0), Fr(1), Fr(3)])
    s = SurfaceSpec((SurfaceComponent(0, ((a,),)),))
    assert eval_surface(B, s) == Fr(5)
    assert eval_surface_by_surgery(B, s) == Fr(5)


def test_group_algebra_surface_table():
    F5 = PrimeField(5)
    C5 = group_algebra_cyclic(F5, 5)
    one = ()
    assert eval_surface(C5, SurfaceSpec((SurfaceComponent(0, (one,)),))) == F5.one
    for g in (1, 2):
        for m in (1, 2):
            s = SurfaceSpec((SurfaceComponent(g, (one,) * m),))
            assert eval_surface(C5, s) == F5.zero


def test_two_boundary_sphere_is_window_pairing():
    rng = random.Random(17)
    b = random_symmetric_frobenius(rng, QQ)
    u, v = random_element(rng, b), random_element(rng, b)
    s = SurfaceSpec((SurfaceComponent(0, ((u,), (v,))),))
    assert eval_surface(b, s) == b.trace_of(b.mul(u, window(b, v)))
    assert eval_surface_by_surgery(b, s) == eval_surface(b, s)


def test_surface_invariances():
    rng = random.Random(19)
    b = random_symmetric_frobenius(rng, QQ)
    w1 = tuple(random_element(rng, b) for _ in range(3))
    w2 = tuple(random_element(rng, b) for _ in range(2))
    base = eval_surface(b, SurfaceSpec((SurfaceComponent(1, (w1, w2)),)))
    rotated = w1[1:] + w1[:1]
    assert eval_surface(
        b, SurfaceSpec((SurfaceComponent(1, (rotated, w2)),))) == base
    assert eval_surface(
        b, SurfaceSpec((SurfaceComponent(1, (w2, w1)),))) == base


def test_surgery_matches_closed_form_grid():
    rng = random.Random(23)
    for field in (QQ, PrimeField(7)):
        b = random_symmetric_frobenius(rng, field)
        for g in range(3):
            for m in range(1, 4):
                words = tuple(
                    tuple(random_element(rng, b)
                          for _ in range(rng.randint(0, 2)))
                    for _ in range(m)
                )
                s = SurfaceSpec((SurfaceComponent(g, words),))
                assert eval_surface(b, s) == eval_surface_by_surgery(b, s)


def test_surface_multiplicative_over_components():
    B = mat2_block(QQ, Fr(1))
    a = B.el([Fr(1), Fr(0), Fr(0), Fr(2)])
    one_comp = SurfaceSpec((SurfaceComponent(1, ((a,),)),))
    two_comp = SurfaceSpec((
        SurfaceComponent(1, ((a,),)),
        SurfaceComponent(1, ((a,),)),
    ))
    v = eval_surface(B, one_comp)
    assert eval_surface(B, two_comp) == v * v


def test_closed_component_rejected():
    B = mat2_block(QQ, Fr(1))
    with pytest.raises(ClosedComponent):
        eval_surface(B, SurfaceSpec((SurfaceComponent(2, ()),)))
    with pytest.raises(ClosedComponent):
        eval_surface_by_surgery(B, SurfaceSpec((SurfaceComponent(0, ()),)))


# -- embedding obstruction -----------------------------------------------------


def test_nilpotent_obstruction():
    for r in (Fr(0), Fr(1), Fr(-2)):
        b = nilpotent_block(QQ, r, Fr(1))
        rep = embedding_obstruction(b)
        assert rep.status == "not_semisimple"
        assert rep.witness is not None and not rep.witness.is_zero()
        assert b.power(rep.witness, rep.witness_nilpotency).is_zero()


def test_mat2_semisimple():
    rep = embedding_obstruction(mat2_block(QQ, Fr(1)))
    assert rep.status == "semisimple"
    assert rep.trace_of_unit == Fr(2)


def test_point_semisimple():
    assert embedding_obstruction(point_block(QQ, Fr(1))).status == "semisimple"


def test_obstruction_char_p_unsupported():
    F5 = PrimeField(5)
    rep = embedding_obstruction(group_algebra_cyclic(F5, 5))
    assert rep.status == "unsupported_characteristic"


# -- JSON ----------------------------------------------------------------------


def test_json_round_trip():
    B = mat2_block(QQ, Fr(3, 2))
    doc = frobenius_to_json(B)
    B2 = frobenius_from_json(QQ, doc)
    assert B2.mult == B.mult
    assert B2.unit == B.unit
    assert B2.trace == B.trace
    assert B2.names == B.names


def _respell(rng, field, c):
    """A JSON spelling of the field value c: an int where c has one, an
    unreduced fraction, a residue >= p or a negative one, or a signed zero."""
    if field.char:
        p, q, k = field.char, rng.randint(1, 5), rng.randint(-2, 2)
        num = c.v * q + k * p
        return rng.choice([c.v + k * p, str(c.v + k * p), f"{num}/{q}",
                           f"{num * p}/{q * p}"])
    a, b, k = c.numerator, c.denominator, rng.randint(2, 4)
    spellings = [f"{a * k}/{b * k}", f"{a}/{b}" if a < 0 else f"+{a}/{b}"]
    if b == 1:
        spellings += [a, f"+{a}" if a >= 0 else str(a)]
    if a == 0:
        spellings += ["-0", "-0/3", "+0"]
    return rng.choice(spellings)


@settings(max_examples=40, deadline=None)
@given(st.one_of(perturbed_algebras(),
                 st.builds(lambda f, seed: random_symmetric_frobenius(random.Random(seed), f),
                           st.sampled_from(FIELDS), st.integers(0, 2 ** 16))),
       st.randoms(use_true_random=False))
def test_respelled_documents_read_to_the_constructors_cube(b, rng):
    F = b.field
    doc = frobenius_to_json(b)
    doc["mult"] = [[[_respell(rng, F, c) for c in row] for row in plane]
                   for plane in b.mult]
    doc["unit"] = [_respell(rng, F, c) for c in b.unit]
    doc["trace"] = [_respell(rng, F, c) for c in b.trace]
    c = frobenius_from_json(F, doc)
    assert (c._cube, c._trace, c.unit_el()) == (b._cube, b._trace, b.unit_el())
    assert (c.mult, c.unit, c.trace) == (b.mult, b.unit, b.trace)
    assert verify(c) == verify(b)
    assert frobenius_to_json(c) == frobenius_to_json(b)


def test_algebra_documents_read_no_scalar_object_per_constant(monkeypatch):
    # a dim-n document costs at most n parses or field.of calls for each of
    # its unit and trace, and none for its n^3 structure constants
    rng = random.Random(67)
    docs = [frobenius_to_json(random_symmetric_frobenius(rng, F, max_dim=6))
            for F in FIELDS for _ in range(3)]
    calls = {"scalars": 0, "residues": 0}

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(Field, "parse", counted("scalars", Field.parse))
    for cls in (RationalField, PrimeField):
        monkeypatch.setattr(cls, "of", counted("scalars", cls.of))
    monkeypatch.setattr(FpValue, "__init__", counted("residues", FpValue.__init__))
    for doc, F in zip(docs, [F for F in FIELDS for _ in range(3)]):
        calls.update(scalars=0, residues=0)
        b = frobenius_from_json(F, doc)
        assert calls["scalars"] <= 2 * b.dim and calls["residues"] <= 2 * b.dim
    assert max(len(doc["mult"]) for doc in docs) >= 4


def test_json_schema_errors():
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(QQ, {"dim": "2"})
    assert exc.value.path == "$.dim"
    doc = frobenius_to_json(point_block(QQ, Fr(1)))
    doc["mult"] = [[["oops"]]]
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(QQ, doc)
    assert exc.value.path.startswith("$.mult[0][0]")
    doc = frobenius_to_json(point_block(QQ, Fr(1)))
    doc["trace"] = ["1", "2"]
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(QQ, doc)
    assert exc.value.path == "$.trace"
    # a huge dim is refused by its mult before any default names are built
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(QQ, {"dim": 10**12, "mult": []})
    assert exc.value.path == "$.mult"
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(QQ, {"dim": 10**12, "basis": ["e0"], "mult": []})
    assert exc.value.path == "$.basis"


# -- algebra cache ----------------------------------------------------------------

CACHE_FIELDS = [QQ, F7]


def cache_doc(F):
    """mat2 with trace 1/2 beside a point with trace 3, with the default
    basis names and the trace spelled "1/2" and "3" over every field."""
    doc = frobenius_to_json(direct_sum(mat2_block(F, F.parse("1/2")), point_block(F, F.of(3))))
    del doc["basis"]
    doc["trace"] = ["1/2", "0", "0", "1/2", "3"]
    return doc


@pytest.mark.parametrize("F", CACHE_FIELDS, ids=str)
def test_equal_content_returns_the_same_algebra(F):
    # a document respelled, reordered or with its default basis named is
    # read in full and builds an algebra of its own with equal values; an
    # exact repeat gets the one it built back
    doc = cache_doc(F)
    b = frobenius_from_json(F, doc)
    same = [
        dict(reversed(doc.items())),
        dict(doc, trace=["2/4", 0, "-0", "2/4", 3]),
        dict(doc, mult=[[[int(c) for c in row] for row in plane] for plane in doc["mult"]]),
        dict(doc, basis=None),
        dict(doc, basis=[f"e{i}" for i in range(5)]),
    ]
    for other in same:
        c = frobenius_from_json(F, other)
        assert c is not b and frobenius_to_json(c) == frobenius_to_json(b)
        assert frobenius_from_json(F, copy.deepcopy(other)) is c
    # the field is compared by ==
    assert frobenius_from_json(PrimeField(7) if F.char else RationalField(),
                               copy.deepcopy(doc)) is b
    changed = [
        (F, dict(doc, basis=["a", "b", "c", "d", "e"])),
        (PrimeField(11) if F.char else F7, doc),
        (F, dict(doc, unit=["1", "0", "0", "1", "0"])),
        (F, dict(doc, trace=["1/2", "0", "0", "1/2", "2"])),
    ]
    for G, other in changed:
        c = frobenius_from_json(G, other)
        assert c is not b and frobenius_from_json(G, other) is c
    assert frobenius_from_json(F, doc) is b


@pytest.mark.parametrize("F", CACHE_FIELDS, ids=str)
def test_repeated_parses_invert_the_gram_matrix_once(F, monkeypatch):
    calls = []
    real = frobenius_module.dual_bases
    monkeypatch.setattr(frobenius_module, "dual_bases",
                        lambda b: calls.append(b) or real(b))
    doc = cache_doc(F)
    for _ in range(3):
        b = frobenius_from_json(F, doc)
        hole_element(b)
        window(b, b.basis_el(1))
    assert calls == [b]


@pytest.mark.parametrize("F", CACHE_FIELDS, ids=str)
def test_algebra_cache_is_bounded(F):
    def doc(i):
        return dict(cache_doc(F), basis=[f"x{i}_{k}" for k in range(5)])

    bound = frobenius_module.ALGEBRA_CACHE
    first, second = frobenius_from_json(F, doc(0)), frobenius_from_json(F, doc(1))
    # a hit makes the first algebra the most recently used, so the next
    # distinct content past the bound drops the second one instead
    assert frobenius_from_json(F, doc(0)) is first
    for i in range(2, bound + 1):
        frobenius_from_json(F, doc(i))
        assert len(frobenius_module._algebras) <= bound
    assert len(frobenius_module._algebras) == bound
    assert frobenius_from_json(F, doc(0)) is first
    assert frobenius_from_json(F, doc(1)) is not second
    for i in range(bound + 1, 2 * bound):
        frobenius_from_json(F, doc(i))
    assert len(frobenius_module._algebras) == bound
    assert frobenius_from_json(F, doc(0)) is not first


def _schema_error(F, doc):
    with pytest.raises(SchemaError) as exc:
        frobenius_from_json(F, doc)
    return exc.value.path, str(exc.value)


@pytest.mark.parametrize("F", CACHE_FIELDS, ids=str)
def test_an_algebra_hit_never_skips_validation(F):
    # each bad document differs from the kept one in one place; after the
    # kept one is a hit, every one still fails where and as it did cold
    good = cache_doc(F)
    mult = [[list(row) for row in plane] for plane in good["mult"]]
    mult[1][2][3] = "1e3"
    bad = [
        ([good], "$"),
        (dict(good, dim="5"), "$.dim"),
        (dict(good, dim=4), "$.mult"),
        (dict(good, basis=["e0", "e1"]), "$.basis"),
        (dict(good, mult=mult), "$.mult[1][2][3]"),
        (dict(good, mult=good["mult"][:4]), "$.mult"),
        (dict(good, unit=["1", "0", "0", "1"]), "$.unit"),
        (dict(good, trace=["1/2", "0", "0", "1/0", "3"]), "$.trace[3]"),
        ({k: v for k, v in good.items() if k != "trace"}, "$.trace"),
    ]
    cold = [_schema_error(F, doc) for doc, _ in bad]
    assert [path for path, _ in cold] == [path for _, path in bad]
    b = frobenius_from_json(F, good)
    assert frobenius_from_json(F, cache_doc(F)) is b
    assert [_schema_error(F, doc) for doc, _ in bad] == cold
    assert frobenius_from_json(F, good) is b


@pytest.mark.parametrize("F", CACHE_FIELDS, ids=str)
def test_a_degenerate_algebra_raises_on_every_hit(F):
    doc = frobenius_to_json(nilpotent_block(F, F.one, F.zero))
    first = frobenius_from_json(F, doc)
    for _ in range(3):
        b = frobenius_from_json(F, doc)
        assert b is first and not verify(b).nondegenerate
        for f in (dual_bases, hole_element, lambda b: window(b, b.basis_el(1))):
            with pytest.raises(DegenerateTrace):
                f(b)


def test_surface_json():
    B = mat2_block(QQ, Fr(1))
    doc = {
        "components": [
            {"genus": 1, "boundaries": [[["1", "0", "0", "1"]], []]},
        ]
    }
    s = surface_from_json(B, doc)
    assert s.components[0].genus == 1
    assert len(s.components[0].boundaries) == 2
    assert eval_surface(B, s) == eval_surface_by_surgery(B, s)
    with pytest.raises(SchemaError) as exc:
        surface_from_json(B, {"components": [{"genus": -1, "boundaries": []}]})
    assert exc.value.path == "$.components[0].genus"


def test_surface_json_bounds_the_genus():
    B = mat2_block(QQ, Fr(1))
    top = frobenius_module.GENUS_BOUND
    comps = [{"genus": top, "boundaries": [[["1", "0", "0", "1"]]]}]
    s = surface_from_json(B, {"components": comps})
    assert eval_surface(B, s) == B.trace_of(B.power(hole_element(B), top))
    comps.append({"genus": top + 1, "boundaries": [[]]})
    with pytest.raises(SchemaError) as exc:
        surface_from_json(B, {"components": comps})
    assert exc.value.path == "$.components[1].genus"


def test_power_refuses_negative_exponents():
    B = mat2_block(QQ, Fr(2))
    x = B.el([Fr(1), Fr(0), Fr(0), Fr(3)])
    assert B.power(x, 0) == B.unit_el()
    assert B.power(x, 2) == B.mul(x, x)
    with pytest.raises(InvalidArgument):
        B.power(x, -1)


def test_element_from_json_length_check():
    B = mat2_block(QQ, Fr(1))
    with pytest.raises(SchemaError):
        element_from_json(B, ["1", "0"], "$.elem")


def test_zero_algebra():
    zero = FrobeniusAlgebra(QQ, (), (), (), ())
    assert is_zero_algebra(zero)
    assert verify(zero).passed
    assert hole_element(zero).rows == 0
