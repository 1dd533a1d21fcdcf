"""Tests for the symmetric Frobenius algebra engine."""
import itertools
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.errors import (
    ClosedComponent,
    DegenerateTrace,
    FieldMismatch,
    SchemaError,
)
from defekt.exactla import Matrix, PrimeField, QQ
from defekt.frobenius import (
    FrobeniusAlgebra,
    SurfaceComponent,
    SurfaceSpec,
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

from defekt.openclosed import check_knowledgeable

from factories import (
    direct_sum,
    entries,
    group_algebra_cyclic,
    jordan3_block,
    knowledgeable_pair_cyclic,
    knowledgeable_pair_matrix,
    mat2_block,
    nilpotent_block,
    point_block,
    random_element,
    random_symmetric_frobenius,
)

F7 = PrimeField(7)


# -- products -------------------------------------------------------------------


def reference_mul(b, x, y):
    """x*y as the left-multiplication matrix of x, built entry by entry from
    the structure constants, times y."""
    F, n = b.field, b.dim
    left = Matrix(F, [
        [sum((x[i, 0] * b.mult[i][j][k] for i in range(n)), F.zero)
         for j in range(n)]
        for k in range(n)
    ], cols=n)
    return left * y


@st.composite
def cubes(draw, nmax=5):
    """An algebra over QQ or F_7 with arbitrary (mostly non-associative)
    structure constants, dense or three-quarters zero."""
    field = draw(st.sampled_from([QQ, F7]))
    n = draw(st.integers(0, nmax))
    sparse = draw(st.booleans())
    mult = [[[field.of(draw(entries(sparse))) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]
    zeros = [field.zero] * n
    return FrobeniusAlgebra(field, [f"e{i}" for i in range(n)], mult,
                            zeros, zeros)


@st.composite
def elements(draw, b):
    return b.el([draw(entries(draw(st.booleans()))) for _ in range(b.dim)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_left_multiplication_matrix(data):
    b = data.draw(cubes())
    x, y = data.draw(elements(b)), data.draw(elements(b))
    prod = b.mul(x, y)
    assert prod == reference_mul(b, x, y)
    assert all(type(c) is type(b.field.zero) for c in prod.flat())


def test_mul_rejects_malformed_elements():
    B = mat2_block(QQ, Fr(1))
    x = B.el([Fr(1), Fr(2), Fr(3), Fr(4)])
    long_x = Matrix.col_vector(QQ, [Fr(1)] * 5)
    short = Matrix.col_vector(QQ, [Fr(1)] * 3)
    foreign = Matrix.col_vector(F7, [1, 2, 3, 4])
    for a, c in ((long_x, x), (short, x), (foreign, x), (x, short)):
        with pytest.raises(FieldMismatch):
            B.mul(a, c)


def first_nonassociative(b):
    """The lexicographically first (i, j, k) with (e_i e_j) e_k !=
    e_i (e_j e_k), by the reference product; None when there is none."""
    e = [b.basis_el(i) for i in range(b.dim)]
    m = reference_mul
    for i, j, k in itertools.product(range(b.dim), repeat=3):
        if m(b, m(b, e[i], e[j]), e[k]) != m(b, e[i], m(b, e[j], e[k])):
            return (i, j, k)
    return None


@st.composite
def perturbed_algebras(draw):
    """A symmetric Frobenius algebra over QQ or F_7, in a hidden basis
    (dense cube) or as blocks (mostly zero cube), with a few structure
    constants shifted."""
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
    mult = [[list(row) for row in plane] for plane in b.mult]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        mult[i][j][k] = mult[i][j][k] + field.of(draw(st.integers(1, 4)))
    return FrobeniusAlgebra(field, b.names, mult, b.unit, b.trace)


@settings(max_examples=40, deadline=None)
@given(perturbed_algebras())
def test_verify_witness_is_first_failing_triple(b):
    rep = verify(b)
    want = first_nonassociative(b)
    assert rep.associative_witness == want
    assert rep.associative == (want is None)


def test_products_build_no_multiplication_matrix(monkeypatch):
    # the structure constants are contracted directly; no n x n matrix is
    # formed per product
    rng = random.Random(31)
    F5 = PrimeField(5)
    algebras = [mat2_block(QQ, Fr(1)), group_algebra_cyclic(F5, 5),
                random_symmetric_frobenius(rng, QQ),
                random_symmetric_frobenius(rng, F7)]
    pairs = [knowledgeable_pair_cyclic(F5, F5.parse(2)),
             knowledgeable_pair_matrix(QQ)]

    def refuse(self, x):
        raise AssertionError("left_mult_matrix called")

    monkeypatch.setattr(FrobeniusAlgebra, "left_mult_matrix", refuse)
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
        out = b.zero_el()
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
        fwd = b.zero_el()
        bwd = b.zero_el()
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


def test_element_from_json_length_check():
    B = mat2_block(QQ, Fr(1))
    with pytest.raises(SchemaError):
        element_from_json(B, ["1", "0"], "$.elem")


def test_zero_algebra():
    zero = FrobeniusAlgebra(QQ, (), (), (), ())
    assert zero.is_zero_algebra
    assert verify(zero).passed
    assert hole_element(zero).rows == 0
