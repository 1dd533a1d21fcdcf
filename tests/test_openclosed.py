"""Tests for knowledgeable pairs and hybrid open/closed theories."""
import inspect
import json
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.errors import FieldMismatch, PoleAtZero, SchemaError, Unsupported
from defekt.exactla import Matrix, PrimeField, QQ
import defekt.openclosed as openclosed_module
from defekt.cli import run
from defekt.frobenius import (
    FrobeniusAlgebra,
    SurfaceComponent,
    SurfaceSpec,
    frobenius_to_json,
    hole_element,
    window,
)
from defekt.openclosed import (
    KnowledgeablePair,
    OpenClosedTheory,
    _comult_table,
    check_knowledgeable,
    closed_genus_values,
    eval_oc_closed,
    knowledgeable_from_json,
    openclosed_from_json,
    state_space_circle,
    state_space_mixed_dim,
)

from factories import (
    _rat,
    change_basis,
    group_algebra_cyclic,
    knowledgeable_pair_cyclic,
    knowledgeable_pair_matrix,
    mat2_block,
    nilpotent_block,
    point_block,
    random_invertible,
)
from oracles import comult_by_products, knowledgeable_by_products, zero_el


def trivial_pair(zipper_scalar=Fr(1)):
    b = point_block(QQ, Fr(1))
    return KnowledgeablePair(b, b, Matrix(QQ, [[zipper_scalar]]),
                             Matrix(QQ, [[Fr(1)]]))


# -- knowledgeable pair checks --------------------------------------------------


@pytest.mark.parametrize("p,lam", [(3, "0"), (3, "1"), (5, "2"), (5, "4")])
def test_cyclic_group_pair_passes(p, lam):
    field = PrimeField(p)
    rep = check_knowledgeable(knowledgeable_pair_cyclic(field, field.parse(lam)))
    assert rep.passed
    assert rep.closed_commutative
    assert rep.cozipper_algebra_hom and rep.cozipper_unital
    assert rep.cozipper_image_central
    assert rep.zipper_coalgebra_hom and rep.zipper_trace_respecting
    assert rep.duality and rep.cardy


def test_cyclic_group_pair_has_vanishing_window():
    field = PrimeField(5)
    pair = knowledgeable_pair_cyclic(field, field.parse("2"))
    b = pair.open_algebra
    # The composite cozipper . zipper is the zero map, matching the window.
    assert pair.cozipper * pair.zipper == Matrix.zeros(field, b.dim, b.dim)
    for i in range(b.dim):
        assert window(b, b.basis_el(i)) == zero_el(b)


def test_matrix_pair_passes():
    pair = knowledgeable_pair_matrix(QQ)
    assert check_knowledgeable(pair).passed
    b = pair.open_algebra
    # Here the window sends a matrix to its trace times the identity, so
    # Cardy identifies cozipper . zipper with b -> tr(b) Id.
    e11 = b.basis_el(0)
    assert window(b, e11) == b.unit_el()
    assert hole_element(b) == b.el([Fr(2), Fr(0), Fr(0), Fr(2)])


def test_trivial_pair_passes():
    assert check_knowledgeable(trivial_pair()).passed


def test_scaled_zipper_breaks_only_zipper_axioms():
    rep = check_knowledgeable(trivial_pair(zipper_scalar=Fr(2)))
    assert not rep.passed
    assert rep.cozipper_algebra_hom and rep.cozipper_unital
    assert rep.cozipper_image_central
    assert not rep.zipper_trace_respecting
    assert not rep.duality
    assert not rep.zipper_coalgebra_hom
    assert not rep.cardy


def test_degenerate_closed_trace_blocks_comultiplication_checks():
    b = point_block(QQ, Fr(1))
    c = nilpotent_block(QQ, Fr(1), Fr(0))  # tr(x) = 0: degenerate
    pair = KnowledgeablePair(b, c,
                             Matrix(QQ, [[Fr(1)], [Fr(0)]]),
                             Matrix(QQ, [[Fr(1), Fr(0)]]))
    rep = check_knowledgeable(pair)
    assert not rep.closed_report.nondegenerate
    assert rep.duality  # computable without dual bases and true here
    assert not rep.zipper_coalgebra_hom
    assert not rep.cardy
    assert not rep.passed


def test_noncommutative_closed_algebra_fails():
    b = mat2_block(QQ, Fr(1))
    pair = KnowledgeablePair(b, b, Matrix.identity(QQ, 4), Matrix.identity(QQ, 4))
    rep = check_knowledgeable(pair)
    assert not rep.closed_commutative
    assert not rep.passed


def test_pair_validates_shapes_and_fields():
    b = point_block(QQ, Fr(1))
    c = nilpotent_block(QQ, Fr(1), Fr(1))
    with pytest.raises(ValueError, match="zipper must be 2x1"):
        KnowledgeablePair(b, c, Matrix(QQ, [[Fr(1)]]),
                          Matrix(QQ, [[Fr(1), Fr(0)]]))
    with pytest.raises(ValueError, match="cozipper must be 1x2"):
        KnowledgeablePair(b, c, Matrix(QQ, [[Fr(1)], [Fr(0)]]),
                          Matrix(QQ, [[Fr(1)]]))
    with pytest.raises(FieldMismatch):
        KnowledgeablePair(b, nilpotent_block(PrimeField(5), PrimeField(5).one,
                                             PrimeField(5).one),
                          Matrix(QQ, [[Fr(1)], [Fr(0)]]),
                          Matrix(QQ, [[Fr(1), Fr(0)]]))
    with pytest.raises(FieldMismatch):
        KnowledgeablePair(b, c,
                          Matrix(PrimeField(5), [[1], [0]]),
                          Matrix(QQ, [[Fr(1), Fr(0)]]))


def test_comultiplication_of_dual_numbers():
    lam = Fr(3)
    c = nilpotent_block(QQ, lam, Fr(1))
    # Delta(1) = 1 (x) x + x (x) 1 - lam x (x) x and Delta(x) = x (x) x.
    m1 = comult_by_products(c, c.unit_el())
    assert [list(m1.row(0)), list(m1.row(1))] == [[Fr(0), Fr(1)], [Fr(1), -lam]]
    mx = comult_by_products(c, c.basis_el(1))
    assert [list(mx.row(0)), list(mx.row(1))] == [[Fr(0), Fr(0)], [Fr(0), Fr(1)]]
    # the table holds the same coefficients, Delta(e_t) in column t
    delta = _comult_table(c)
    assert delta.column(0) == m1.flat() and delta.column(1) == mx.flat()


def zero_dimensional_pairs():
    """(open, closed) = (point, zero), (zero, point) and (zero, zero)."""
    pt, z = point_block(QQ, Fr(1)), FrobeniusAlgebra(QQ, [], [], [], [])
    return [KnowledgeablePair(pt, z, Matrix(QQ, [], cols=1), Matrix(QQ, [[]], cols=0)),
            KnowledgeablePair(z, pt, Matrix(QQ, [[]], cols=0), Matrix(QQ, [], cols=1)),
            KnowledgeablePair(z, z, Matrix(QQ, [], cols=0), Matrix(QQ, [], cols=0))]


# The reports of the zero-dimensional pairs, as `oc check` prints them: a
# point cozipped from the zero algebra misses B's unit, trace and window.
ZERO_DIM_FAILURES = [
    {"cozipper_unital", "zipper_trace_respecting", "cardy"}, set(), set()]
AXIOMS = ["closed_commutative", "cozipper_algebra_hom", "cozipper_unital",
          "cozipper_image_central", "zipper_coalgebra_hom",
          "zipper_trace_respecting", "duality", "cardy"]
PASSING_ALGEBRA = {"passed": True, "associative": True, "associative_witness": None,
                   "unital": True, "unital_witness": None, "symmetric": True,
                   "symmetric_witness": None, "nondegenerate": True,
                   "radical_witness": None}


def pair_doc(pair):
    f = pair.open_algebra.field
    return {"field": f.tag(),
            "open": frobenius_to_json(pair.open_algebra),
            "closed": frobenius_to_json(pair.closed_algebra),
            "zipper": pair.zipper.to_lists(), "cozipper": pair.cozipper.to_lists()}


@pytest.mark.parametrize("pair,failing", zip(zero_dimensional_pairs(), ZERO_DIM_FAILURES))
def test_zero_dimensional_pairs(pair, failing, tmp_path, capsys):
    rep = check_knowledgeable(pair)
    assert rep == knowledgeable_by_products(pair)
    assert rep.open_report.passed and rep.closed_report.passed
    assert {a for a in AXIOMS if not getattr(rep, a)} == failing
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_doc(pair)))
    assert run(["oc", "check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "passed": not failing, "open": PASSING_ALGEBRA, "closed": PASSING_ALGEBRA,
        **{a: a not in failing for a in AXIOMS}}


@st.composite
def perturbed_pairs(draw):
    """A passing pair (F_3[C_3] or F_5[C_5] over the dual numbers, Mat_2
    over QQ or F_7), sometimes with B's basis hidden, its closed algebra
    replaced by B itself or given the zero trace, and one zipper or
    cozipper entry shifted; or one of the zero-dimensional pairs."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(zero_dimensional_pairs()))
    field = draw(st.sampled_from([PrimeField(3), PrimeField(5), QQ, PrimeField(7)]))
    if field.char in (3, 5):
        pair = knowledgeable_pair_cyclic(field, field.of(draw(st.integers(0, 4))))
    else:
        pair = knowledgeable_pair_matrix(field)
    b, c, jz, jc = pair.open_algebra, pair.closed_algebra, pair.zipper, pair.cozipper
    if draw(st.booleans()):
        S = random_invertible(random.Random(draw(st.integers(0, 999))), field, b.dim)
        b, jz, jc = change_basis(b, S), jz * S, S.inverse() * jc
    closed = draw(st.sampled_from(["kept", "kept", "kept", "open", "degenerate"]))
    if closed == "open":
        c, jz, jc = b, Matrix.identity(field, b.dim), Matrix.identity(field, b.dim)
    elif closed == "degenerate":
        c = FrobeniusAlgebra(field, c.names, c.mult, c.unit, [field.zero] * c.dim)
    if draw(st.booleans()):
        shift_zipper = draw(st.booleans())
        m = jz if shift_zipper else jc
        rows = [list(r) for r in m.data]
        i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
        rows[i][j] += field.of(draw(st.sampled_from([1, 2, -1, Fr(1, 2)])))
        m = Matrix(field, rows, cols=m.cols)
        jz, jc = (m, jc) if shift_zipper else (jz, m)
    return KnowledgeablePair(b, c, jz, jc)


@settings(max_examples=120, deadline=None)
@given(perturbed_pairs())
def test_matrix_identities_match_the_product_route(pair):
    assert check_knowledgeable(pair) == knowledgeable_by_products(pair)


def test_check_forms_no_product_per_basis_element(monkeypatch):
    # each axiom is one identity between whole matrices: no product is
    # formed per basis element or per pair of them
    assert "basis_el" not in inspect.getsource(openclosed_module)
    f5 = PrimeField(5)
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    for pair in (knowledgeable_pair_cyclic(f5, f5.parse("2")),
                 knowledgeable_pair_matrix(QQ)):
        check_knowledgeable(pair)  # builds the dual bases and the constants
        calls.clear()
        monkeypatch.setattr(Matrix, "__mul__", counted)
        assert check_knowledgeable(pair).passed
        monkeypatch.setattr(Matrix, "__mul__", mul)
        n, m = pair.open_algebra.dim, pair.closed_algebra.dim
        assert len(calls) <= 2 * n + m * m + 6


def passing_pairs():
    f3, f5 = PrimeField(3), PrimeField(5)
    return [
        knowledgeable_pair_cyclic(f3, f3.parse("1")),
        knowledgeable_pair_cyclic(f5, f5.parse("2")),
        knowledgeable_pair_matrix(QQ),
        trivial_pair(),
    ]


def test_zipper_compatibility_on_small_surfaces():
    """Capping a genus g surface with m >= 1 holes through the closed sector
    must agree with evaluating it in the open sector."""
    for pair in passing_pairs():
        assert check_knowledgeable(pair).passed
        b, c = pair.open_algebra, pair.closed_algebra
        e = hole_element(b)
        image_of_unit = pair.zipper * b.unit_el()
        for g in range(3):
            for m in (1, 2):
                lhs = b.trace_of(b.power(e, g + m - 1))
                rhs = c.trace_of(c.power(image_of_unit, g + m))
                assert lhs == rhs, (g, m)


def test_cyclic_pair_handle_powers_match_genus_series():
    field = PrimeField(5)
    lam = field.parse("2")
    pair = knowledgeable_pair_cyclic(field, lam)
    c = pair.closed_algebra
    h = hole_element(c)
    assert h == c.el([field.zero, field.parse("2")])  # handle element is 2x
    series = _rat(field, ["2", "2"], ["1"])  # lam + 2T
    expected = series.taylor(4)
    got = [c.trace_of(c.power(h, g)) for g in range(5)]
    assert got == expected


# -- hybrid theories: closed evaluation -----------------------------------------


def mat2_theory():
    return OpenClosedTheory(mat2_block(QQ, Fr(1)), _rat(QQ, ["7", "2"], ["1"]))


def test_closed_genus_values():
    assert closed_genus_values(mat2_theory(), 4) == [7, 2, 0, 0, 0]


def test_eval_closed_components():
    t = mat2_theory()
    assert eval_oc_closed(t, SurfaceSpec((SurfaceComponent(0, ()),))) == 7
    assert eval_oc_closed(t, SurfaceSpec((SurfaceComponent(1, ()),))) == 2
    assert eval_oc_closed(t, SurfaceSpec((SurfaceComponent(2, ()),))) == 0
    assert eval_oc_closed(t, SurfaceSpec(())) == 1


def test_eval_mixed_surface():
    t = mat2_theory()
    a = t.open_algebra.el([Fr(1), Fr(0), Fr(0), Fr(2)])  # trace 3
    surf = SurfaceSpec((
        SurfaceComponent(1, ()),
        SurfaceComponent(0, ((a,),)),
    ))
    assert eval_oc_closed(t, surf) == 6


def test_eval_is_multiplicative_over_components():
    t = mat2_theory()
    a = t.open_algebra.el([Fr(1), Fr(0), Fr(0), Fr(2)])
    parts = [
        SurfaceComponent(1, ()),
        SurfaceComponent(0, ((a,), (a,))),
        SurfaceComponent(1, ((a,),)),
    ]
    product = Fr(1)
    for comp in parts:
        product *= eval_oc_closed(t, SurfaceSpec((comp,)))
    assert eval_oc_closed(t, SurfaceSpec(tuple(parts))) == product


def test_theory_rejects_field_mismatch():
    with pytest.raises(FieldMismatch):
        OpenClosedTheory(mat2_block(QQ, Fr(1)), _rat(PrimeField(5), ["1"], ["1"]))


# -- circle state spaces ---------------------------------------------------------


def test_circle_space_of_a_point():
    t = OpenClosedTheory(point_block(QQ, Fr(1)), _rat(QQ, ["1"], ["1", "-1"]))
    space = state_space_circle(t, 2, 2)
    assert space.dim == 1
    assert space.stabilized
    assert space.labels == tuple((g, s) for g in range(3) for s in range(3))
    assert space.gram[0, 0] == Fr(1)


def test_circle_space_of_zero_algebra():
    t = OpenClosedTheory(FrobeniusAlgebra(QQ, [], [], [], []),
                         _rat(QQ, ["0"], ["1"]))
    space = state_space_circle(t, 2, 2)
    assert space.dim == 0
    assert space.stabilized


def test_circle_space_of_cyclic_group_theory():
    field = PrimeField(5)
    t = OpenClosedTheory(group_algebra_cyclic(field, 5),
                         _rat(field, ["2", "2"], ["1"]))
    space = state_space_circle(t, 2, 2)
    assert space.dim == 2
    assert space.stabilized
    # Spot entries: genus 0 closed value, then tr(E^0) = tr(1) = 1, then
    # tr(E) = 0 because the hole element vanishes in characteristic p.
    i00 = space.labels.index((0, 0))
    i01 = space.labels.index((0, 1))
    assert space.gram[i00, i00] == field.parse("2")
    assert space.gram[i00, i01] == field.one
    assert space.gram[i01, i01] == field.zero


def test_circle_space_needs_wide_enough_bounds():
    # Closed values 1 + 2^g + 3^g give a rank three Hankel matrix, which
    # bounds of one cannot certify.
    t = OpenClosedTheory(point_block(QQ, Fr(1)),
                         _rat(QQ, ["3", "-12", "11"], ["1", "-6", "11", "-6"]))
    assert closed_genus_values(t, 4) == [3, 6, 14, 36, 98]
    tight = state_space_circle(t, 1, 1)
    assert tight.dim == 3
    assert not tight.stabilized
    wide = state_space_circle(t, 2, 2)
    assert wide.dim == 3
    assert wide.stabilized
    assert tight.dim <= wide.dim <= state_space_circle(t, 3, 3).dim


def test_circle_space_validates_bounds():
    t = mat2_theory()
    with pytest.raises(ValueError):
        state_space_circle(t, 0, 2)
    with pytest.raises(ValueError):
        state_space_circle(t, 2, 0)


# -- mixed state spaces ----------------------------------------------------------


def test_mixed_dimensions_factor_through_intervals():
    field = PrimeField(5)
    t = OpenClosedTheory(group_algebra_cyclic(field, 5),
                         _rat(field, ["2", "2"], ["1"]))
    assert state_space_mixed_dim(t, 2, 0) == 25
    assert state_space_mixed_dim(t, 3, 0) == 125
    assert state_space_mixed_dim(t, 0, 0) == 1
    assert state_space_mixed_dim(t, 0, 1) == 2
    point = OpenClosedTheory(point_block(QQ, Fr(1)), _rat(QQ, ["1"], ["1", "-1"]))
    assert state_space_mixed_dim(point, 1, 1) == 1


def test_mixed_dimension_limits():
    t = mat2_theory()
    with pytest.raises(Unsupported):
        state_space_mixed_dim(t, 0, 2)
    with pytest.raises(ValueError):
        state_space_mixed_dim(t, -1, 0)
    with pytest.raises(ValueError):
        state_space_mixed_dim(t, 0, -1)


# -- JSON ingestion ---------------------------------------------------------------


def cyclic_pair_doc(field):
    pair = knowledgeable_pair_cyclic(field, field.parse("2"))
    return {
        "open": frobenius_to_json(pair.open_algebra),
        "closed": frobenius_to_json(pair.closed_algebra),
        "zipper": [[field.format(v) for v in pair.zipper.row(i)]
                   for i in range(pair.zipper.rows)],
        "cozipper": [[field.format(v) for v in pair.cozipper.row(i)]
                     for i in range(pair.cozipper.rows)],
    }


def test_pair_from_json_roundtrip():
    field = PrimeField(5)
    doc = cyclic_pair_doc(field)
    pair = knowledgeable_from_json(field, doc)
    built = knowledgeable_pair_cyclic(field, field.parse("2"))
    assert frobenius_to_json(pair.open_algebra) == frobenius_to_json(built.open_algebra)
    assert frobenius_to_json(pair.closed_algebra) == frobenius_to_json(built.closed_algebra)
    assert pair.zipper == built.zipper
    assert pair.cozipper == built.cozipper
    assert check_knowledgeable(pair).passed


@pytest.mark.parametrize("side", ["open_algebra", "closed_algebra"])
def test_a_pair_of_equal_algebra_documents_shares_one_algebra(side):
    # the algebra cache hands both sides the same object; the axioms must
    # read as they do on two distinct but equal constructor algebras
    field = PrimeField(5)
    b, c = (getattr(knowledgeable_pair_cyclic(field, field.one), side) for _ in range(2))
    assert b is not c
    one = Matrix.identity(field, b.dim)
    built = KnowledgeablePair(b, c, one, one)
    doc = {"open": frobenius_to_json(b), "closed": frobenius_to_json(c),
           "zipper": one.to_lists(), "cozipper": one.to_lists()}
    parsed = knowledgeable_from_json(field, doc)
    assert parsed.open_algebra is parsed.closed_algebra
    assert check_knowledgeable(parsed) == check_knowledgeable(built)
    assert check_knowledgeable(built) == knowledgeable_by_products(built)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: [], "$"),
    (lambda d: {k: v for k, v in d.items() if k != "open"}, "$.open"),
    (lambda d: {**d, "zipper": "no"}, "$.zipper"),
    (lambda d: {**d, "zipper": [["0", "0", "0", "0", "0"]]}, "$.zipper"),
    (lambda d: {**d, "zipper": [["0"], ["0"]]}, "$.zipper[0]"),
    (lambda d: {**d, "cozipper": None}, "$.cozipper"),
])
def test_pair_json_schema_errors(mutate, path):
    field = PrimeField(5)
    doc = mutate(cyclic_pair_doc(field))
    with pytest.raises(SchemaError) as exc:
        knowledgeable_from_json(field, doc)
    assert exc.value.path == path


def test_pair_json_reports_bad_scalar_position():
    field = PrimeField(5)
    doc = cyclic_pair_doc(field)
    doc["zipper"] = [["0", "0", "0", "0", "0"], ["1", "x", "0", "0", "0"]]
    with pytest.raises(SchemaError) as exc:
        knowledgeable_from_json(field, doc)
    assert exc.value.path == "$.zipper[1][1]"


def test_theory_from_json():
    doc = {
        "open": frobenius_to_json(mat2_block(QQ, Fr(1))),
        "closed_series": {"num": ["7", "2"], "den": ["1"]},
    }
    t = openclosed_from_json(QQ, doc)
    reference = mat2_theory()
    assert frobenius_to_json(t.open_algebra) == frobenius_to_json(reference.open_algebra)
    assert t.closed_series == reference.closed_series
    with pytest.raises(SchemaError) as exc:
        openclosed_from_json(QQ, {"open": doc["open"]})
    assert exc.value.path == "$.closed_series"
    with pytest.raises(PoleAtZero):
        openclosed_from_json(QQ, {
            "open": doc["open"],
            "closed_series": {"num": ["1"], "den": ["0", "1"]},
        })
