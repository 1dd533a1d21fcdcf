"""Tests for oriented decorated diagrams: gluing, evaluation, state spaces."""
import gc
import weakref
from fractions import Fraction

import pytest

from defekt.diagrams import (
    Arc,
    Diagram,
    FloatingCircle,
    FloatingInterval,
    HalfInterval,
    _context,
    compose,
    diagram_from_json,
    evaluate_closed,
    hom_dim,
    mirror,
    mirror_signs,
    spanning_diagrams,
    state_space_dim,
    tensor,
)
from defekt.errors import (
    AlphabetMismatch,
    BoundaryMismatch,
    DefektError,
    NotClosed,
    OrientationClash,
    SchemaError,
    SizeBound,
)
from defekt.exactla import QQ, Matrix
from defekt.universal import build_pair_algebra, minimize, theory_from_json

from factories import _rat, one_letter_theory, theory_corpus

CORPUS = theory_corpus()
BY_NAME = dict(CORPUS)


def geometric_theory(lam):
    """One letter, interval values 2^n, circle values lam - 1 + 2^n."""
    zi = _rat(QQ, ["1"], ["1", "-2"])
    zc = _rat(QQ, [str(lam - 1)], ["1", "-1"]) + zi
    return one_letter_theory(QQ, zi, zc)


def cup(word=()):
    return Diagram("", "+-", (Arc(("top", 1), ("top", 0), word),))


def cap(word=()):
    return Diagram("+-", "", (Arc(("bottom", 0), ("bottom", 1), word),))


def closures(t, eps):
    return [mirror(s) for s in spanning_diagrams(t, mirror_signs(eps))]


# -- gluing -------------------------------------------------------------------


def test_cup_cap_glue_to_circle():
    t = BY_NAME["ex2_t1_lam3"]
    glued = compose(t, cup(), cap())
    assert glued == Diagram("", "", (FloatingCircle(()),))
    assert evaluate_closed(t, glued) == Fraction(3)
    assert evaluate_closed(BY_NAME["tqft_fib"], glued) == Fraction(2)


def test_ket_bra_glue_to_interval():
    t = BY_NAME["ex2_t1_lam3"]
    ket = Diagram("", "+", (HalfInterval(("top", 0), (0,)),))
    bra = Diagram("+", "", (HalfInterval(("bottom", 0), (0,)),))
    glued = compose(t, ket, bra)
    assert glued == Diagram("", "", (FloatingInterval((0, 0)),))
    assert evaluate_closed(t, glued) == Fraction(4)
    assert evaluate_closed(BY_NAME["ex3_mu3_lam5"], glued) == Fraction(0)


def test_identity_strands_compose_to_identity():
    t = BY_NAME["ex3_mu3_lam5"]
    up = Diagram("+", "+", (Arc(("bottom", 0), ("top", 0)),))
    down = Diagram("-", "-", (Arc(("top", 0), ("bottom", 0)),))
    assert compose(t, up, up) == up
    assert compose(t, down, down) == down


def test_words_concatenate_head_first():
    # the downstream strand's letters come first, matching evaluation order
    t = BY_NAME["two_letter_qq"]
    ket_b = Diagram("", "+", (HalfInterval(("top", 0), (1,)),))
    arc_a = Diagram("+", "+", (Arc(("bottom", 0), ("top", 0), (0,)),))
    out = compose(t, ket_b, arc_a)
    assert out == Diagram("", "+", (HalfInterval(("top", 0), (0, 1)),))


def test_compose_keeps_floating_components():
    t = BY_NAME["ex3_mu3_lam5"]
    left = Diagram("", "+", (
        HalfInterval(("top", 0)),
        FloatingCircle((0,)),
    ))
    right = Diagram("+", "", (
        HalfInterval(("bottom", 0)),
        FloatingInterval((0,)),
    ))
    out = compose(t, left, right)
    assert out.components == (
        FloatingCircle((0,)),
        FloatingInterval((0,)),
        FloatingInterval(()),
    )


def test_compose_boundary_mismatch():
    t = BY_NAME["ex3_mu3_lam5"]
    with pytest.raises(BoundaryMismatch):
        compose(t, cup(), Diagram("-+", "", (Arc(("bottom", 1), ("bottom", 0)),)))


def test_compose_rejects_foreign_letters():
    t = BY_NAME["ex2_t1_lam3"]
    with pytest.raises(AlphabetMismatch):
        compose(t, cup((3,)), cap())


def test_compose_associativity_on_closures():
    t = BY_NAME["two_letter_qq"]
    d_a = cup((0,))
    d_b = Diagram("+-", "+-", (
        Arc(("bottom", 0), ("top", 0), (1,)),
        Arc(("top", 1), ("bottom", 1), (0,)),
    ))
    d_c = cap((0, 1))
    left = compose(t, compose(t, d_a, d_b), d_c)
    right = compose(t, d_a, compose(t, d_b, d_c))
    assert evaluate_closed(t, left) == evaluate_closed(t, right)


# -- construction invariants --------------------------------------------------


def test_backwards_arc_is_orientation_clash():
    with pytest.raises(OrientationClash):
        Diagram("+-", "", (Arc(("bottom", 1), ("bottom", 0)),))
    with pytest.raises(OrientationClash):
        Diagram("", "++", (Arc(("top", 1), ("top", 0)),))


def test_boundary_points_used_exactly_once():
    with pytest.raises(BoundaryMismatch):
        Diagram("+", "", ())
    with pytest.raises(BoundaryMismatch):
        Diagram("+", "", (
            HalfInterval(("bottom", 0)),
            HalfInterval(("bottom", 0)),
        ))
    with pytest.raises(BoundaryMismatch):
        Diagram("", "+", (HalfInterval(("top", 1)),))
    with pytest.raises(BoundaryMismatch):
        Diagram("", "+", (HalfInterval(("middle", 0)),))


def test_sign_strings_validated():
    with pytest.raises(BoundaryMismatch):
        Diagram("+x", "", (HalfInterval(("bottom", 0)),))


# -- mirror and tensor --------------------------------------------------------

def test_mirror_shape_and_involution():
    d = Diagram("+-", "+", (
        Arc(("bottom", 0), ("top", 0), (0,)),
        HalfInterval(("bottom", 1), (0, 0)),
    ))
    m = mirror(d)
    assert m.bottom == mirror_signs(d.top) == "-"
    assert m.top == mirror_signs(d.bottom) == "+-"
    assert m.components == (
        Arc(("top", 1), ("bottom", 0), (0,)),
        HalfInterval(("top", 0), (0, 0)),
    )
    assert mirror(m) == d


def test_mirror_signs_reverses_and_flips():
    assert mirror_signs("") == ""
    assert mirror_signs("+") == "-"
    assert mirror_signs("++-") == "+--"
    assert mirror_signs(mirror_signs("+-+")) == "+-+"


def test_tensor_juxtaposes_with_shifts():
    assert tensor(cup(), cup()) == Diagram("", "+-+-", (
        Arc(("top", 1), ("top", 0)),
        Arc(("top", 3), ("top", 2)),
    ))


# -- closed evaluation --------------------------------------------------------


def test_empty_diagram_evaluates_to_one():
    for _, t in CORPUS:
        assert evaluate_closed(t, Diagram("", "", ())) == t.field.one


def test_circle_values_match_circle_series():
    # one letter with interval 2^n: circle values lam - 1 + 2^n
    t = geometric_theory(0)
    assert evaluate_closed(t, Diagram("", "", (FloatingCircle((0, 0, 0)),))) == Fraction(7)
    t = geometric_theory(3)
    for n in range(6):
        d = Diagram("", "", (FloatingCircle((0,) * n),))
        assert evaluate_closed(t, d) == Fraction(2 + 2 ** n)


def test_circle_word_rotation_invariance():
    t = BY_NAME["two_letter_qq"]
    val = evaluate_closed(t, Diagram("", "", (FloatingCircle((0, 1, 1)),)))
    for rot in [(1, 1, 0), (1, 0, 1)]:
        assert evaluate_closed(t, Diagram("", "", (FloatingCircle(rot),))) == val


def test_interval_values_match_interval_series():
    t = BY_NAME["ex3_mu3_lam5"]
    vals = {(): Fraction(3), (0,): Fraction(1), (0, 0): Fraction(0)}
    for w, v in vals.items():
        assert evaluate_closed(t, Diagram("", "", (FloatingInterval(w),))) == v


def test_labelled_interval_is_dual_basis_pairing():
    t = BY_NAME["ex3_mu3_lam5"]
    space = minimize(t.interval)
    act_a = space.act((0,))
    for i in range(space.dim):
        for j in range(space.dim):
            empty = FloatingInterval((), head_label=j, tail_label=i)
            got = evaluate_closed(t, Diagram("", "", (empty,)))
            assert got == (QQ.one if i == j else QQ.zero)
            lettered = FloatingInterval((0,), head_label=j, tail_label=i)
            assert evaluate_closed(t, Diagram("", "", (lettered,))) == act_a[j, i]
    for j in range(space.dim):
        head_only = FloatingInterval((), head_label=j)
        assert evaluate_closed(t, Diagram("", "", (head_only,))) == space.cyclic[j, 0]
        tail_only = FloatingInterval((), tail_label=j)
        assert evaluate_closed(t, Diagram("", "", (tail_only,))) == space.cotrace[0, j]


def test_inner_label_out_of_range():
    t = BY_NAME["ex3_mu3_lam5"]
    d = Diagram("", "", (FloatingInterval((), head_label=5),))
    with pytest.raises(DefektError, match="label"):
        evaluate_closed(t, d)


def test_evaluate_requires_closed():
    t = BY_NAME["ex3_mu3_lam5"]
    with pytest.raises(NotClosed):
        evaluate_closed(t, cup())


# -- state space dimensions ---------------------------------------------------


def test_state_space_dims_frozen():
    t = BY_NAME["ex3_mu3_lam5"]
    assert state_space_dim(t, "+-") == 5
    assert state_space_dim(t, "") == 1
    assert state_space_dim(t, "+") == 2
    assert hom_dim(BY_NAME["eval1_lam5"], "+", "+") == 2


@pytest.mark.parametrize("name,t", CORPUS, ids=[n for n, _ in CORPUS])
def test_state_space_matches_pair_algebra(name, t):
    pa = build_pair_algebra(t)
    assert state_space_dim(t, "+-") == pa.dim
    assert state_space_dim(t, "+") == pa.k
    assert state_space_dim(t, "-") == pa.k
    assert state_space_dim(t, "") == 1


@pytest.mark.parametrize("circular", [
    {"kind": "rational1", "num": ["5"], "den": ["1"]},
    {"kind": "trace_of_interval"},
], ids=["rational1", "trace"])
def test_context_lives_as_long_as_its_theory(circular):
    doc = {
        "alphabet": ["a"],
        "interval": {"kind": "rational1", "num": ["3", "1"], "den": ["1"]},
        "circular": circular,
    }
    t = theory_from_json(doc)
    assert _context(t) is _context(t)
    # with the cycle collector off, only a reference cycle could keep the
    # theory alive once the last name for it goes
    gc.disable()
    try:
        assert state_space_dim(t, "+-") == build_pair_algebra(t).dim
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_zero_interval_dims():
    t = BY_NAME["zero_interval_qq"]
    assert state_space_dim(t, "+") == 0
    assert state_space_dim(t, "+-") == 2


def test_tqft_hom_dims_are_powers_of_k():
    t = BY_NAME["tqft_fib"]
    assert hom_dim(t, "+", "+") == 4
    assert hom_dim(t, "", "++") == 4
    assert hom_dim(t, "+-", "") == 4
    assert hom_dim(t, "++", "+") == 8


def test_hom_duality():
    for t in [BY_NAME["ex3_mu3_lam5"], BY_NAME["two_letter_qq"]]:
        for e1, e2 in [("+", "+"), ("+-", ""), ("", "-+"), ("+", "-")]:
            assert hom_dim(t, e1, e2) == hom_dim(t, mirror_signs(e2), mirror_signs(e1))


def test_tensor_gives_state_space_lower_bound():
    # juxtaposition embeds the product of state spaces, so dimensions are
    # bounded below by the product, with equality in the functorial case
    for name in ["eval1_lam5", "ex3_mu3_lam5", "zero_interval_qq",
                 "two_letter_qq", "tqft_fib"]:
        t = BY_NAME[name]
        prod = state_space_dim(t, "+") * state_space_dim(t, "-")
        assert state_space_dim(t, "+-") >= prod
    t = BY_NAME["eval1_lam5"]
    assert state_space_dim(t, "+-") == 2 > 1 == state_space_dim(t, "+")
    tq = BY_NAME["tqft_fib"]
    assert state_space_dim(tq, "+-") == state_space_dim(tq, "+") * state_space_dim(tq, "-")


def test_gram_matches_explicit_compose_route():
    t = BY_NAME["ex3_mu3_lam5"]
    for eps in ["+", "+-"]:
        xs = spanning_diagrams(t, eps)
        cls = closures(t, eps)
        rows = [[evaluate_closed(t, compose(t, x, c)) for x in xs] for c in cls]
        assert Matrix(t.field, rows, cols=len(xs)).rank() == state_space_dim(t, eps)


def test_arc_relation_holds_under_all_closures():
    # interval values 2^n with circle offset: the letter satisfies
    # x^2 = 3x - 2, and the relation must hold under every closure
    t = geometric_theory(3)
    arcs = [Diagram("", "+-", (Arc(("top", 1), ("top", 0), (0,) * n),))
            for n in range(3)]
    cls = closures(t, "+-")
    assert len(cls) >= 2
    for c in cls:
        v = [evaluate_closed(t, compose(t, a, c)) for a in arcs]
        assert v[2] == 3 * v[1] - 2 * v[0]


def test_size_bound_enforced():
    t = BY_NAME["ex3_mu3_lam5"]
    with pytest.raises(SizeBound):
        state_space_dim(t, "+" * 9)
    with pytest.raises(SizeBound):
        hom_dim(t, "+" * 5, "-" * 4)
    with pytest.raises(SizeBound):
        state_space_dim(t, "+-", size_bound=1)
    with pytest.raises(SizeBound):
        spanning_diagrams(t, "+" * 9)


# -- JSON ---------------------------------------------------------------------


def test_diagram_from_json_arc():
    doc = {
        "bottom": "+-",
        "top": "",
        "components": [
            {"kind": "arc", "from": ["bottom", 0], "to": ["bottom", 1],
             "word": "ab"},
        ],
    }
    d = diagram_from_json(("a", "b"), doc)
    assert d == Diagram("+-", "", (Arc(("bottom", 0), ("bottom", 1), (0, 1)),))


def test_diagram_from_json_all_kinds():
    doc = {
        "bottom": "",
        "top": "+-",
        "components": [
            {"kind": "half", "end": ["top", 0], "word": ["a"], "label": 1},
            {"kind": "half", "end": ["top", 1]},
            {"kind": "interval", "word": "a", "head_label": 0, "tail_label": 1},
            {"kind": "circle", "word": "aa"},
        ],
    }
    d = diagram_from_json(("a",), doc)
    assert d.components == (
        HalfInterval(("top", 0), (0,), 1),
        HalfInterval(("top", 1)),
        FloatingInterval((0,), 0, 1),
        FloatingCircle((0, 0)),
    )


@pytest.mark.parametrize("doc,path", [
    ([], "$"),
    ({"bottom": "+x"}, "$.bottom"),
    ({"components": {}}, "$.components"),
    ({"components": [[]]}, "$.components[0]"),
    ({"components": [{"kind": "blob"}]}, "$.components[0].kind"),
    ({"components": [{"kind": "circle", "word": "z"}]},
     "$.components[0].word"),
    ({"bottom": "+-", "components": [
        {"kind": "arc", "from": ["bottom", 0], "to": "x"}]},
     "$.components[0].to"),
    ({"top": "+", "components": [
        {"kind": "half", "end": ["top", 0], "label": "x"}]},
     "$.components[0].label"),
    ({"components": [{"kind": "interval", "head_label": -1}]},
     "$.components[0].head_label"),
])
def test_diagram_from_json_schema_errors(doc, path):
    with pytest.raises(SchemaError) as exc:
        diagram_from_json(("a", "b"), doc)
    assert exc.value.path == path


def test_diagram_from_json_semantic_errors_are_domain_errors():
    doc = {
        "bottom": "+-",
        "components": [
            {"kind": "arc", "from": ["bottom", 1], "to": ["bottom", 0]},
        ],
    }
    with pytest.raises(OrientationClash):
        diagram_from_json(("a",), doc)
    with pytest.raises(BoundaryMismatch):
        diagram_from_json(("a",), {"bottom": "+", "components": []})
