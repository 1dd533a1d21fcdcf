"""Tests for oriented decorated diagrams: gluing, evaluation, state spaces."""
import gc
import time
import weakref
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import universal
from defekt.diagrams import (
    GRAM_BOUND,
    VALUE_MEMO,
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
from defekt.universal import (
    THEORY_CACHE,
    Theory,
    build_pair_algebra,
    frobenius_of_K,
    minimize,
    theory_from_json,
)

from factories import _rat, one_letter_theory, presentations, theory_corpus
from oracles import elimination_rank, gram_dim, gram_rows

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
        assert evaluate_closed(t, Diagram("", "", (head_only,))) == space.final[j, 0]
        tail_only = FloatingInterval((), tail_label=j)
        assert evaluate_closed(t, Diagram("", "", (tail_only,))) == space.init[0, j]


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


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_state_space_dim_is_the_reference_rank_of_the_gram_matrix(name):
    # a fresh theory, so no dimension is cached; every sign sequence up to
    # length 4, except length 4 for the two-letter theories, whose 272 x
    # 272 Gram matrices take the reference elimination tens of seconds
    t = dict(theory_corpus())[name]
    longest = 3 if name.startswith("two_letter") else 4
    for eps in ("".join(e) for n in range(longest + 1)
                for e in product("+-", repeat=n)):
        assert state_space_dim(t, eps) == gram_dim(t, eps), eps


def drawn_theory(case):
    rep, circ = case
    return Theory(rep.field, tuple("ab"[:rep.num_letters]), rep, circ)


@settings(max_examples=20, deadline=None)
@given(presentations())
def test_state_space_dim_is_the_gram_rank_on_random_theories(case):
    # one sign sequence per (p, m) with p + m <= 3; the next test covers
    # the other orders
    t = drawn_theory(case)
    for p in range(4):
        for m in range(4 - p):
            eps = "+" * p + "-" * m
            assert state_space_dim(t, eps) == gram_dim(t, eps), eps


@settings(max_examples=30, deadline=None)
@given(presentations())
def test_pair_state_space_is_k_squared_plus_dim_K(case):
    t = drawn_theory(case)
    pa = build_pair_algebra(t)
    k = state_space_dim(t, "+")
    assert state_space_dim(t, "+-") == k * k + frobenius_of_K(pa).dim == pa.dim


@settings(max_examples=20, deadline=None)
@given(presentations(), st.lists(st.sampled_from("+-"), max_size=3).flatmap(
    lambda s: st.tuples(st.just(s), st.permutations(s))))
def test_permuted_sign_sequences_have_equal_dimensions(case, pair):
    # the Gram ranks of a sign sequence and of a permutation of it agree,
    # and equal the dimension of the sequence sorted '+' first
    t = drawn_theory(case)
    eps, shuffled = ("".join(s) for s in pair)
    assert gram_dim(t, eps) == gram_dim(t, shuffled) == state_space_dim(
        t, "".join(sorted(eps)))


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
    parsed = theory_from_json(doc)
    # a theory built directly is kept by nothing but its names
    t = Theory(parsed.field, parsed.alphabet, parsed.interval,
               parsed.circular, parsed.circular_is_trace)
    assert _context(t) is _context(t)
    # with the cycle collector off, only a reference cycle could keep the
    # theory alive once the last name for it goes
    gc.disable()
    try:
        assert state_space_dim(t, "+-") == build_pair_algebra(t).dim
        ref = weakref.ref(t)
        del t
        assert ref() is None
        # a parsed theory is kept by the theory cache until THEORY_CACHE
        # other documents have pushed it out
        assert state_space_dim(parsed, "+-") == build_pair_algebra(parsed).dim
        ref, ctx_ref = weakref.ref(parsed), weakref.ref(_context(parsed))
        del parsed
        for i in range(THEORY_CACHE):
            theory_from_json(dict(doc, circular={
                "kind": "rational1", "num": [str(6 + i)], "den": ["1"]}))
            assert (ref() is None) == (i == THEORY_CACHE - 1)
        assert ctx_ref() is None
    finally:
        gc.enable()


def test_closed_evaluation_saturates_no_arc_words():
    # evaluating a closed diagram reads interval and circle values only
    c = BY_NAME["two_letter_qq"]
    t = Theory(c.field, c.alphabet, c.interval, c.circular)
    d = Diagram("", "", (FloatingInterval((0, 1)), FloatingCircle((1,))))
    assert evaluate_closed(t, d) == t.statespace.value((0, 1)) * t.circular.value((1,))
    assert "arc_states" not in vars(t) and "arc_words" not in vars(t)


def test_closed_circles_build_no_state_space():
    # circles read the circle data only; the interval's state space is
    # minimized when the first interval value needs it
    c = BY_NAME["two_letter_qq"]
    t = Theory(c.field, c.alphabet, c.interval, c.circular)
    assert evaluate_closed(t, Diagram("", "", (FloatingCircle((0, 1)),))) == (
        t.circular.value((0, 1)))
    assert "statespace" not in vars(t)
    evaluate_closed(t, Diagram("", "", (FloatingInterval((0,)),)))
    assert "statespace" in vars(t)


def test_value_memos_keep_at_most_value_memo_entries():
    # the interval and circle values of VALUE_MEMO + 1 distinct words are
    # right, and each memo keeps only the last VALUE_MEMO of them
    c = BY_NAME["two_letter_qq"]
    t = Theory(c.field, c.alphabet, c.interval, c.circular)
    words = [w for n in range(10) for w in product(range(2), repeat=n)][:VALUE_MEMO + 1]
    assert len(set(words)) == VALUE_MEMO + 1
    for w in words:
        assert evaluate_closed(t, Diagram("", "", (FloatingInterval(w),))) == (
            t.statespace.value(w))
        assert evaluate_closed(t, Diagram("", "", (FloatingCircle(w),))) == (
            t.circular.value(w))
    ctx = _context(t)
    assert len(ctx._ival) <= VALUE_MEMO and len(ctx._cval) <= VALUE_MEMO
    assert not hasattr(ctx, "_act")


@pytest.mark.parametrize("name", ["eval1_lam5", "ex3_mu3_lam5", "two_letter_qq",
                                  "two_letter_f7", "zero_interval_qq", "tqft_fib"])
def test_built_diagrams_pass_the_full_check(name):
    # spanning_diagrams, compose, mirror and tensor do not check the
    # diagrams they build; every one of them passes the constructor's check
    t = BY_NAME[name]
    built = []
    for eps in ("+", "+-", "-+", "++-", "+-+-"):
        spanning = spanning_diagrams(t, eps)
        xs = spanning[:10]
        cls = closures(t, eps)[:10]
        through = [tensor(c, x) for c in cls for x in xs[:3]]  # eps -> eps
        built += spanning + cls + through + [mirror(d) for d in through]
        built += [compose(t, x, c) for x in xs for c in cls]
        built += [compose(t, x, d) for x in xs[:3] for d in through]
        built += [compose(t, d, e) for d in through[:4] for e in through[:4]]
    assert any(d.bottom and d.top for d in built)
    for d in built:
        assert Diagram(d.bottom, d.top, d.components) == d


def test_parsing_and_composing_two_pieces_checks_each_piece_once(monkeypatch):
    # the two parsed pieces are checked; what compose, mirror and tensor
    # build from them is not
    t = BY_NAME["two_letter_qq"]
    checked = []
    real = Diagram._validate
    monkeypatch.setattr(Diagram, "_validate", lambda d: checked.append(d) or real(d))
    lower = diagram_from_json(t.alphabet, {"top": "+-", "components": [
        {"kind": "arc", "from": ["top", 1], "to": ["top", 0], "word": "ab"}]})
    upper = diagram_from_json(t.alphabet, {"bottom": "+-", "components": [
        {"kind": "arc", "from": ["bottom", 0], "to": ["bottom", 1], "word": "b"}]})
    closed = compose(t, lower, upper)
    assert len(checked) == 2
    again = tensor(closed, compose(t, mirror(upper), mirror(lower)))
    assert len(checked) == 2
    assert evaluate_closed(t, again) == evaluate_closed(t, closed) ** 2
    # nor are the spanning diagrams
    assert spanning_diagrams(t, "+-+-") and len(checked) == 2


def test_kernel_algebra_is_built_once_per_pair_algebra(monkeypatch):
    # the pair algebra holds K; every dimension query reads it there
    calls = []
    real = universal.frobenius_of_K

    def counted(pa):
        calls.append(pa)
        return real(pa)

    monkeypatch.setattr(universal, "frobenius_of_K", counted)
    c = BY_NAME["ex3_mu3_lam5"]
    t = Theory(c.field, c.alphabet, c.interval, c.circular)
    for eps in ("+-", "++--", "-+", "+-+-", "+-"):
        state_space_dim(t, eps)
    assert hom_dim(t, "+", "+") == state_space_dim(t, "-+")
    assert calls == [t.pair_algebra]
    assert t.pair_algebra.kernel is t.pair_algebra.kernel


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
    # every Gram entry of the reference strand walk is the closed evaluation
    # of the glued diagrams; the two-letter theories tell word orders apart
    for name, t in CORPUS:
        for eps in ("".join(e) for n in range(4) for e in product("+-", repeat=n)):
            xs = spanning_diagrams(t, eps)
            cls = closures(t, eps)
            rows = [[evaluate_closed(t, compose(t, x, c)) for x in xs] for c in cls]
            assert gram_rows(t, eps) == rows, (name, eps)
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
        spanning_diagrams(t, "+" * 9)


def test_gram_bound_enforced():
    # A(+++---) needs D_K(3); with dim K = 8 that is 3! * 8^3 = 3,072
    # elements and 9,437,184 Gram entries, refused from the count before
    # the kernel algebra or any Gram matrix is built
    t = dict(theory_corpus())["two_letter_qq"]
    assert (6 * build_pair_algebra(t).K_dim ** 3) ** 2 > GRAM_BOUND
    start = time.perf_counter()
    with pytest.raises(SizeBound):
        state_space_dim(t, "+++---")
    with pytest.raises(SizeBound):
        hom_dim(t, "---", "---")
    assert time.perf_counter() - start < 1.0
    assert "kernel" not in vars(t.pair_algebra) and _context(t)._brauer == {0: 1}
    assert state_space_dim(t, "++-") == hom_dim(t, "-", "+-")


def n_cycles(pi):
    seen = set()
    count = 0
    for i in range(len(pi)):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = pi[i]
    return count


def test_dims_past_the_spanning_gram_bound():
    # k = 2 and K is one-dimensional with tr(1_K) = 3, so D_K(r) is the
    # rank of the matrix 3^(cycles of tau^-1 sigma) over S_r: 6 at r = 3 and
    # 23 at r = 4, where the sign representation dies.  The spanning-diagram
    # Gram matrices of these sequences, 688 x 688 and 10,368 x 10,368, are
    # over the bound; the 688 x 688 one has rank 286.
    t = BY_NAME["ex3_mu3_lam5"]
    for r, want in ((3, 6), (4, 23)):
        perms = list(permutations(range(r)))
        rows = [[Fraction(3) ** n_cycles([tau.index(j) for j in sigma])
                 for sigma in perms] for tau in perms]
        assert elimination_rank(rows) == want
    assert state_space_dim(t, "+++---") == hom_dim(t, "---", "---") == 286
    assert 286 == 64 + 9 * 16 * 1 + 9 * 4 * 2 + 6
    assert state_space_dim(t, "-+-+-+") == 286
    assert state_space_dim(t, "++++----") == hom_dim(t, "----", "----") == 2839
    assert 2839 == 256 + 16 * 64 * 1 + 36 * 16 * 2 + 16 * 4 * 6 + 23


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
