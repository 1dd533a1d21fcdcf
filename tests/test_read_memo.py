"""Tests for the memos of accepted documents kept by the theory, algebra
and diagram readers: a repeat of an exact JSON value skips the read, and
nothing else does."""
import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt import diagrams
from defekt import frobenius, universal
from defekt.diagrams import diagram_from_json
from defekt.errors import SchemaError
from defekt.exactla import QQ, Field, PrimeField
from defekt.frobenius import frobenius_from_json, frobenius_to_json
from defekt.lru import image
from defekt.universal import theory_from_json

from factories import random_symmetric_frobenius

F7 = PrimeField(7)
FIELD_DOCS = {QQ: {"type": "rational"}, F7: {"type": "prime", "p": 7}}


def _forget():
    universal._theories.clear()
    frobenius._algebras.clear()


def _scalar(draw):
    n, d = draw(st.integers(-4, 4)), draw(st.integers(1, 6))
    return n if d == 1 and draw(st.booleans()) else f"{n}/{d}"


@st.composite
def theory_docs(draw):
    """A valid theory document over QQ or F_7 with int and string scalars:
    linrep with tracerep (a scalar weight) or trace_of_interval, or
    rational1 parts."""
    field = draw(st.sampled_from([QQ, F7]))

    def matrix(n):
        return [[_scalar(draw) for _ in range(n)] for _ in range(n)]

    if draw(st.booleans()):
        alphabet = ["a", "b"][:draw(st.integers(0, 2))]
        dim, cdim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        interval = {"kind": "linrep", "dim": dim,
                    "init": [_scalar(draw) for _ in range(dim)],
                    "letters": {a: matrix(dim) for a in alphabet},
                    "final": [_scalar(draw) for _ in range(dim)]}
        c = _scalar(draw)
        circular = draw(st.sampled_from([
            {"kind": "trace_of_interval"},
            {"kind": "tracerep", "dim": cdim,
             "letters": {a: matrix(cdim) for a in alphabet},
             "weight": [[c if i == j else 0 for j in range(cdim)] for i in range(cdim)]},
        ]))
    else:
        alphabet = ["a"]
        interval = {"kind": "rational1", "num": [_scalar(draw)],
                    "den": ["1", _scalar(draw)]}
        circular = {"kind": "rational1", "num": [_scalar(draw), _scalar(draw)],
                    "den": [1, _scalar(draw)]}
    doc = {"field": FIELD_DOCS[field], "alphabet": alphabet,
           "interval": interval, "circular": circular}
    return theory_from_json, doc


@st.composite
def algebra_docs(draw):
    """A valid algebra document over QQ or F_7, with some scalars written
    as ints and the basis names left out in some draws."""
    field = draw(st.sampled_from([QQ, F7]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    doc = frobenius_to_json(random_symmetric_frobenius(rng, field, max_dim=3))
    if draw(st.booleans()):
        del doc["basis"]
    doc["unit"] = [int(x) if x.lstrip("-").isdigit() else x for x in doc["unit"]]
    return (lambda d: frobenius_from_json(field, d)), doc


class S(str):
    pass


class L(list):
    pass


class D(dict):
    pass


def _respelled(x):
    if type(x) is int:
        return str(x)
    n, _, d = x.partition("/")
    if n.lstrip("-").isdigit() and (not d or d.isdigit()):
        return f"{2 * int(n)}/{2 * int(d or 1)}"
    return None


# Each mutation gives the value to put at a site, or None where it does
# not apply.
MUTATIONS = {
    "bool-for-int": lambda x: x != 0 if type(x) is int else None,
    "float": lambda x: float(x) if type(x) is int else None,
    "tuple-for-list": lambda x: tuple(x) if type(x) is list else None,
    "int-key": lambda x: {**x, 0: "x"} if type(x) is dict else None,
    "str-subclass": lambda x: S(x) if type(x) is str else None,
    "list-subclass": lambda x: L(x) if type(x) is list else None,
    "dict-subclass": lambda x: D(x) if type(x) is dict else None,
    "bad-spelling": lambda x: " " + x if type(x) is str else None,
    "respelling": lambda x: _respelled(x) if type(x) in (int, str) else None,
    "reordering": lambda x: dict(reversed(x.items())) if type(x) is dict else None,
}


def _sites(doc, at=()):
    """The key paths of doc itself and of every value inside it."""
    out = [at]
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for k, x in items:
        out += _sites(x, at + (k,))
    return out


def _mutated(doc, at, mutate):
    """A deep copy of doc with the value at the key path ``at`` mutated."""
    if not at:
        return mutate(copy.deepcopy(doc))
    out = copy.deepcopy(doc)
    container = out
    for k in at[:-1]:
        container = container[k]
    container[at[-1]] = mutate(container[at[-1]])
    return out


def _value(doc, at):
    for k in at:
        doc = doc[k]
    return doc


def _content(x):
    """The content of a theory or algebra, comparable across objects."""
    if isinstance(x, universal.Theory):
        parts = []
        for rep in (x.interval, x.circular):
            parts += [rep.dim, rep.letters, getattr(rep, "init", None),
                      getattr(rep, "final", None), getattr(rep, "weight", None)]
        return x.field, x.alphabet, x.circular_is_trace, tuple(parts)
    return x.field, frobenius_to_json(x)


def _outcome(read, doc):
    """The content of what reading doc gives, or its error."""
    try:
        return _content(read(doc))
    except Exception as e:
        return type(e), getattr(e, "path", None), str(e)


@settings(max_examples=200, deadline=None)
@given(st.one_of(theory_docs(), algebra_docs()), st.sampled_from(sorted(MUTATIONS)),
       st.data())
def test_a_mutated_document_reads_warm_as_it_reads_cold(case, kind, data):
    # with the valid document remembered, a mutation of it is read as it
    # is with nothing remembered: the same content or the same error
    read, doc = case
    mutate = MUTATIONS[kind]
    at = data.draw(st.sampled_from([at for at in _sites(doc)
                                    if mutate(_value(doc, at)) is not None]))
    mutated = _mutated(doc, at, mutate)
    _forget()
    cold = _outcome(read, mutated)
    _forget()
    first = read(doc)
    assert read(copy.deepcopy(doc)) is first
    assert _outcome(read, mutated) == cold
    assert _outcome(read, mutated) == cold
    assert read(doc) is first


THEORY = {"field": FIELD_DOCS[F7], "alphabet": ["a"],
          "interval": {"kind": "linrep", "dim": 1, "init": ["1"],
                       "letters": {"a": [["2/3"]]}, "final": [1]},
          "circular": {"kind": "tracerep", "dim": 1, "letters": {"a": [["3"]]},
                       "weight": [["1/2"]]}}


def _algebra(F):
    return frobenius_to_json(random_symmetric_frobenius(random.Random(5), F, max_dim=3))


# name: (reader, a valid document, the reader's memo, its bound)
THEORY_MEMO = (universal._theories, universal.THEORY_CACHE)
ALGEBRA_MEMO = (frobenius._algebras, frobenius.ALGEBRA_CACHE)
READERS = {
    "theory-QQ": (lambda d: theory_from_json(d, QQ), THEORY, *THEORY_MEMO),
    "theory-F7": (theory_from_json, THEORY, *THEORY_MEMO),
    "algebra-QQ": (lambda d: frobenius_from_json(QQ, d), _algebra(QQ), *ALGEBRA_MEMO),
    "algebra-F7": (lambda d: frobenius_from_json(F7, d), _algebra(F7), *ALGEBRA_MEMO),
}


def _counting_reads(monkeypatch):
    """The list every ``Field._read`` call appends to from now on."""
    reads = []
    real = Field._read
    monkeypatch.setattr(Field, "_read", lambda *a: reads.append(a) or real(*a))
    return reads


@pytest.mark.parametrize("name", READERS)
def test_a_repeated_document_is_not_read_again(monkeypatch, name):
    read, doc, memo, _ = READERS[name]
    reads = _counting_reads(monkeypatch)
    first = read(doc)
    assert reads
    reads.clear()
    assert read(copy.deepcopy(doc)) is first
    assert reads == []
    # with its object dropped, the document is read in full again
    memo.clear()
    again = read(doc)
    assert again is not first and _content(again) == _content(first)
    assert reads


@pytest.mark.parametrize("name", READERS)
def test_the_memos_are_bounded(monkeypatch, name):
    read, doc, memo, bound = READERS[name]
    for i in range(2 * bound):
        # a key the readers ignore makes each document another exact value
        read(dict(doc, note=str(i)))
        assert len(memo) <= bound
    assert len(memo) == bound
    reads = _counting_reads(monkeypatch)
    read(dict(doc, note=str(2 * bound - 1)))
    assert reads == []
    # the first documents were dropped, so they are read in full again
    read(dict(doc, note="0"))
    assert reads


def test_field_override_is_part_of_the_memo_key():
    assert theory_from_json(THEORY).field == F7
    assert theory_from_json(THEORY, QQ).field == QQ
    assert theory_from_json(THEORY).field == F7


def test_documents_without_an_image_are_read_in_full(monkeypatch):
    deep = []
    for _ in range(5000):
        deep = [deep]
    cyclic = dict(THEORY)
    cyclic["self"] = cyclic
    reads = _counting_reads(monkeypatch)
    for doc in (dict(THEORY, note=deep), cyclic, dict(THEORY, note=True)):
        assert image(doc) is None
        reads.clear()
        t = theory_from_json(doc)
        n = len(reads)
        again = theory_from_json(doc)
        assert n and again is not t and len(reads) == 2 * n
        assert _content(again) == _content(t)


def test_image_is_type_exact():
    plain = {"a": [1, "1", None, [], {}], "b": {"c": [[0]]}}
    assert image(plain) == image(copy.deepcopy(plain))
    assert hash(image(plain)) == hash(image(copy.deepcopy(plain)))
    assert image(plain) != image(dict(reversed(plain.items())))
    assert image([1]) != image(["1"]) and image([{}]) != image([[]])
    assert image({"a": 1}) != image(["a", 1]) and image({}) != image([])
    for bad in ([True], [1.0], (1,), {1: "a"}, [S("1")], L(), D(), [[0.5]], {"a": [False]}):
        assert image(bad) is None


def test_equal_documents_share_one_memo_key(monkeypatch):
    # one document from json.loads, one from literals (their keys are
    # interned) and one whose letter rows are one shared list: the memo
    # key is the same for all three, however their objects are shared
    row = ["1", "1"]
    shared = {"field": {"type": "prime", "p": 7}, "alphabet": ["a"],
              "interval": {"kind": "linrep", "dim": 2, "init": ["1", "0"],
                           "letters": {"a": [row, row]}, "final": ["1", "0"]},
              "circular": {"kind": "trace_of_interval"}}
    literal = {"field": {"type": "prime", "p": 7}, "alphabet": ["a"],
               "interval": {"kind": "linrep", "dim": 2, "init": ["1", "0"],
                            "letters": {"a": [["1", "1"], ["1", "1"]]},
                            "final": ["1", "0"]},
               "circular": {"kind": "trace_of_interval"}}
    loaded = json.loads(json.dumps(literal))
    assert loaded == literal == shared
    reads = _counting_reads(monkeypatch)
    first = theory_from_json(loaded)
    n = len(reads)
    assert n
    assert theory_from_json(literal) is first
    assert theory_from_json(shared) is first
    assert len(reads) == n
    assert len(universal._theories) == 1


LETTERS = ("a", "b")


def _word(draw):
    w = "".join(draw(st.lists(st.sampled_from(LETTERS), max_size=3)))
    return w if draw(st.booleans()) else list(w)


def _label(draw):
    return draw(st.one_of(st.none(), st.integers(0, 2)))


@st.composite
def piece_docs(draw):
    """A valid diagram piece over LETTERS: every in-point (bottom '+',
    top '-') ends an arc or a half interval, every out-point too, and a
    few floating intervals and circles ride along.  The bottom is never
    empty, so every mutation has a site."""
    bottom = "".join(draw(st.lists(st.sampled_from("+-"), min_size=1, max_size=3)))
    top = "".join(draw(st.lists(st.sampled_from("+-"), max_size=3)))
    points = [("bottom", i, c == "+") for i, c in enumerate(bottom)]
    points += [("top", i, c == "-") for i, c in enumerate(top)]
    ins = draw(st.permutations([[s, i] for s, i, into in points if into]))
    outs = draw(st.permutations([[s, i] for s, i, into in points if not into]))
    arcs = draw(st.integers(0, min(len(ins), len(outs))))
    comps = [{"kind": "arc", "from": a, "to": b, "word": _word(draw)}
             for a, b in zip(ins[:arcs], outs[:arcs])]
    comps += [{"kind": "half", "end": e, "word": _word(draw), "label": _label(draw)}
              for e in ins[arcs:] + outs[arcs:]]
    for _ in range(draw(st.integers(0, 2))):
        comps.append(draw(st.sampled_from([
            {"kind": "interval", "word": _word(draw),
             "head_label": _label(draw), "tail_label": _label(draw)},
            {"kind": "circle", "word": _word(draw)},
        ])))
    doc = {"bottom": bottom, "top": top, "components": draw(st.permutations(comps))}
    return copy.deepcopy(doc)


# The piece mutations: those of the theory and algebra documents (a bool
# or a float for an endpoint index or a label, a tuple for a list, an int
# key, subclasses, respellings) and two of the piece grammar.
PIECE_MUTATIONS = {
    **MUTATIONS,
    "unknown-kind": lambda x: {**x, "kind": "ribbon"} if type(x) is dict and "kind" in x else None,
    "foreign-letter": lambda x: x + "z" if type(x) is str else None,
}


def _piece_outcome(alphabet, doc, path):
    try:
        return diagram_from_json(alphabet, doc, path)
    except Exception as e:
        return type(e), getattr(e, "path", None), str(e)


@settings(max_examples=200, deadline=None)
@given(piece_docs(), st.sampled_from(sorted(PIECE_MUTATIONS)),
       st.sampled_from(["$", "$.pieces[1].upper"]), st.data())
def test_a_mutated_piece_reads_warm_as_it_reads_cold(doc, kind, path, data):
    mutate = PIECE_MUTATIONS[kind]
    at = data.draw(st.sampled_from([at for at in _sites(doc)
                                    if mutate(_value(doc, at)) is not None]))
    mutated = _mutated(doc, at, mutate)
    diagrams._pieces.clear()
    cold = _piece_outcome(LETTERS, mutated, path)
    diagrams._pieces.clear()
    first = diagram_from_json(LETTERS, doc)
    assert diagram_from_json(LETTERS, copy.deepcopy(doc), path) is first
    assert _piece_outcome(LETTERS, mutated, path) == cold
    assert _piece_outcome(LETTERS, mutated, path) == cold
    assert diagram_from_json(LETTERS, doc) is first
    assert len(diagrams._pieces) <= diagrams.PIECE_MEMO


def _counting_pieces(monkeypatch):
    """The list every full piece read appends to from now on."""
    reads = []
    real = diagrams._diagram_read
    monkeypatch.setattr(diagrams, "_diagram_read",
                        lambda *a: reads.append(a) or real(*a))
    return reads


PIECE = {"bottom": "+-", "components": [
    {"kind": "arc", "from": ["bottom", 0], "to": ["bottom", 1], "word": "ab"}]}


def test_a_piece_under_another_alphabet_is_read_again(monkeypatch):
    reads = _counting_pieces(monkeypatch)
    ab = diagram_from_json(("a", "b"), PIECE)
    assert diagram_from_json(["a", "b"], copy.deepcopy(PIECE)) is ab
    assert len(reads) == 1
    ba = diagram_from_json(("b", "a"), PIECE)
    assert len(reads) == 2
    assert ab.components[0].word == (0, 1) and ba.components[0].word == (1, 0)
    with pytest.raises(SchemaError) as exc:
        diagram_from_json(("a",), PIECE, "$.p")
    assert exc.value.path == "$.p.components[0].word"
    assert diagram_from_json(("a", "b"), PIECE) is ab
    assert len(reads) == 3


def test_the_piece_memo_is_bounded(monkeypatch):
    bound = diagrams.PIECE_MEMO
    for i in range(2 * bound):
        # a key the reader ignores makes each piece another exact value
        diagram_from_json(LETTERS, dict(PIECE, note=str(i)))
        assert len(diagrams._pieces) <= bound
    assert len(diagrams._pieces) == bound
    reads = _counting_pieces(monkeypatch)
    diagram_from_json(LETTERS, dict(PIECE, note=str(2 * bound - 1)))
    assert reads == []
    # the first pieces were dropped, so they are read in full again
    diagram_from_json(LETTERS, dict(PIECE, note="0"))
    assert reads


def test_a_weight_that_fails_the_build_check_fails_on_every_call():
    # the read accepts the document; the commuting check runs on the built
    # matrices, and the document is never remembered, so every call raises
    # anew
    doc = {"field": FIELD_DOCS[QQ], "alphabet": ["a", "b"],
           "interval": {"kind": "linrep", "dim": 1, "init": ["1"],
                        "letters": {"a": [["1"]], "b": [["1"]]}, "final": ["1"]},
           "circular": {"kind": "tracerep", "dim": 2,
                        "letters": {"a": [["1", "1"], ["0", "1"]],
                                    "b": [["1", "0"], ["0", "1"]]},
                        "weight": [["1", "0"], ["0", "2"]]}}
    for _ in range(3):
        with pytest.raises(SchemaError) as exc:
            theory_from_json(copy.deepcopy(doc))
        assert exc.value.path == "circular.weight"
    assert len(universal._theories) == 0
