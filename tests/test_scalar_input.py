"""Every JSON reader takes its scalars through the grammar of
``Field.parse``: an int, or a string ``[+-]digits`` or ``[+-]digits/digits``.
Any other scalar is a SchemaError at the path of the entry itself, including
strings that ``Fraction`` would expand into huge numbers and strings that
``int`` alone would take.  The integer readers of algebra documents accept
exactly what ``Field.parse`` accepts."""
import json
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defekt.cli import run
from defekt.errors import FieldMismatch, SchemaError
from defekt.exactla import PrimeField, QQ, _canonical, _ints, _wrap
from defekt.frobenius import (
    element_from_json,
    frobenius_from_json,
    frobenius_to_json,
    surface_from_json,
)
from defekt.openclosed import knowledgeable_from_json, openclosed_from_json
from defekt.universal import theory_from_json

from factories import FIELDS, knowledgeable_pair_cyclic, mat2_block
from oracles import read_array

F5 = PrimeField(5)
F7 = PrimeField(7)

BAD = {
    "exponent": "1e50",
    "huge_exponent": "1e999999999999",
    "decimal": "1.5",
    "empty": "",
    "zero_denominator": "1/0",
    "bool": True,
    "float": 0.5,
    "5000_digits": "9" * 5000,
    "leading_space": " 3",
    "underscore": "1_000",
    "arabic_indic_digit": "\u0663",
}
# The comma-separated --zi and --zc literals strip spaces around each piece.
CLI_BAD = {k: v for k, v in BAD.items() if k != "leading_space"}


def _theory(interval=None, circular=None):
    one = {"kind": "rational1", "num": ["1"], "den": ["1"]}
    return theory_from_json({"alphabet": ["a"], "interval": interval or one,
                             "circular": circular or one})


def _linrep(bad):
    return _theory(interval={"kind": "linrep", "dim": 1, "init": [bad],
                             "letters": {"a": [["1"]]}, "final": ["1"]})


def _tracerep(bad):
    return _theory(circular={"kind": "tracerep", "dim": 1,
                             "letters": {"a": [["1"]]}, "weight": [[bad]]})


def _rational1(bad):
    return _theory(interval={"kind": "rational1", "num": [bad], "den": ["1"]})


def _algebra(bad):
    doc = frobenius_to_json(mat2_block(QQ, Fr(1)))
    doc["mult"][0][1][2] = bad
    return frobenius_from_json(QQ, doc)


def _algebra_f7(bad):
    doc = frobenius_to_json(mat2_block(F7, F7.one))
    doc["mult"][0][1][2] = bad
    return frobenius_from_json(F7, doc)


def _element(bad):
    return element_from_json(mat2_block(QQ, Fr(1)), ["1", "0", bad, "0"], "$.elem")


def _surface(bad):
    doc = {"components": [{"genus": 1, "boundaries": [[["1", "0", "0", "1"],
                                                        ["0", bad, "0", "0"]]]}]}
    return surface_from_json(mat2_block(QQ, Fr(1)), doc)


def _pair(bad):
    pair = knowledgeable_pair_cyclic(F5, F5.parse("2"))
    doc = {
        "open": frobenius_to_json(pair.open_algebra),
        "closed": frobenius_to_json(pair.closed_algebra),
        "zipper": pair.zipper.to_lists(),
        "cozipper": pair.cozipper.to_lists(),
    }
    doc["cozipper"][1][0] = bad
    return knowledgeable_from_json(F5, doc)


def _openclosed(bad):
    doc = {"open": frobenius_to_json(mat2_block(QQ, Fr(1))),
           "closed_series": {"num": ["1"], "den": ["1", bad]}}
    return openclosed_from_json(QQ, doc)


READERS = {
    "linrep": (_linrep, "interval.init[0]"),
    "tracerep": (_tracerep, "circular.weight[0][0]"),
    "rational1": (_rational1, "interval.num[0]"),
    "algebra": (_algebra, "$.mult[0][1][2]"),
    "algebra_f7": (_algebra_f7, "$.mult[0][1][2]"),
    "element": (_element, "$.elem[2]"),
    "surface": (_surface, "$.components[0].boundaries[0][1][1]"),
    "pair": (_pair, "$.cozipper[1][0]"),
    "openclosed": (_openclosed, "$.closed_series.den[1]"),
}


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("reader", READERS, ids=READERS.keys())
def test_reader_refuses_scalar_at_its_path(reader, bad):
    read, path = READERS[reader]
    read("1")  # the same document with a good scalar reads
    with pytest.raises(SchemaError) as exc:
        read(bad)
    assert exc.value.path == path


def test_f7_algebra_reader_refuses_a_denominator_divisible_by_7():
    # p divides the denominator in lowest terms: 7/14 is 1/2, 1/7 is refused
    assert _algebra_f7("7/14").mult[0][1][2] == F7.parse("1/2")
    with pytest.raises(SchemaError) as exc:
        _algebra_f7("1/7")
    assert exc.value.path == "$.mult[0][1][2]"
    assert exc.value.message == "$.mult[0][1][2]: denominator 7 is divisible by 7"


@pytest.mark.parametrize("bad", CLI_BAD.values(), ids=CLI_BAD.keys())
def test_cli_series_literal_refuses_scalar(bad, capsys):
    literal = bad if isinstance(bad, str) else json.dumps(bad)
    code = run(["onevar", "analyze", "--zi", f"1,{literal}", "--zc", "1"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert err["code"] == "schema"
    assert err["path"] == "--zi.num[1]"


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "F7"])
def test_parse_grammar(field):
    for text, value in [("3", 3), ("+3", 3), ("-0", 0), ("0/5", 0),
                        ("-3/2", Fr(-3, 2)), ("14/7", 2), (-4, -4),
                        ("9" * 4300, int("9" * 4300))]:
        assert field.parse(text) == field.of(value)
    for text in ["9" * 4301, "1/" + "9" * 4301, " 3", "3 ", "1_000", "٣",
                 "3/-2", "3/+2", "0x10", "inf", "nan", "2/", "/2", None, [1]]:
        with pytest.raises(FieldMismatch):
            field.parse(text)


_LONG = ["9" * 4300, "9" * 4301, "-" + "9" * 4300, "1/" + "9" * 4300,
         "1/" + "9" * 4301, "7" * 4300 + "/7"]
SCALARS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
    st.text(max_size=8),
    st.text(alphabet=" +-/0123456789_\u0663", max_size=8),
    st.sampled_from([" 3", "1_000", "\u0663", "+0", "-0/5", "2/4", "14/7", "3/14"]
                    + _LONG),
    st.builds("{}/0".format, st.integers(-9, 9)),
    st.builds(lambda n, k, p: f"{n}/{k * p}", st.integers(-50, 50), st.integers(1, 4),
              st.sampled_from([7, 1000003])),
    st.integers(-(10 ** 30), 10 ** 30),
    st.booleans(),
    st.floats(),
    st.none(),
)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(FIELDS), SCALARS)
def test_integer_readers_agree_with_parse(field, v):
    # the reader of vectors and cubes accepts what Field.parse accepts,
    # raises its message at the entry's path, and its ints wrap to its value
    try:
        want = field.parse(v)
    except FieldMismatch as e:
        for doc, shape, path in (([v], (1,), "$[0]"),
                                 ([[[v]]], (1, 1, 1), "$[0][0][0]")):
            with pytest.raises(SchemaError) as exc:
                field._read(doc, shape, "$")
            assert exc.value.path == path
            assert exc.value.message == f"{path}: {e.message}"
    else:
        got = field._read([v], (1,), "$")
        ints, d = _ints(field, [want])
        assert got == (tuple(ints), d)
        assert _wrap(field, *got) == (want,)
        assert field._read([[[v]]], (1, 1, 1), "$") == got


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), SCALARS)
def test_matrix_reader_agrees_with_parse(field, v):
    # the matrix reader of theory documents takes each entry as
    # Field.parse does, and its ints wrap to the parsed values
    try:
        want = field.parse(v)
    except FieldMismatch as e:
        with pytest.raises(SchemaError) as exc:
            field._read([["1", v]], (1, 2), "$")
        assert exc.value.path == "$[0][1]"
        assert exc.value.message == f"$[0][1]: {e.message}"
    else:
        got = field._read([["1", v]], (1, 2), "$")
        ints, d = _ints(field, [field.one, want])
        assert got == (tuple(ints), d)
        assert _wrap(field, *got) == (field.one, want)


@pytest.mark.parametrize("doc,path,message", [
    ("1", "$", "expected 2 rows"),
    ([["1", "2"]], "$", "expected 2 rows"),
    ([["1", "2"], "3"], "$[1]", "expected an array of 2 scalars"),
    ([["1", "2"], ["3"]], "$[1]", "expected an array of 2 scalars"),
])
def test_matrix_reader_shape_errors(doc, path, message):
    for field in FIELDS:
        with pytest.raises(SchemaError) as exc:
            field._read(doc, (2, 2), "$")
        assert (exc.value.path, exc.value.message) == (path, f"{path}: {message}")


# Well-formed spellings of one scalar, among them "q/q" forms over large
# primes q, which only a per-entry reduction keeps out of the common
# denominator, and denominators that 7 divides, which F_7 refuses unless
# they reduce away; and spellings the grammar refuses.
SPELLINGS = st.one_of(
    st.integers(-30, 30),
    st.from_regex(r"[+-]?[0-9]{1,6}(/[1-9][0-9]{0,5})?", fullmatch=True),
    st.builds(lambda n, q: f"{n * q}/{q}", st.integers(-3, 3),
              st.sampled_from([1000003, 998244353, 2 ** 61 - 1])),
    st.builds(lambda n, k: f"{n}/{7 * k}", st.integers(-20, 20), st.integers(1, 3)),
)
REFUSED = st.sampled_from(["1.5", "1/0", " 3", True, None, 0.5])
SHAPES = st.one_of(st.tuples(st.integers(0, 5)),
                   st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   st.integers(0, 2).map(lambda n: (n, n, n)))


def _arrays(shape, scalars, exact):
    """Nested arrays of the given shape; unless exact, any array may also
    come out too short, too long, or as no array at all."""
    if not shape:
        return scalars
    inner = _arrays(shape[1:], scalars, exact)
    right = st.lists(inner, min_size=shape[0], max_size=shape[0])
    if exact:
        return right
    return st.one_of(right, right, st.lists(inner, max_size=shape[0] + 1), st.just("1"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, F7]), SHAPES, st.booleans(), st.data())
def test_array_reader_matches_the_per_entry_reference(field, shape, exact, data):
    # Field._read gives what reading entry by entry through Field.parse
    # gives, already in canonical form, and raises the same error at the
    # same path at every depth
    doc = data.draw(_arrays(shape, SPELLINGS if exact else SPELLINGS | REFUSED, exact))
    try:
        want = read_array(field, doc, shape, "$")
    except SchemaError as e:
        with pytest.raises(SchemaError) as exc:
            field._read(doc, shape, "$")
        assert (exc.value.path, exc.value.message) == (e.path, e.message)
    else:
        got = field._read(doc, shape, "$")
        assert got == want
        assert _canonical(field.char, *got) == got
