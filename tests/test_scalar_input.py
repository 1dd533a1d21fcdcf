"""Every JSON reader takes its scalars through ``Field.parse``: an int, or a
string ``[+-]digits`` or ``[+-]digits/digits``.  Any other scalar is a
SchemaError at the path of the entry itself, including strings that
``Fraction`` would expand into huge numbers."""
import json
from fractions import Fraction as Fr

import pytest

from defekt.cli import run
from defekt.errors import FieldMismatch, SchemaError
from defekt.exactla import PrimeField, QQ
from defekt.frobenius import (
    element_from_json,
    frobenius_from_json,
    frobenius_to_json,
    surface_from_json,
)
from defekt.openclosed import knowledgeable_from_json, openclosed_from_json
from defekt.universal import theory_from_json

from factories import knowledgeable_pair_cyclic, mat2_block

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
}


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


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
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
