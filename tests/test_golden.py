"""Output bytes pinned against a golden file.

``tests/golden_outputs.json`` holds the CLI JSON of ``minimize``,
``invariants`` and ``frobenius-extract`` for every ``theory_corpus()``
theory read over QQ and over F_7, and ``verify``, the dual bases and the
hole element of fixed factory algebras over QQ, F_7 and F_1000003.
``tests/golden_onevar.json`` holds the one-variable outputs: the CLI JSON
of ``onevar analyze`` and ``onevar crosscheck`` on fixed literals, a pole
at zero and a malformed literal among them, and of ``minimize``,
``invariants`` and ``frobenius-extract`` on ``rational1`` theory documents,
over QQ and over F_7.  A kernel change must leave every byte of both files
as it is.  Regenerate them (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from defekt.cli import run
from defekt.errors import DefektError
from defekt.exactla import Matrix
from defekt.frobenius import frobenius_to_json, verify

from factories import (
    FIELDS,
    group_algebra_cyclic,
    jordan3_block,
    mat2_block,
    nilpotent_block,
    point_block,
    random_symmetric_frobenius,
    theory_corpus,
)

GOLDEN = Path(__file__).with_name("golden_outputs.json")
GOLDEN_ONEVAR = Path(__file__).with_name("golden_onevar.json")
COMMANDS = ("minimize", "invariants", "frobenius-extract")
FIELD_FLAGS = ("rational", "prime:7")


def theory_doc(t) -> dict:
    """A corpus theory as a linrep document with tracerep (or
    trace_of_interval) circle data."""
    rep, circ = t.interval, t.circular
    letters = dict(zip(t.alphabet, (m.to_lists() for m in rep.letters)))
    doc = {
        "field": t.field.tag(),
        "alphabet": list(t.alphabet),
        "interval": {"kind": "linrep", "dim": rep.dim,
                     "init": rep.init.to_lists()[0],
                     "final": [r[0] for r in rep.final.to_lists()],
                     "letters": letters},
    }
    if t.circular_is_trace:
        doc["circular"] = {"kind": "trace_of_interval"}
    else:
        doc["circular"] = {"kind": "tracerep", "dim": circ.dim,
                           "weight": circ.weight.to_lists(),
                           "letters": dict(zip(t.alphabet,
                                               (m.to_lists() for m in circ.letters)))}
    return doc


def cli_json(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    return {"exit": code, "output": json.loads(out.getvalue())}


def _column(v: Matrix) -> list:
    return [v.field.format(x) for x in v.flat()]


def factory_algebras() -> list:
    out = []
    for F in FIELDS:
        z, o = F.zero, F.one
        r, s = F.parse("2"), F.parse("-3/5")
        out += [(f"point_{F!r}", point_block(F, r)),
                (f"nilpotent_{F!r}", nilpotent_block(F, r, s)),
                (f"nilpotent_degenerate_{F!r}", nilpotent_block(F, o, z)),
                (f"jordan3_{F!r}", jordan3_block(F, z, s, r)),
                (f"mat2_{F!r}", mat2_block(F, s)),
                (f"cyclic3_{F!r}", group_algebra_cyclic(F, 3))]
        rng = random.Random(401)
        out += [(f"random{i}_{F!r}", random_symmetric_frobenius(rng, F, max_dim=5))
                for i in range(3)]
    return out


def algebra_outputs(b) -> dict:
    rep = verify(b)
    out = {"algebra": frobenius_to_json(b),
           "verify": [rep.associative, rep.associative_witness, rep.unital,
                      rep.unital_witness, rep.symmetric, rep.symmetric_witness,
                      rep.nondegenerate,
                      None if rep.radical_witness is None else _column(rep.radical_witness)]}
    try:
        xs, ys = b.duals
        out["duals"] = [[_column(x) for x in xs], [_column(y) for y in ys]]
        out["hole"] = _column(b.hole)
    except DefektError as e:
        out["duals"] = out["hole"] = {"error": e.code}
    return out


def golden_outputs(tmp_path) -> dict:
    theories = {}
    for name, t in theory_corpus():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(theory_doc(t)))
        theories[name] = {f"{cmd} --field {flag}": cli_json(
            [cmd, str(path), "--field", flag])
            for cmd in COMMANDS for flag in FIELD_FLAGS}
    return {"theories": theories,
            "algebras": {name: algebra_outputs(b) for name, b in factory_algebras()}}


# --zi and --zc literals of ``onevar analyze`` and ``onevar crosscheck``;
# the last two fail, at a pole at zero (exit 1) and at a malformed literal
# (exit 2)
ONEVAR_SERIES = (
    ("1:1,-2", "3,-5:1,-3,2"),
    ("1,1:1,-1,-1", "2:1,-1"),
    ("3,1", "5"),
    ("1/2,0,4:3,1,0,-2", "1,1:1,-1,-1"),
    ("2:1,-2,1", "-1:1,-2,1"),
    ("0", "1:1,1"),
    ("1:0,1", "1"),
    ("1,x", "1"),
)


def _rational1(num, den) -> dict:
    return {"kind": "rational1", "num": num, "den": den}


TRACE = {"kind": "trace_of_interval"}
# one-letter and empty-alphabet theories with both circle kinds
ONEVAR_THEORIES = {
    "geometric": {"alphabet": ["a"], "interval": _rational1(["1"], ["1", "-2"]),
                  "circular": _rational1(["3", "-5"], ["1", "-3", "2"])},
    "fibonacci_trace": {"alphabet": ["a"],
                        "interval": _rational1(["1", "1"], ["1", "-1", "-1"]),
                        "circular": TRACE},
    "polynomial": {"alphabet": ["a"], "interval": _rational1(["3", "1", "1/2"], ["1"]),
                   "circular": _rational1(["5", "0", "1"], ["2", "-1"])},
    "empty": {"alphabet": [], "interval": _rational1(["1"], ["1"]),
              "circular": _rational1(["5"], ["1"])},
    "empty_trace": {"alphabet": [], "interval": _rational1(["2/3"], ["1"]),
                    "circular": TRACE},
}


def onevar_outputs(tmp_path) -> dict:
    series = {}
    for zi, zc in ONEVAR_SERIES:
        for flag in FIELD_FLAGS:
            # --zi=... keeps a literal that starts with "-" from reading as a flag
            tail = [f"--zi={zi}", f"--zc={zc}", "--field", flag]
            series[" ".join(["analyze"] + tail)] = cli_json(["onevar", "analyze"] + tail)
            series[" ".join(["crosscheck"] + tail)] = cli_json(
                ["onevar", "crosscheck", "--depth", "6"] + tail)
    theories = {}
    for name, doc in ONEVAR_THEORIES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        theories[name] = {f"{cmd} --field {flag}": cli_json(
            [cmd, str(path), "--field", flag])
            for cmd in COMMANDS for flag in FIELD_FLAGS}
    return {"series": series, "theories": theories}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=0, separators=(",", ":")) + "\n"


def test_outputs_match_the_golden_file(tmp_path):
    assert _dumps(golden_outputs(tmp_path)) == GOLDEN.read_text()


def test_golden_file_covers_both_fields_and_stays_small():
    doc = json.loads(GOLDEN.read_text())
    assert len(doc["theories"]) == len(theory_corpus())
    assert all(v["exit"] == 0 for outs in doc["theories"].values()
               for k, v in outs.items() if k.endswith("rational"))
    assert {a["algebra"]["field"]["type"] for a in doc["algebras"].values()} == {
        "rational", "prime"}
    assert GOLDEN.stat().st_size < 50_000


def test_onevar_outputs_match_the_golden_file(tmp_path):
    assert _dumps(onevar_outputs(tmp_path)) == GOLDEN_ONEVAR.read_text()


def test_onevar_golden_file_covers_both_fields_every_exit_and_stays_small():
    doc = json.loads(GOLDEN_ONEVAR.read_text())
    outs = list(doc["series"].values()) + [
        v for t in doc["theories"].values() for v in t.values()]
    assert {v["exit"] for v in outs} == {0, 1, 2}
    assert all(any(k.endswith(flag) for k in doc["series"]) for flag in FIELD_FLAGS)
    assert GOLDEN_ONEVAR.stat().st_size < 20_000


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for path, outputs in ((GOLDEN, golden_outputs), (GOLDEN_ONEVAR, onevar_outputs)):
            path.write_text(_dumps(outputs(Path(d))))
            print(f"wrote {path} ({path.stat().st_size} bytes)")
