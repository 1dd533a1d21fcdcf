"""End-to-end tests for the command-line interface."""
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Fr

import pytest

import defekt
from defekt.cli import CIRCLE_BOUND, DEPTH_BOUND, run
from defekt.diagrams import hom_dim
from defekt.exactla import PRIME_BOUND, PrimeField, QQ
from defekt.frobenius import GENUS_BOUND, frobenius_to_json
from defekt.universal import theory_from_json

from factories import knowledgeable_pair_cyclic, mat2_block, nilpotent_block

EVAL1 = {
    "alphabet": [],
    "interval": {"kind": "rational1", "num": ["1"], "den": ["1"]},
    "circular": {"kind": "rational1", "num": ["5"], "den": ["1"]},
}
EX3 = {
    "alphabet": ["a"],
    "interval": {"kind": "rational1", "num": ["3", "1"], "den": ["1"]},
    "circular": {"kind": "rational1", "num": ["5"], "den": ["1"]},
}
# factories.two_letter_theory over QQ at scale 2: dim A(+) = 2, dim K = 8
TWO_LETTER = {
    "alphabet": ["a", "b"],
    "interval": {"kind": "linrep", "dim": 2, "init": ["1", "0"],
                 "letters": {"a": [["0", "1"], ["0", "0"]],
                             "b": [["1", "0"], ["1", "1"]]},
                 "final": ["1", "1"]},
    "circular": {"kind": "tracerep", "dim": 2,
                 "letters": {"a": [["0", "1"], ["1", "0"]],
                             "b": [["1", "1"], ["0", "1"]]},
                 "weight": [["2", "0"], ["0", "2"]]},
}
GEOM2 = {
    "alphabet": ["a"],
    "interval": {"kind": "rational1", "num": ["1"], "den": ["1", "-2"]},
    "circular": {"kind": "rational1", "num": ["2", "-3"], "den": ["1", "-3", "2"]},
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def pair5_doc():
    field = PrimeField(5)
    pair = knowledgeable_pair_cyclic(field, field.parse("2"))
    return {
        "field": {"type": "prime", "p": 5},
        "open": frobenius_to_json(pair.open_algebra),
        "closed": frobenius_to_json(pair.closed_algebra),
        "zipper": [[field.format(v) for v in pair.zipper.row(i)]
                   for i in range(pair.zipper.rows)],
        "cozipper": [[field.format(v) for v in pair.cozipper.row(i)]
                     for i in range(pair.cozipper.rows)],
    }


# -- theory subcommands ----------------------------------------------------------


def test_invariants(tmp_path, capsys):
    code, doc = run_cli(capsys, "invariants", write(tmp_path, "t.json", EX3))
    assert code == 0
    assert doc["triple"] == [2, 1, 1]
    assert doc["dimAp"] == 2
    assert doc["dimApm"] == 5
    assert doc["K_dim"] == 1
    assert doc["idempotents"] == {
        "count": 3,
        "each_idempotent": True,
        "orthogonal": True,
        "sum_is_unit": True,
    }


def test_minimize_zero_theory(tmp_path, capsys):
    zero = {
        "alphabet": ["a"],
        "interval": {"kind": "rational1", "num": ["0"], "den": ["1"]},
        "circular": {"kind": "rational1", "num": ["0"], "den": ["1"]},
    }
    code, doc = run_cli(capsys, "minimize", write(tmp_path, "z.json", zero))
    assert code == 0
    assert doc["dim"] == 0


def test_minimize_reports_the_model(tmp_path, capsys):
    code, doc = run_cli(capsys, "minimize", write(tmp_path, "g.json", GEOM2))
    assert code == 0
    assert doc == {
        "dim": 1,
        "action": {"a": [["2"]]},
        "cyclic": ["1"],
        "cotrace": ["1"],
        "word_basis": [""],
        "cobasis_words": [""],
    }


@pytest.mark.parametrize("part", ["interval", "circular"])
def test_rational_data_on_an_empty_alphabet_must_be_constant(tmp_path, capsys, part):
    theory = dict(EVAL1, **{part: {"kind": "rational1", "num": ["1", "1"], "den": ["1"]}})
    code, doc = run_cli(capsys, "invariants", write(tmp_path, "t.json", theory))
    assert code == 2
    assert doc["error"]["path"] == part
    assert doc["error"]["message"].endswith("an empty alphabet admits only constant data")

def test_frobenius_extract(tmp_path, capsys):
    code, doc = run_cli(capsys, "frobenius-extract",
                        write(tmp_path, "t.json", EX3))
    assert code == 0
    assert doc["algebra"]["dim"] == 1
    trace_of_unit = sum(
        Fr(u) * Fr(t)
        for u, t in zip(doc["algebra"]["unit"], doc["algebra"]["trace"])
    )
    assert trace_of_unit == Fr(3)
    assert doc["verify"]["passed"] is True


def test_eval_diagram(tmp_path, capsys):
    theory = write(tmp_path, "t.json", GEOM2)
    circle = write(tmp_path, "c.json", {
        "bottom": "", "top": "",
        "components": [{"kind": "circle", "word": "aaa"}],
    })
    code, doc = run_cli(capsys, "eval-diagram", theory, circle)
    assert code == 0
    assert doc == {"value": "9"}
    interval = write(tmp_path, "i.json", {
        "components": [{"kind": "interval", "word": "a"}],
    })
    code, doc = run_cli(capsys, "eval-diagram", theory, interval)
    assert code == 0
    assert doc == {"value": "2"}


def test_eval_diagram_names_an_inner_label_out_of_range(tmp_path, capsys):
    # dim A(+) = 2, so basis index 7 names no basis covector
    theory = write(tmp_path, "t.json", TWO_LETTER)
    interval = write(tmp_path, "i.json", {
        "components": [{"kind": "interval", "word": "ab", "head_label": 7}],
    })
    code, doc = run_cli(capsys, "eval-diagram", theory, interval)
    assert code == 1
    assert doc == {"error": {"code": "invalid_argument", "message":
                             "inner label 7 outside a state space of dimension 2"}}


def test_eval_diagram_refuses_to_write_a_scalar_over_4300_digits(tmp_path,
                                                                capsys):
    big = "1" + "0" * 4000
    theory = write(tmp_path, "t.json", {
        "alphabet": ["a"],
        "interval": {"kind": "linrep", "dim": 1, "init": ["1"], "final": ["1"],
                     "letters": {"a": [[big]]}},
        "circular": {"kind": "rational1", "num": ["1"], "den": ["1"]},
    })
    for word, code in (("a", 0), ("aa", 1)):
        diagram = write(tmp_path, "d.json", {
            "components": [{"kind": "interval", "word": word}],
        })
        out = run_cli(capsys, "eval-diagram", theory, diagram)
        assert out[0] == code
    assert out[1]["error"]["code"] == "size_bound"


def test_statespace(tmp_path, capsys):
    theory = write(tmp_path, "t.json", EX3)
    for eps, dim in (("+-", 5), ("+", 2), ("", 1)):
        code, doc = run_cli(capsys, "statespace", theory, "--eps", eps)
        assert code == 0
        assert doc == {"eps": eps, "dim": dim}


def test_statespace_refuses_a_gram_matrix_over_the_bound(tmp_path, capsys):
    # D_K(3) at dim K = 8 has 3,072 elements: the bound is checked from
    # their count before any is built
    theory = write(tmp_path, "t.json", TWO_LETTER)
    start = time.perf_counter()
    code, doc = run_cli(capsys, "statespace", theory, "--eps", "+++---")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert doc["error"]["code"] == "size_bound"


def test_statespace_answers_past_the_spanning_gram_bound(tmp_path, capsys):
    # D_K(4) has 24 elements at dim K = 1, where 10,368 spanning diagrams
    # on each side were over the bound; bending gives the same dimension
    theory = write(tmp_path, "t.json", EX3)
    code, doc = run_cli(capsys, "statespace", theory, "--eps", "++++----")
    assert (code, doc) == (0, {"eps": "++++----", "dim": 2839})
    assert hom_dim(theory_from_json(EX3), "----", "----") == 2839


def test_statespace_rejects_bad_signs(tmp_path, capsys):
    theory = write(tmp_path, "t.json", EX3)
    code, doc = run_cli(capsys, "statespace", theory, "--eps", "+x")
    assert code == 1
    assert doc["error"]["code"] == "boundary_mismatch"


# -- one-variable subcommands ------------------------------------------------------


def test_onevar_analyze(capsys):
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1:1,-2", "--zc", "2,-3:1,-3,2")
    assert code == 0
    assert doc["g_interval"] == ["-2", "1"]
    assert doc["dims"] == {"A_plus": 1, "U": 2, "K": 1}
    assert doc["z_trace"] == {"num": ["1"], "den": ["1", "-2"]}


def test_onevar_analyze_over_a_prime_field(capsys):
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1:1,-2", "--zc", "3", "--field", "prime:7")
    assert code == 0
    # -2 is the residue 5 mod 7
    assert doc["g_interval"] == ["5", "1"]
    assert doc["z_trace"] == {"num": ["1"], "den": ["1", "5"]}
    assert doc["dims"] == {"A_plus": 1, "U": 2, "K": 2}


def test_onevar_polynomial_literals(capsys):
    # A literal without a colon is a polynomial with denominator one.
    code, doc = run_cli(capsys, "onevar", "crosscheck",
                        "--zi", "1,1,-2", "--zc", "1,1,-2")
    assert code == 0
    assert doc["pass"] is True
    assert doc["dims_onevar"] == doc["dims_universal"]


def test_onevar_crosscheck(capsys):
    code, doc = run_cli(capsys, "onevar", "crosscheck",
                        "--zi", "1:1,-2", "--zc", "2,-3:1,-3,2",
                        "--depth", "6")
    assert code == 0
    assert doc == {
        "pass": True,
        "dims_onevar": [1, 2, 1],
        "dims_universal": [1, 2, 1],
        "depth": 6,
        "counterexample": None,
    }


def test_onevar_crosscheck_rejects_negative_depth(capsys):
    code, doc = run_cli(capsys, "onevar", "crosscheck",
                        "--zi", "1:1,-2", "--zc", "1", "--depth", "0")
    assert code == 0 and doc["depth"] == 0
    code, doc = run_cli(capsys, "onevar", "crosscheck",
                        "--zi", "1:1,-2", "--zc", "1", "--depth", "-1")
    assert code == 2
    assert doc["error"]["path"] == "--depth"


def test_onevar_crosscheck_bounds_the_depth(capsys):
    code, doc = run_cli(capsys, "onevar", "crosscheck", "--zi", "1:1,-2",
                        "--zc", "1", "--depth", str(DEPTH_BOUND))
    assert code == 0 and doc["pass"] is True and doc["depth"] == DEPTH_BOUND
    code, doc = run_cli(capsys, "onevar", "crosscheck", "--zi", "1:1,-2",
                        "--zc", "1", "--depth", str(DEPTH_BOUND + 1))
    assert code == 2
    assert doc["error"]["path"] == "--depth"


def test_onevar_rejects_pole_at_zero(capsys):
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1:0,1", "--zc", "1")
    assert code == 1
    assert doc["error"]["code"] == "pole_at_zero"


def test_field_flag_reduces_literals(capsys):
    code, doc = run_cli(capsys, "onevar", "crosscheck",
                        "--zi", "1:1,-2", "--zc", "2,-3:1,-3,2",
                        "--field", "prime:7")
    assert code == 0
    assert doc["pass"] is True
    # 1/7 has no meaning mod 7
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1/7", "--zc", "1", "--field", "prime:7")
    assert code == 2
    assert doc["error"]["code"] == "schema"


def test_field_flag_validation(capsys):
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1", "--zc", "1", "--field", "prime:9")
    assert code == 2
    code, doc = run_cli(capsys, "onevar", "analyze",
                        "--zi", "1", "--zc", "1", "--field", "complex")
    assert code == 2
    assert doc["error"]["path"] == "--field"


def test_field_flag_takes_large_primes_up_to_the_bound(capsys):
    start = time.perf_counter()
    code, doc = run_cli(capsys, "onevar", "analyze", "--zi", "1", "--zc", "1",
                        "--field", f"prime:{2**61 - 1}")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    code, doc = run_cli(capsys, "onevar", "analyze", "--zi", "1", "--zc", "1",
                        "--field", f"prime:{PRIME_BOUND}")
    assert code == 2
    assert doc["error"]["path"] == "--field.p"


def test_field_flag_refuses_digits_int_cannot_read(capsys):
    # str.isdigit accepts both, int() raises on both
    for digits in ("\u00b2", "7" * 4301):
        code, doc = run_cli(capsys, "onevar", "analyze",
                            "--zi", "1", "--zc", "1", "--field", "prime:" + digits)
        assert code == 2
        assert doc["error"]["path"] == "--field"


# -- Frobenius subcommands ----------------------------------------------------------


def test_frob_check(tmp_path, capsys):
    path = write(tmp_path, "b.json", frobenius_to_json(mat2_block(QQ, Fr(1))))
    code, doc = run_cli(capsys, "frob", "check", path)
    assert code == 0
    assert doc["passed"] is True
    assert doc["nondegenerate"] is True
    assert doc["radical_witness"] is None


def test_frob_check_reports_failure_with_exit_zero(tmp_path, capsys):
    # A failed axiom is a result, not an error.
    path = write(tmp_path, "b.json",
                 frobenius_to_json(nilpotent_block(QQ, Fr(1), Fr(0))))
    code, doc = run_cli(capsys, "frob", "check", path)
    assert code == 0
    assert doc["passed"] is False
    assert doc["nondegenerate"] is False
    assert doc["radical_witness"] is not None


def test_frob_beta(tmp_path, capsys):
    path = write(tmp_path, "b.json", frobenius_to_json(mat2_block(QQ, Fr(1))))
    code, doc = run_cli(capsys, "frob", "beta", path)
    assert code == 0
    assert doc["kills_commutators"] is True
    assert doc["lands_in_center"] is True
    assert doc["is_zero"] is False
    assert doc["quotient_reps"] == [0]
    assert doc["matrix"] == [["1"]]


def test_surface_eval(tmp_path, capsys):
    algebra = write(tmp_path, "b.json", frobenius_to_json(mat2_block(QQ, Fr(1))))
    surface = write(tmp_path, "s.json", {
        "components": [{"genus": 1, "boundaries": [[["1", "0", "0", "2"]]]}],
    })
    code, doc = run_cli(capsys, "surface", "eval", algebra, surface)
    assert code == 0
    assert doc == {"value": "6"}


def test_surface_eval_rejects_closed_components(tmp_path, capsys):
    algebra = write(tmp_path, "b.json", frobenius_to_json(mat2_block(QQ, Fr(1))))
    surface = write(tmp_path, "s.json", {
        "components": [{"genus": 1, "boundaries": []}],
    })
    code, doc = run_cli(capsys, "surface", "eval", algebra, surface)
    assert code == 1
    assert doc["error"]["code"] == "closed_component"


def test_surface_eval_bounds_the_genus(tmp_path, capsys):
    algebra = write(tmp_path, "b.json", frobenius_to_json(mat2_block(QQ, Fr(1))))
    for genus, code in ((GENUS_BOUND, 0), (GENUS_BOUND + 1, 2)):
        surface = write(tmp_path, "s.json", {"components": [
            {"genus": 0, "boundaries": [[]]},
            {"genus": genus, "boundaries": [[["1", "0", "0", "2"]]]},
        ]})
        out = run_cli(capsys, "surface", "eval", algebra, surface)
        assert out[0] == code
    assert out[1]["error"]["path"] == "$.components[1].genus"


# -- open/closed subcommands ---------------------------------------------------------


def test_oc_check(tmp_path, capsys):
    path = write(tmp_path, "p.json", pair5_doc())
    code, doc = run_cli(capsys, "oc", "check", path)
    assert code == 0
    assert doc["passed"] is True
    assert doc["cardy"] is True
    assert doc["open"]["passed"] is True
    assert doc["closed"]["passed"] is True


def test_oc_eval(tmp_path, capsys):
    theory = write(tmp_path, "t.json", {
        "open": frobenius_to_json(mat2_block(QQ, Fr(1))),
        "closed_series": {"num": ["7", "2"], "den": ["1"]},
    })
    surface = write(tmp_path, "s.json", {
        "components": [
            {"genus": 1, "boundaries": []},
            {"genus": 0, "boundaries": [[["1", "0", "0", "2"]]]},
        ],
    })
    code, doc = run_cli(capsys, "oc", "eval", theory, surface)
    assert code == 0
    assert doc == {"value": "6"}


def test_oc_eval_bounds_the_genus_of_closed_components(tmp_path, capsys):
    theory = write(tmp_path, "t.json", {
        "open": frobenius_to_json(mat2_block(QQ, Fr(1))),
        "closed_series": {"num": ["1"], "den": ["1", "-1"]},
    })
    for genus, code in ((GENUS_BOUND, 0), (GENUS_BOUND + 1, 2)):
        surface = write(tmp_path, "s.json", {
            "components": [{"genus": genus, "boundaries": []}],
        })
        out = run_cli(capsys, "oc", "eval", theory, surface)
        assert out[0] == code
    assert out[1]["error"]["path"] == "$.components[0].genus"


def test_oc_circle_dim(tmp_path, capsys):
    field = PrimeField(5)
    pair = knowledgeable_pair_cyclic(field, field.parse("2"))
    theory = write(tmp_path, "t.json", {
        "field": {"type": "prime", "p": 5},
        "open": frobenius_to_json(pair.open_algebra),
        "closed_series": {"num": ["2", "2"], "den": ["1"]},
    })
    code, doc = run_cli(capsys, "oc", "circle-dim", theory,
                        "--gmax", "2", "--smax", "2")
    assert code == 0
    assert doc == {
        "gmax": 2,
        "smax": 2,
        "dim": 2,
        "inner_dim": 2,
        "stabilized": True,
    }


def test_oc_circle_dim_validates_bounds(tmp_path, capsys):
    theory = write(tmp_path, "t.json", {
        "open": frobenius_to_json(mat2_block(QQ, Fr(1))),
        "closed_series": {"num": ["1"], "den": ["1"]},
    })
    code, doc = run_cli(capsys, "oc", "circle-dim", theory, "--gmax", "0")
    assert code == 2
    assert doc["error"]["path"] == "--gmax"
    top = str(CIRCLE_BOUND)
    for flag, other in (("--gmax", "--smax"), ("--smax", "--gmax")):
        code, doc = run_cli(capsys, "oc", "circle-dim", theory, flag, top, other, "1")
        assert code == 0 and doc[flag[2:]] == CIRCLE_BOUND
        code, doc = run_cli(capsys, "oc", "circle-dim", theory,
                            flag, str(CIRCLE_BOUND + 1), other, "1")
        assert code == 2
        assert doc["error"]["path"] == flag


# -- plumbing ------------------------------------------------------------------------


def test_malformed_input_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"not json')
    code, doc = run_cli(capsys, "frob", "check", str(broken))
    assert code == 2
    assert doc["error"]["code"] == "schema"
    code, doc = run_cli(capsys, "frob", "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_huge_json_int_exits_two(tmp_path, capsys):
    # the JSON decoder refuses ints of more than 4,300 digits
    broken = tmp_path / "huge.json"
    broken.write_text('{"dim": 1, "mult": [[["1"]]], "unit": ["1"], '
                      '"trace": [' + "7" * 5000 + "]}")
    code, doc = run_cli(capsys, "frob", "check", str(broken))
    assert code == 2
    assert doc["error"]["code"] == "schema"
    assert doc["error"]["path"] == str(broken)


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # the JSON decoder runs out of recursion depth on this nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, doc = run_cli(capsys, "minimize", str(deep))
    assert code == 2
    assert doc["error"]["code"] == "schema"
    assert "invalid JSON: " in doc["error"]["message"]
    assert doc["error"]["path"] == str(deep)


def test_schema_errors_name_the_path(tmp_path, capsys):
    doc = pair5_doc()
    del doc["zipper"]
    path = write(tmp_path, "p.json", doc)
    code, out = run_cli(capsys, "oc", "check", path)
    assert code == 2
    assert out["error"]["path"] == "$.zipper"


def test_out_flag_and_byte_stability(tmp_path, capsys):
    theory = write(tmp_path, "t.json", EX3)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["invariants", theory, "--out", str(first)]) == 0
    assert run(["invariants", theory, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["triple"] == [2, 1, 1]


@pytest.mark.parametrize("where", ["missing-dir", "dir"])
def test_out_path_that_cannot_be_written_exits_two(tmp_path, capsys, where):
    theory = write(tmp_path, "t.json", EX3)
    out = tmp_path / "missing" / "o.json" if where == "missing-dir" else tmp_path
    code, doc = run_cli(capsys, "minimize", theory, "--out", str(out))
    assert code == 2
    assert doc["error"]["code"] == "schema"
    assert doc["error"]["path"] == "--out"
    assert "cannot write output: " in doc["error"]["message"]


def test_module_entry_point(tmp_path):
    theory = write(tmp_path, "t.json", EVAL1)
    # the child imports the same defekt as this process, installed or not
    src = os.path.dirname(os.path.dirname(defekt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "defekt.cli", "statespace", theory, "--eps", "+-"],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"eps": "+-", "dim": 2}
