"""Command-line entry point: JSON documents in, deterministic JSON out.

Each subcommand maps onto one operation family of the library.
``minimize``, ``invariants``, ``frobenius-extract``, ``eval-diagram`` and
``statespace`` ingest a theory document; ``onevar analyze`` and ``onevar
crosscheck`` take one-variable rational data as command-line literals;
``frob check``, ``frob beta`` and ``surface eval`` work on a symmetric
Frobenius algebra document; ``oc check``, ``oc eval`` and
``oc circle-dim`` on open/closed pair and theory documents.

Every scalar in the output is an exact string such as ``"3/2"``, never a
float, and the output is byte-stable across runs.  A domain error (for
example a degenerate trace or a pole at zero) exits with code 1, malformed
input with code 2; both print a machine-readable
``{"error": {"code": ..., "message": ...}}`` object.

Rational-function literals for ``--zi`` and ``--zc`` are comma-separated
coefficient lists, constant term first, with an optional denominator after
a colon: ``1,1,-2`` is the polynomial 1 + T - 2T^2 and ``1:1,-2`` is
1/(1 - 2T).  ``--field prime:7`` re-reads every scalar literal of the run
mod 7 (a denominator divisible by 7 is an error); ``--field rational``
forces exact rationals, which is also the default when the input document
carries no field tag.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .diagrams import diagram_from_json, evaluate_closed, state_space_dim
from .errors import DefektError, SchemaError
from .exactla import QQ, Field, Matrix, field_from_json
from .frobenius import (
    FrobeniusAlgebra,
    beta_map,
    eval_surface,
    frobenius_from_json,
    frobenius_to_json,
    surface_from_json,
    verify,
)
from .onevar import analysis_to_json, analyze, cross_check
from .openclosed import (
    check_knowledgeable,
    eval_oc_closed,
    knowledgeable_from_json,
    openclosed_from_json,
    state_space_circle,
)
from .series import RationalFunction1, word_to_str
from .universal import (
    build_pair_algebra,
    idempotent_report,
    invariant_triple,
    theory_from_json,
)

__all__ = ["main", "run"]

# Largest accepted --gmax and --smax of ``oc circle-dim``, whose Gram
# matrix has ((gmax+1)(smax+1))^2 entries to rank.
CIRCLE_BOUND = 16
# Largest accepted --depth of ``onevar crosscheck``, which compares the
# words a^n for n <= depth at n matrix products each.
DEPTH_BOUND = 64


# -- input helpers -------------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read input: {exc}") from None
    # bad JSON, bad UTF-8, an int over 4,300 digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _parse_field_flag(text: str) -> Field:
    if text == "rational":
        return QQ
    if text.startswith("prime:"):
        digits = text[len("prime:"):]
        # ASCII digits within Python's 4,300-digit limit for int()
        if not re.fullmatch("[0-9]{1,4300}", digits):
            raise SchemaError("--field", f"expected a prime after 'prime:', got {digits!r}")
        return field_from_json({"type": "prime", "p": int(digits)}, "--field")
    raise SchemaError("--field", f"unknown field {text!r}; use 'rational' or 'prime:p'")


def _resolve_field(doc, args) -> Field:
    """Field for a document: the --field override, else the document's own
    tag, else the tag of its open algebra, else the rationals."""
    if args.field:
        return _parse_field_flag(args.field)
    if isinstance(doc, dict):
        if "field" in doc:
            return field_from_json(doc["field"])
        sub = doc.get("open")
        if isinstance(sub, dict) and "field" in sub:
            return field_from_json(sub["field"], "open.field")
    return QQ


def _load_theory(args):
    doc = _read_json(args.theory)
    override = _parse_field_flag(args.field) if args.field else None
    return theory_from_json(doc, override)


def _load_frobenius(args) -> FrobeniusAlgebra:
    doc = _read_json(args.algebra)
    return frobenius_from_json(_resolve_field(doc, args), doc)


def _parse_series(field: Field, text: str, flag: str) -> RationalFunction1:
    parts = text.split(":")
    if len(parts) > 2:
        raise SchemaError(flag, "expected 'num' or 'num:den' coefficient lists")
    num = [piece.strip() for piece in parts[0].split(",")]
    den = [piece.strip() for piece in parts[1].split(",")] if len(parts) == 2 else ["1"]
    return RationalFunction1.from_lists(field, num, den, flag)


# -- output helpers ------------------------------------------------------------


def _emit(doc, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vector_json(v: Matrix) -> list:
    fmt = v.field.format
    return [fmt(x) for x in v.flat()]


def _verify_json(rep) -> dict:
    return {
        "passed": rep.passed,
        "associative": rep.associative,
        "associative_witness": (
            None if rep.associative_witness is None else list(rep.associative_witness)
        ),
        "unital": rep.unital,
        "unital_witness": rep.unital_witness,
        "symmetric": rep.symmetric,
        "symmetric_witness": (
            None if rep.symmetric_witness is None else list(rep.symmetric_witness)
        ),
        "nondegenerate": rep.nondegenerate,
        "radical_witness": (
            None if rep.radical_witness is None else _vector_json(rep.radical_witness)
        ),
    }


# -- subcommand handlers -------------------------------------------------------


def _cmd_minimize(args) -> dict:
    t = _load_theory(args)
    ss = t.statespace
    return {
        "dim": ss.dim,
        "action": {
            name: ss.letters[i].to_lists() for i, name in enumerate(t.alphabet)
        },
        "cyclic": _vector_json(ss.final),
        "cotrace": _vector_json(ss.init),
        "word_basis": [word_to_str(t.alphabet, w) for w in ss.word_basis],
        "cobasis_words": [word_to_str(t.alphabet, w) for w in ss.cobasis_words],
    }


def _cmd_invariants(args) -> dict:
    t = _load_theory(args)
    pa = build_pair_algebra(t)
    idem = idempotent_report(pa)
    return {
        "triple": list(invariant_triple(t)),
        "dimAp": pa.k,
        "dimApm": pa.dim,
        "U_dim": pa.U_dim,
        "U_prime_dim": pa.U_prime_dim,
        "K_dim": pa.K_dim,
        "idempotents": {
            "count": len(idem.idempotents),
            "each_idempotent": idem.each_idempotent,
            "orthogonal": idem.orthogonal,
            "sum_is_unit": idem.sum_is_unit,
        },
    }


def _cmd_frobenius_extract(args) -> dict:
    alg = _load_theory(args).pair_algebra.kernel
    return {
        "algebra": frobenius_to_json(alg),
        "verify": _verify_json(verify(alg)),
    }


def _cmd_eval_diagram(args) -> dict:
    t = _load_theory(args)
    d = diagram_from_json(t.alphabet, _read_json(args.diagram))
    return {"value": t.field.format(evaluate_closed(t, d))}


def _cmd_statespace(args) -> dict:
    t = _load_theory(args)
    return {"eps": args.eps, "dim": state_space_dim(t, args.eps)}


def _cmd_onevar_analyze(args) -> dict:
    field = _parse_field_flag(args.field) if args.field else QQ
    zi = _parse_series(field, args.zi, "--zi")
    zc = _parse_series(field, args.zc, "--zc")
    return analysis_to_json(analyze(zi, zc))


def _cmd_onevar_crosscheck(args) -> dict:
    if args.depth < 0:
        raise SchemaError("--depth", "must be at least 0")
    if args.depth > DEPTH_BOUND:
        raise SchemaError("--depth", f"must be at most {DEPTH_BOUND}")
    field = _parse_field_flag(args.field) if args.field else QQ
    zi = _parse_series(field, args.zi, "--zi")
    zc = _parse_series(field, args.zc, "--zc")
    rep = cross_check(zi, zc, args.depth)
    return {
        "pass": rep.passed,
        "dims_onevar": list(rep.dims_onevar),
        "dims_universal": list(rep.dims_universal),
        "depth": rep.depth,
        "counterexample": rep.counterexample,
    }


def _cmd_frob_check(args) -> dict:
    return _verify_json(verify(_load_frobenius(args)))


def _cmd_frob_beta(args) -> dict:
    rep = beta_map(_load_frobenius(args))
    return {
        "kills_commutators": rep.kills_commutators,
        "lands_in_center": rep.lands_in_center,
        "is_zero": rep.is_zero,
        "commutators": [_vector_json(v) for v in rep.commutators],
        "center": [_vector_json(v) for v in rep.center],
        "quotient_reps": list(rep.quotient_reps),
        "matrix": rep.matrix.to_lists(),
    }


def _cmd_surface_eval(args) -> dict:
    b = _load_frobenius(args)
    s = surface_from_json(b, _read_json(args.surface))
    return {"value": b.field.format(eval_surface(b, s))}


def _cmd_oc_check(args) -> dict:
    doc = _read_json(args.pair)
    pair = knowledgeable_from_json(_resolve_field(doc, args), doc)
    rep = check_knowledgeable(pair)
    return {
        "passed": rep.passed,
        "open": _verify_json(rep.open_report),
        "closed": _verify_json(rep.closed_report),
        "closed_commutative": rep.closed_commutative,
        "cozipper_algebra_hom": rep.cozipper_algebra_hom,
        "cozipper_unital": rep.cozipper_unital,
        "cozipper_image_central": rep.cozipper_image_central,
        "zipper_coalgebra_hom": rep.zipper_coalgebra_hom,
        "zipper_trace_respecting": rep.zipper_trace_respecting,
        "duality": rep.duality,
        "cardy": rep.cardy,
    }


def _load_openclosed(args):
    doc = _read_json(args.theory)
    return openclosed_from_json(_resolve_field(doc, args), doc)


def _cmd_oc_eval(args) -> dict:
    t = _load_openclosed(args)
    s = surface_from_json(t.open_algebra, _read_json(args.surface))
    return {"value": t.open_algebra.field.format(eval_oc_closed(t, s))}


def _cmd_oc_circle_dim(args) -> dict:
    t = _load_openclosed(args)
    for flag, value in (("--gmax", args.gmax), ("--smax", args.smax)):
        if value < 1:
            raise SchemaError(flag, "must be at least 1")
        if value > CIRCLE_BOUND:
            raise SchemaError(flag, f"must be at most {CIRCLE_BOUND}")
    space = state_space_circle(t, args.gmax, args.smax)
    return {
        "gmax": args.gmax,
        "smax": args.smax,
        "dim": space.dim,
        "inner_dim": space.inner_dim,
        "stabilized": space.stabilized,
    }


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", metavar="TAG",
                        help="field override: 'rational' or 'prime:p'")
    common.add_argument("--out", metavar="PATH",
                        help="write the JSON result to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="defekt",
        description="Exact invariants of one-dimensional defect theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", parents=[common],
                       help="minimal model of the interval evaluation")
    p.add_argument("theory", help="theory JSON document")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("invariants", parents=[common],
                       help="dimension triple and idempotent data of a theory")
    p.add_argument("theory")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("frobenius-extract", parents=[common],
                       help="kernel ideal of a theory as a Frobenius algebra")
    p.add_argument("theory")
    p.set_defaults(handler=_cmd_frobenius_extract)

    p = sub.add_parser("eval-diagram", parents=[common],
                       help="evaluate a closed diagram in a theory")
    p.add_argument("theory")
    p.add_argument("diagram", help="diagram JSON document")
    p.set_defaults(handler=_cmd_eval_diagram)

    p = sub.add_parser("statespace", parents=[common],
                       help="state space dimension for a boundary sign sequence")
    p.add_argument("theory")
    p.add_argument("--eps", required=True, metavar="SIGNS",
                   help="boundary signs such as '+-+' (may be empty)")
    p.set_defaults(handler=_cmd_statespace)

    onevar = sub.add_parser("onevar", help="one-variable rational analysis")
    ovsub = onevar.add_subparsers(dest="subcommand", required=True)
    p = ovsub.add_parser("analyze", parents=[common],
                         help="characteristic polynomials, trace series, dims")
    p.add_argument("--zi", required=True, metavar="COEFFS",
                   help="interval series, e.g. '1:1,-2' for 1/(1-2T)")
    p.add_argument("--zc", required=True, metavar="COEFFS",
                   help="circle series, same grammar")
    p.set_defaults(handler=_cmd_onevar_analyze)
    p = ovsub.add_parser("crosscheck", parents=[common],
                         help="compare against the general pair construction")
    p.add_argument("--zi", required=True, metavar="COEFFS")
    p.add_argument("--zc", required=True, metavar="COEFFS")
    p.add_argument("--depth", type=int, default=8,
                   help="word length bound for the trace comparison")
    p.set_defaults(handler=_cmd_onevar_crosscheck)

    frob = sub.add_parser("frob", help="symmetric Frobenius algebra checks")
    fsub = frob.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("check", parents=[common],
                        help="verify the algebra and trace axioms")
    p.add_argument("algebra", help="algebra JSON document")
    p.set_defaults(handler=_cmd_frob_check)
    p = fsub.add_parser("beta", parents=[common],
                        help="window map on commutator quotient and center")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_frob_beta)

    surface = sub.add_parser("surface", help="decorated surface evaluation")
    ssub = surface.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("eval", parents=[common],
                        help="evaluate a decorated surface in an algebra")
    p.add_argument("algebra")
    p.add_argument("surface", help="surface JSON document")
    p.set_defaults(handler=_cmd_surface_eval)

    oc = sub.add_parser("oc", help="open/closed pairs and theories")
    osub = oc.add_subparsers(dest="subcommand", required=True)
    p = osub.add_parser("check", parents=[common],
                        help="check the knowledgeable-pair axioms")
    p.add_argument("pair", help="pair JSON document")
    p.set_defaults(handler=_cmd_oc_check)
    p = osub.add_parser("eval", parents=[common],
                        help="evaluate a surface with closed components")
    p.add_argument("theory", help="open/closed theory JSON document")
    p.add_argument("surface")
    p.set_defaults(handler=_cmd_oc_eval)
    p = osub.add_parser("circle-dim", parents=[common],
                        help="circle state space dimension at the given bounds; "
                             "'stabilized' only compares it with the rank at "
                             "bounds one lower and does not prove it final")
    p.add_argument("theory")
    p.add_argument("--gmax", type=int, default=4, help="genus bound")
    p.add_argument("--smax", type=int, default=4, help="side circle bound")
    p.set_defaults(handler=_cmd_oc_circle_dim)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and report: 0 on success, 1 on domain
    errors, 2 on malformed input."""
    args = _build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except SchemaError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc), "path": exc.path}},
              None)
        return 2
    except DefektError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}}, None)
        return 1
    _emit(doc, args.out)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
