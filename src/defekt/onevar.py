"""One-variable pipeline over a single-letter alphabet.

A rational generating function Z determines a monic characteristic
polynomial g_Z; the letter acts on the minimal state space as a root of
g_Z, so dimensions of the interval state space, the arc subalgebra, and
the kernel ideal all appear as degrees:

- dim A(+) = deg g_I,
- dim U = deg lcm(g_I, g_circ),
- dim K = deg g of (Z_circ - Z_I^tr).

The trace series Z^tr is computed by the logarithmic-derivative identity
Z^tr = n - T q'(T)/q(T) with q the reciprocal of g, which needs no
root-finding and works over the rationals and prime fields alike.
``cross_check`` replays the same data through the general pair-algebra
construction and compares, serving as an oracle in both directions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument
from .exactla import Polynomial, poly_gcd_lcm
from .series import CircularRepresentation, RationalFunction1, g_of, rational_to_rep
from .universal import Theory, build_pair_algebra, project_word, trace_K

__all__ = [
    "CrossCheckReport",
    "OneVarAnalysis",
    "analysis_to_json",
    "analyze",
    "cross_check",
    "g_of",
    "poly_to_json",
    "rational1_to_json",
    "trace_series_1var",
]


def trace_series_1var(z: RationalFunction1) -> RationalFunction1:
    """Generating function of m |-> trace of the letter's m-th power on the
    minimal state space of z: the :func:`_trace_series` of g_of(z)."""
    return _trace_series(g_of(z))


def _trace_series(g: Polynomial) -> RationalFunction1:
    """The trace series n - T q'(T)/q(T) of a characteristic polynomial g
    of degree n, q its reciprocal."""
    q = g.reversed_poly(g.deg)
    return RationalFunction1(g.field, q.scale(g.deg) - q.derivative().shifted(1), q)


@dataclass(frozen=True)
class OneVarAnalysis:
    """Complete one-variable picture of an interval/circle pair."""

    z_interval: RationalFunction1
    z_circular: RationalFunction1
    g_interval: Polynomial
    g_circular: Polynomial
    g_alpha: Polynomial
    z_trace: RationalFunction1
    z_circ_minus_trace: RationalFunction1
    g_circ_interval: Polynomial
    dims: tuple[int, int, int]


def analyze(zi: RationalFunction1, zc: RationalFunction1) -> OneVarAnalysis:
    """Fill the one-variable analysis: characteristic polynomials, their
    lcm, the trace series, the kernel series Z_circ - Z^tr, and the
    dimension triple (dim A(+), dim U, dim K)."""
    g_i = g_of(zi)
    g_c = g_of(zc)
    _, g_alpha = poly_gcd_lcm(g_i, g_c)
    z_tr = _trace_series(g_i)
    z_ci = zc - z_tr
    g_ci = g_of(z_ci)
    return OneVarAnalysis(
        z_interval=zi,
        z_circular=zc,
        g_interval=g_i,
        g_circular=g_c,
        g_alpha=g_alpha.monic(),
        z_trace=z_tr,
        z_circ_minus_trace=z_ci,
        g_circ_interval=g_ci,
        dims=(g_i.deg, g_alpha.deg, g_ci.deg),
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Comparison of the one-variable degrees against the general
    pair-algebra construction on the same data."""

    passed: bool
    dims_onevar: tuple[int, int, int]
    dims_universal: tuple[int, int, int]
    depth: int
    counterexample: dict | None


def cross_check(zi: RationalFunction1, zc: RationalFunction1,
                depth: int) -> CrossCheckReport:
    """Build the same theory through the general construction and compare:
    the dimension triple, and trace_K(p*(a^n)) against the n-th Taylor
    coefficient of Z_circ - Z^tr for n <= depth.  A negative depth raises
    InvalidArgument."""
    if depth < 0:
        raise InvalidArgument(f"cross-check depth {depth} is negative")
    a = analyze(zi, zc)
    t = Theory(zi.field, ("a",), rational_to_rep(zi),
               CircularRepresentation.from_rational(zc, 1))
    pa = build_pair_algebra(t)
    dims_universal = (pa.k, pa.U_dim, pa.K_dim)
    counterexample = None
    if a.dims != dims_universal:
        counterexample = {
            "kind": "dims",
            "onevar": list(a.dims),
            "universal": list(dims_universal),
        }
    else:
        want = a.z_circ_minus_trace.taylor(depth)
        for n in range(depth + 1):
            got = trace_K(pa, project_word(pa, (0,) * n))
            if got != want[n]:
                counterexample = {
                    "kind": "trace",
                    "word": "a" * n,
                    "onevar": zi.field.format(want[n]),
                    "universal": zi.field.format(got),
                }
                break
    return CrossCheckReport(
        passed=counterexample is None,
        dims_onevar=a.dims,
        dims_universal=dims_universal,
        depth=depth,
        counterexample=counterexample,
    )


# -- JSON ---------------------------------------------------------------------


def poly_to_json(p: Polynomial) -> list[str]:
    return p.to_list()


def rational1_to_json(z: RationalFunction1) -> dict:
    return {"num": poly_to_json(z.num), "den": poly_to_json(z.den)}


def analysis_to_json(a: OneVarAnalysis) -> dict:
    return {
        "g_interval": poly_to_json(a.g_interval),
        "g_circular": poly_to_json(a.g_circular),
        "g_alpha": poly_to_json(a.g_alpha),
        "z_trace": rational1_to_json(a.z_trace),
        "z_circ_minus_trace": rational1_to_json(a.z_circ_minus_trace),
        "g_circ_interval": poly_to_json(a.g_circ_interval),
        "dims": {"A_plus": a.dims[0], "U": a.dims[1], "K": a.dims[2]},
    }
