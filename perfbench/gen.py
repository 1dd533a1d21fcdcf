"""Deterministic input documents for the three workloads.

Every document is plain JSON in the formats the ``defekt`` command line
reads.  Generation uses only ``random.Random`` seeded from the workload
seed and the round number, plus the exact arithmetic in :mod:`oracle`, so
one seed always yields byte-identical documents and the program under test
never sees anything but the documents.  Alongside each document the
generator keeps what it knows by construction (for example the hidden
block structure of a Frobenius algebra); the checks use that knowledge,
the program does not receive it.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

from oracle import (
    BLOCK_DIM,
    IntervalOracle,
    Scalars,
    arc_span_dim,
    block_structure,
    change_basis,
    direct_sum,
    onevar_dims,
)

PRIMES = (7, 11, 13)
# Constant theories (empty alphabet) draw from a large range so that a
# theory-stream run never meets the same document twice.
WIDE_PRIME = 1000003


def rng_for(seed: int, *path) -> random.Random:
    """An independent stream for one part of a workload."""
    return random.Random("/".join(str(x) for x in (seed,) + path))


# -- theories ---------------------------------------------------------------------

# One theory-stream round: (name, letters, prime field?, interval, circular).
# interval: ("linrep", dim) or ("rational1", dim); circular: ("tracerep",
# dim), ("rational1", dim) or ("trace", None).  Every round replays this
# fixed mix with fresh random entries; the generator rejects degenerate
# draws, so the size of every derived structure, and with it the cost of a
# request, is set by the slot.  The mix falls into four cost levels, each
# well apart from the next: ten cheap slots (10-25 ms on the reference
# machine), six slots of one prime-field shape (35-40 ms), six dearer
# mixed slots (60-350 ms) and the four rational slots with dim K = 5
# (400-650 ms).  With as many slots below the six as above them, the
# median request is the middle of the six identical slots, whose cost
# hardly depends on the draw, and the 90th percentile lies inside the
# four rational dim K = 5 slots; a percentile between two slots of
# different cost would jump with every small change in their order.
THEORY_SLOTS = (
    ("L0-qq", 0, False, ("linrep", 1), ("tracerep", 1)),
    ("L0-fp", 0, True, ("rational1", 1), ("rational1", 1)),
    ("L2-qq-11", 2, False, ("linrep", 1), ("tracerep", 1)),
    ("L2-qq-11b", 2, False, ("linrep", 1), ("tracerep", 1)),
    ("L3-qq-11", 3, False, ("linrep", 1), ("tracerep", 1)),
    ("L2-fp-11", 2, True, ("linrep", 1), ("tracerep", 1)),
    ("L3-fp-11", 3, True, ("linrep", 1), ("tracerep", 1)),
    ("L3-fp-11b", 3, True, ("linrep", 1), ("tracerep", 1)),
    ("L1-fp-trace", 1, True, ("rational1", 2), ("trace", None)),
    ("L1-qq-rat11", 1, False, ("rational1", 1), ("rational1", 1)),
    ("L2-fp-2t-a", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-fp-2t-b", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-fp-2t-c", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-fp-2t-d", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-fp-2t-e", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-fp-2t-f", 2, True, ("linrep", 2), ("trace", None)),
    ("L2-qq-2t", 2, False, ("linrep", 2), ("trace", None)),
    ("L1-qq-trace", 1, False, ("rational1", 3), ("trace", None)),
    ("L2-fp-3t", 2, True, ("linrep", 3), ("trace", None)),
    ("L3-fp-21", 3, True, ("linrep", 2), ("tracerep", 1)),
    ("L1-qq-rat", 1, False, ("rational1", 2), ("rational1", 2)),
    ("L1-fp-rat", 1, True, ("rational1", 2), ("rational1", 3)),
    ("L2-qq-12", 2, False, ("linrep", 1), ("tracerep", 2)),
    ("L2-qq-12b", 2, False, ("linrep", 1), ("tracerep", 2)),
    ("L3-qq-12", 3, False, ("linrep", 1), ("tracerep", 2)),
    ("L3-qq-12b", 3, False, ("linrep", 1), ("tracerep", 2)),
)

LETTERS = "abc"


def _scalar(rng, F: Scalars, nonzero: bool = False, wide: bool = False) -> str:
    if F.p:
        return str(rng.randint(1 if nonzero else 0, F.p - 1))
    if wide:
        return str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 99)))
    vals = (-2, -1, 1, 2) if nonzero else (-2, -1, 0, 1, 2)
    return str(rng.choice(vals))


def _square(rng, F: Scalars, n: int) -> list:
    return [[_scalar(rng, F) for _ in range(n)] for _ in range(n)]


def _rational1(rng, F: Scalars, dim: int) -> dict:
    """num/den with max(len num, deg den) == dim, den(0) != 0."""
    num = [_scalar(rng, F) for _ in range(dim)]
    num[-1] = _scalar(rng, F, nonzero=True)
    den = [_scalar(rng, F, nonzero=True)] + [_scalar(rng, F) for _ in range(dim)]
    den[-1] = _scalar(rng, F, nonzero=True)
    if rng.random() < 0.5:
        den = den[:-1]
    return {"num": num, "den": den}


def _constant(rng, F: Scalars) -> list:
    return [_scalar(rng, F, nonzero=True, wide=True)]


def theory_doc(rng, letters: int, prime: bool, interval, circular) -> dict:
    """A random theory of the given shape.  Draws are rejected until the
    interval presentation is minimal (Hankel rank = its dimension), the arc
    word family of a multi-letter theory has its generic size, and a
    one-letter theory has its generic dimension triple, all computed by
    :mod:`oracle`."""
    if not letters:
        F = Scalars(WIDE_PRIME if prime else 0)
    else:
        F = Scalars(rng.choice(PRIMES) if prime else 0)
    alphabet = list(LETTERS[:letters])
    ikind, idim = interval
    ckind, cdim = circular
    while True:
        doc: dict = {}
        if F.p:
            doc["field"] = F.tag()
        doc["alphabet"] = alphabet
        if ikind == "linrep":
            doc["interval"] = {
                "kind": "linrep",
                "dim": idim,
                "init": [_scalar(rng, F, wide=not letters) for _ in range(idim)],
                "final": [_scalar(rng, F, wide=not letters) for _ in range(idim)],
                "letters": {a: _square(rng, F, idim) for a in alphabet},
            }
        elif letters:
            doc["interval"] = dict(kind="rational1", **_rational1(rng, F, idim))
        else:
            doc["interval"] = {"kind": "rational1", "num": _constant(rng, F), "den": ["1"]}
        if ckind == "tracerep":
            w = _scalar(rng, F, nonzero=True, wide=not letters)
            doc["circular"] = {
                "kind": "tracerep",
                "dim": cdim,
                "weight": [[w if i == j else "0" for j in range(cdim)]
                           for i in range(cdim)],
                "letters": {a: _square(rng, F, cdim) for a in alphabet},
            }
        elif ckind == "rational1" and letters:
            doc["circular"] = dict(kind="rational1", **_rational1(rng, F, cdim))
        elif ckind == "rational1":
            doc["circular"] = {"kind": "rational1", "num": _constant(rng, F), "den": ["1"]}
        else:
            doc["circular"] = {"kind": "trace_of_interval"}
        if IntervalOracle(doc).hankel_rank() != (idim if letters else 1):
            continue
        if letters >= 2:
            generic = idim ** 2 + (cdim ** 2 if ckind == "tracerep" else 0)
            if arc_span_dim(doc) != generic:
                continue
        if letters == 1 and ckind == "rational1":
            if onevar_dims(doc) != (idim, idim + cdim, idim + cdim):
                continue
        return doc


def theory_round(seed: int, r: int, seen: set) -> list:
    """The documents of theory-stream round r, one per slot.  A document
    whose JSON text is in ``seen`` (all earlier rounds) is drawn again, so
    no document repeats within a run."""
    out = []
    for i, (name, letters, prime, interval, circular) in enumerate(THEORY_SLOTS):
        attempt = 0
        while True:
            rng = rng_for(seed, "theory", r, i, *([attempt] if attempt else []))
            doc = theory_doc(rng, letters, prime, interval, circular)
            key = json.dumps(doc, sort_keys=True)
            if key not in seen:
                break
            attempt += 1
        seen.add(key)
        out.append({"slot": name, "doc": doc})
    return out


# -- closed diagrams -------------------------------------------------------------


def _word(rng, alphabet: list, longest: int) -> list:
    return [rng.choice(alphabet) for _ in range(rng.randint(0, longest))] if alphabet else []


def diagram_piece(rng, alphabet: list) -> tuple:
    """One closed piece of a diagram question and the closed components it
    must produce, as (piece, [("circle" | "interval", word), ...]).

    ``glue`` pieces compose a lower diagram ("" -> eps) with an upper one
    (eps -> ""); ``mirror`` pieces compose a lower diagram with the mirror
    image of another lower diagram; ``closed`` pieces are already closed.
    """
    kind = rng.choice(("loop", "strand", "mirror", "closed"))
    u, v = _word(rng, alphabet, 3), _word(rng, alphabet, 3)
    if kind == "loop":
        lower = {"bottom": "", "top": "+-", "components": [
            {"kind": "arc", "from": ["top", 1], "to": ["top", 0], "word": u}]}
        upper = {"bottom": "+-", "top": "", "components": [
            {"kind": "arc", "from": ["bottom", 0], "to": ["bottom", 1], "word": v}]}
        return {"op": "glue", "lower": lower, "upper": upper}, [("circle", u + v)]
    if kind == "strand":
        lower = {"bottom": "", "top": "+", "components": [
            {"kind": "half", "end": ["top", 0], "word": u}]}
        upper = {"bottom": "+", "top": "", "components": [
            {"kind": "half", "end": ["bottom", 0], "word": v}]}
        return {"op": "glue", "lower": lower, "upper": upper}, [("interval", v + u)]
    if kind == "mirror":
        lower = {"bottom": "", "top": "+-", "components": [
            {"kind": "arc", "from": ["top", 1], "to": ["top", 0], "word": u}]}
        other = {"bottom": "", "top": "+-", "components": [
            {"kind": "arc", "from": ["top", 1], "to": ["top", 0], "word": v}]}
        return {"op": "mirror", "lower": lower, "other": other}, [("circle", u + v)]
    closed = {"bottom": "", "top": "", "components": [
        {"kind": "circle", "word": u}, {"kind": "interval", "word": v}]}
    return {"op": "closed", "doc": closed}, [("circle", u), ("interval", v)]


# -- boundary-queries pool ---------------------------------------------------------

# (name, letters, prime field?, interval, circular, state-space sign
# sequences, hom pairs, closed-diagram questions).  Sign sequences stay at
# length <= 4, and hom questions reach total length 6 only where
# dim A(+) = 1, so no Gram matrix takes more than a few seconds.  Every
# shape is drawn COPIES times: the cost of one question differs by up to
# a factor of two between draws of the same shape, and eight draws keep
# the pool's total cost within a few percent from seed to seed.  The
# questions fall into three cost levels: most take a few milliseconds, a
# fifth about ten (the level the 90th percentile falls in) and the
# length-4 questions on the two-dimensional theories, about 7% of a
# round, 50-250 ms.  Those heavy questions are asked over prime fields
# only, where the cost of an operation does not depend on the size of the
# numbers a draw happens to produce.
BOUNDARY_THEORIES = (
    ("const", 0, False, ("linrep", 1), ("tracerep", 1),
     ("+-", "+++", "++--", "+-+-"), (("+-", "+-"),), 2),
    ("rat1", 1, False, ("rational1", 1), ("rational1", 1),
     ("+", "+-", "-+", "+-+-"), (("+", "+"), ("+-", "+-")), 2),
    ("trace1", 2, False, ("linrep", 1), ("trace", None),
     ("+-", "++-", "+-+-"), (("+-+", "-+-"),), 2),
    ("trace2", 1, True, ("rational1", 2), ("trace", None),
     ("+", "+-", "++-", "+-+-", "++--"), (("+", "+-"), ("-", "-")), 2),
    ("fp21", 2, True, ("linrep", 2), ("tracerep", 1),
     ("-", "+-", "-+", "++", "++-+"), (("+", "+"),), 2),
    ("qq12", 2, False, ("linrep", 1), ("tracerep", 2),
     ("+", "+-", "-+-", "++-"), (("+", "+-"),), 2),
)
COPIES = 8


def boundary_pool(seed: int) -> list:
    """Every (document, question) pair of the boundary-queries workload.
    Each question carries its theory document, as ``defekt statespace``
    and ``defekt eval-diagram`` read it."""
    pool = []
    for shape in BOUNDARY_THEORIES:
        base, letters, prime, interval, circular, eps_list, homs, ndiag = shape
        for copy in range(COPIES):
            name = f"{base}.{copy}"
            rng = rng_for(seed, "boundary", name)
            doc = theory_doc(rng, letters, prime, interval, circular)
            for eps in eps_list:
                pool.append({"theory": name, "doc": doc, "q": {"op": "dim", "eps": eps}})
            for eps, eps2 in homs:
                pool.append({"theory": name, "doc": doc,
                             "q": {"op": "hom", "eps": eps, "eps2": eps2}})
            for _ in range(ndiag):
                pieces, comps = [], []
                for _ in range(rng.randint(2, 3)):
                    piece, expect = diagram_piece(rng, doc["alphabet"])
                    pieces.append(piece)
                    comps.extend(expect)
                pool.append({"theory": name, "doc": doc,
                             "q": {"op": "closed", "pieces": pieces},
                             "expect": comps})
    return pool


# -- frobenius-surfaces rounds -----------------------------------------------------


def unimodular(rng, F: Scalars, n: int) -> list:
    """A random change of basis with determinant one: unit lower times unit
    upper triangular, small integer entries, rows permuted."""
    def tri(lower):
        return [[F.one if i == j else
                 (F.of(rng.choice((-1, 0, 1))) if (i > j) == lower else F.zero)
                 for j in range(n)] for i in range(n)]
    lo, up = tri(True), tri(False)
    s = [[sum((lo[i][t] * up[t][j] for t in range(n)), F.zero) for j in range(n)]
         for i in range(n)]
    rng.shuffle(s)
    return s


def algebra_doc(F: Scalars, mult, unit, tr) -> dict:
    n = len(unit)
    return {
        "field": F.tag(),
        "dim": n,
        "basis": [f"f{i}" for i in range(n)],
        "mult": [[[F.fmt(c) for c in row] for row in plane] for plane in mult],
        "unit": [F.fmt(c) for c in unit],
        "trace": [F.fmt(c) for c in tr],
    }


# (name, prime field?, blocks) for hidden block algebras, or (name, p,
# "cyclic") for the group algebra F_p[C_p].  Rational algebras stop at
# dimension 5 and prime-field ones go to 8, which keeps verify, whose cost
# grows as dim^6, within a few seconds per request.  About a sixth of a
# round's requests (the dimension 4-5 algebras and the pair checks) cost
# 150-250 ms, the level the 90th percentile falls in: the four dearest of
# them (the prime-field dimension 5 algebras and the two F_5[C_5] pairs,
# 200-250 ms) span it, above the rational dimension 4 ones.
ALGEBRA_SLOTS = (
    ("2-qq", False, ("point", "point")),
    ("3-fp", True, ("x2", "point")),
    ("3-qq", False, ("x3",)),
    ("4-fp", True, ("mat2",)),
    ("4-qq", False, ("x3", "point")),
    ("4-qq-b", False, ("x2", "x2")),
    ("5-qq", False, ("mat2", "point")),
    ("5-fp", True, ("x2", "x3")),
    ("6-fp", True, ("x2", "x2", "point", "point")),
    ("8-fp", True, ("mat2", "x3", "point")),
    ("C3", 3, "cyclic"),
    ("C5", 5, "cyclic"),
)
# open/closed theories: (name, prime field?, blocks of the open algebra)
OC_THEORIES = (
    ("oc-qq", False, ("x2", "point")),
    ("oc-fp", True, ("mat2",)),
    ("oc-qq3", False, ("x3",)),
)


def cyclic_structure(F: Scalars, p: int) -> tuple:
    z, o = F.zero, F.one
    mult = [[[o if k == (i + j) % p else z for k in range(p)] for j in range(p)]
            for i in range(p)]
    return mult, [o] + [z] * (p - 1), [o] + [z] * (p - 1)


def algebra_entry(rng, name: str, prime, blocks) -> dict:
    """A hidden algebra: the document the program reads and, for the
    checks, its structure in the reference (block) basis with the change of
    basis S (reference coordinates = S * document coordinates)."""
    if blocks == "cyclic":
        F = Scalars(prime)
        ref = cyclic_structure(F, prime)
        kinds = None
    else:
        F = Scalars(rng.choice(PRIMES) if prime else 0)
        kinds = list(blocks)
        blist = []
        for kind in kinds:
            d = BLOCK_DIM[kind]
            if kind in ("point", "mat2"):
                tr = [F.parse(_scalar(rng, F, nonzero=True))]
            else:
                tr = [F.parse(_scalar(rng, F)) for _ in range(d - 1)]
                tr.append(F.parse(_scalar(rng, F, nonzero=True)))
            blist.append((kind, tr))
        ref = direct_sum(F, [block_structure(F, k, t) for k, t in blist])
        kinds = [(k, [F.fmt(x) for x in t]) for k, t in blist]
    S = unimodular(rng, F, len(ref[1]))
    return {"name": name, "doc": algebra_doc(F, *change_basis(F, *ref, S)),
            "blocks": kinds, "ref": ref, "S": S}


def _element(rng, F: Scalars, n: int) -> list:
    return [_scalar(rng, F) for _ in range(n)]


# Surface shapes, one list of (genus, boundary circles, decorated?) per
# surface asked of every algebra: genus 0-3, 1-4 circles.  The shapes are
# fixed and only the decorations are random, so the cost of a surface
# request depends on the algebra's slot and not on the draw.  A decorated
# component puts two random elements on its first circle and one on each
# other circle.
SURFACE_SHAPES = (
    ((1, 2, False),),
    ((0, 3, True), (1, 1, False)),
    ((3, 1, False), (2, 4, False)),
)


def _element(rng, F: Scalars, n: int) -> list:
    return [_scalar(rng, F) for _ in range(n)]


def surface_doc(rng, F: Scalars, n: int, shape) -> dict:
    comps = []
    for genus, circles, decorated in shape:
        bounds = [[_element(rng, F, n) for _ in range((2 if j == 0 else 1) if decorated else 0)]
                  for j in range(circles)]
        comps.append({"genus": genus, "boundaries": bounds})
    return {"components": comps}


def pair_doc(F: Scalars, kind: str, lam: str) -> dict:
    """Knowledgeable pairs: F_p[C_p] over k[x]/x^2 (zipper sends the group
    identity to x, cozipper 1 -> 1 and x -> 0), or Mat_2 over k (zipper the
    matrix trace, cozipper c -> c * Id)."""
    o = F.one
    if kind == "cyclic":
        p = F.p
        b = algebra_doc(F, *cyclic_structure(F, p))
        c = algebra_doc(F, *block_structure(F, "x2", [F.parse(lam), o]))
        zipper = [["0"] * p, ["1"] + ["0"] * (p - 1)]
        cozipper = [["1", "0"]] + [["0", "0"] for _ in range(p - 1)]
    else:
        b = algebra_doc(F, *block_structure(F, "mat2", [o]))
        c = algebra_doc(F, *block_structure(F, "point", [o]))
        zipper = [["1", "0", "0", "1"]]
        cozipper = [["1"], ["0"], ["0"], ["1"]]
    return {"field": F.tag(), "open": b, "closed": c,
            "zipper": zipper, "cozipper": cozipper}


def frobenius_round(seed: int, r: int) -> list:
    """The requests of frobenius-surfaces round r: every slot with a fresh
    algebra, fresh surfaces and fresh open/closed data."""
    pool = []
    for name, prime, blocks in ALGEBRA_SLOTS:
        rng = rng_for(seed, "frobenius", r, name)
        alg = algebra_entry(rng, f"{name}@{r}", prime, blocks)
        F = Scalars.of_doc(alg["doc"])
        pool.append({"kind": "algebra", "alg": alg})
        for shape in SURFACE_SHAPES:
            surf = surface_doc(rng, F, alg["doc"]["dim"], shape)
            pool.append({"kind": "surface", "alg": alg, "surface": surf})
    rng = rng_for(seed, "frobenius", r, "pairs")
    # F_5[C_5] twice, so that the 90th percentile falls inside the prime
    # dimension 5 group rather than at its lower edge.
    for p in (3, 5, 5):
        F = Scalars(p)
        pool.append({"kind": "pair", "doc": pair_doc(F, "cyclic", _scalar(rng, F))})
    for prime in (False, True):
        F = Scalars(rng.choice(PRIMES) if prime else 0)
        pool.append({"kind": "pair", "doc": pair_doc(F, "matrix", "1")})
    for name, prime, blocks in OC_THEORIES:
        rng = rng_for(seed, "frobenius", r, name)
        alg = algebra_entry(rng, f"{name}@{r}", prime, blocks)
        F = Scalars.of_doc(alg["doc"])
        series = _rational1(rng, F, rng.randint(1, 3))
        comps = [{"genus": rng.randint(0, 3), "boundaries": []} for _ in range(2)]
        comps += surface_doc(rng, F, alg["doc"]["dim"], SURFACE_SHAPES[1])["components"]
        pool.append({"kind": "oc", "alg": alg,
                     "doc": {"field": F.tag(), "open": alg["doc"],
                             "closed_series": series},
                     "surface": {"components": comps},
                     "gmax": rng.randint(2, 3), "smax": rng.randint(2, 3)})
    return pool
