"""The three request workloads: what each request calls and how its result
is checked.

A request starts from JSON documents, calls defekt's public functions the
way the ``defekt`` command-line handlers do, and ends in a JSON-serializable
result.  Library functions are looked up through their modules at call
time (``U.minimize``, not a name bound at import), so the traced run can
wrap them.  ``check`` runs after the timed loop and compares every result
with :mod:`oracle` or with properties the construction must have.
"""
from __future__ import annotations

import json

from defekt import diagrams as D
from defekt import exactla as X
from defekt import frobenius as FR
from defekt import onevar as OV
from defekt import openclosed as OC
from defekt import series as S
from defekt import universal as U

import gen
import oracle
from oracle import IntervalOracle, Scalars, SurfaceOracle, circle_values, rank


def _finish(out: dict) -> dict:
    """Serialize the result, as the command line would before printing it."""
    json.dumps(out)
    return out


def _field_of(doc: dict):
    return X.field_from_json(doc.get("field"))


def _bent(eps: str, eps2: str) -> str:
    """The sign sequence Hom(eps, eps2) is bent into: eps reversed with
    every sign flipped, followed by eps2."""
    return "".join("+" if c == "-" else "-" for c in reversed(eps)) + eps2


class TheoryStream:
    """Fresh random theories, one per slot of :data:`gen.THEORY_SLOTS` in
    every round; the full invariant pipeline on each."""

    name = "theory-stream"
    # Rounds after which the peak resident memory is read; a run on a host
    # at 0.7 of the reference speed still completes them in 30 s.
    rss_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self._seen: set = set()
        self._rounds = [gen.theory_round(seed, 0, self._seen)]

    def documents(self):
        return self._rounds[0]

    def round(self, r: int) -> list:
        """Round r; rounds are generated in order and kept, so a replay
        sees the same documents."""
        while len(self._rounds) <= r:
            self._rounds.append(gen.theory_round(self.seed, len(self._rounds), self._seen))
        return self._rounds[r]

    @staticmethod
    def key(req) -> str:
        return json.dumps(req["doc"], sort_keys=True)

    @staticmethod
    def execute(req) -> dict:
        doc = req["doc"]
        t = U.theory_from_json(doc)
        ss = U.minimize(t.interval)
        pa = U.build_pair_algebra(t)
        triple = U.invariant_triple(t)
        idem = U.idempotent_report(pa)
        alg = U.frobenius_of_K(pa)
        rep = FR.verify(alg)
        out = {
            "A_plus": ss.dim,
            "word_basis": [S.word_to_str(t.alphabet, w) for w in ss.word_basis],
            "pair_dim": pa.dim,
            "U_dim": pa.U_dim,
            "U_prime_dim": pa.U_prime_dim,
            "K_dim": pa.K_dim,
            "triple": list(triple),
            "idempotents": [idem.each_idempotent, idem.orthogonal, idem.sum_is_unit],
            "verify": rep.passed,
            "K_algebra": FR.frobenius_to_json(alg),
        }
        if len(t.alphabet) == 1:
            zi = S.rational1_from_json(t.field, doc["interval"], "interval")
            if doc["circular"]["kind"] == "trace_of_interval":
                zc = OV.trace_series_1var(zi)
            else:
                zc = S.rational1_from_json(t.field, doc["circular"], "circular")
            analysis = OV.analyze(zi, zc)
            out["onevar_dims"] = list(analysis.dims)
            try:
                out["onevar"] = OV.analysis_to_json(analysis)
            except AttributeError as exc:
                out["error"] = f"analysis_to_json: {type(exc).__name__}: {exc}"
        return _finish(out)

    @staticmethod
    def cross_checks(results: list) -> list:
        return []

    @staticmethod
    def allowed_failure(req, out) -> bool:
        """The one known fault: analysis_to_json over a prime field."""
        doc = req["doc"]
        return (len(doc["alphabet"]) == 1 and "field" in doc
                and out.get("error", "").startswith("analysis_to_json: AttributeError"))

    def check(self, req, out) -> list:
        doc = req["doc"]
        errs = []
        k = IntervalOracle(doc).hankel_rank()
        if out["A_plus"] != k:
            errs.append(f"dim A(+) {out['A_plus']} != Hankel rank {k}")
        if out["triple"] != [out["A_plus"], out["U_prime_dim"], out["K_dim"]]:
            errs.append(f"invariant triple {out['triple']} disagrees with the pair algebra")
        if not all(out["idempotents"]):
            errs.append(f"idempotent report {out['idempotents']}")
        if out["K_dim"] and not out["verify"]:
            errs.append("frobenius_of_K fails verify")
        if out["K_algebra"]["dim"] != out["K_dim"]:
            errs.append("serialized K has the wrong dimension")
        if out["U_dim"] != out["U_prime_dim"] + out["K_dim"]:
            errs.append("dim U != dim U' + dim K")
        if doc["circular"]["kind"] == "trace_of_interval" and out["K_dim"]:
            errs.append("K != 0 for the interval trace")
        if len(doc["alphabet"]) == 1:
            want = [out["A_plus"], out["U_dim"], out["K_dim"]]
            if out["onevar_dims"] != want:
                errs.append(f"onevar dims {out['onevar_dims']} != {want}")
            if want != list(oracle.onevar_dims(doc)):
                errs.append(f"pair algebra dims {want} != oracle {oracle.onevar_dims(doc)}")
            if "onevar" in out:
                d = out["onevar"]["dims"]
                if [d["A_plus"], d["U"], d["K"]] != want:
                    errs.append("serialized onevar dims disagree")
        return errs


class BoundaryQueries:
    """A small pool of theories queried again and again: state-space and
    hom dimensions, and closed diagrams built by gluing."""

    name = "boundary-queries"
    rss_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = gen.boundary_pool(seed)
        self._pair_dims: dict = {}

    def documents(self):
        return self.pool

    def round(self, r: int) -> list:
        order = list(range(len(self.pool)))
        gen.rng_for(self.seed, "boundary-order", r).shuffle(order)
        return [self.pool[i] for i in order]

    @staticmethod
    def key(req) -> str:
        return json.dumps([req["theory"], req["q"]], sort_keys=True)

    @staticmethod
    def execute(req) -> dict:
        t = U.theory_from_json(req["doc"])
        q = req["q"]
        if q["op"] == "dim":
            return _finish({"dim": D.state_space_dim(t, q["eps"])})
        if q["op"] == "hom":
            return _finish({"dim": D.hom_dim(t, q["eps"], q["eps2"])})
        closed = None
        for piece in q["pieces"]:
            if piece["op"] == "glue":
                d = D.compose(t, D.diagram_from_json(t.alphabet, piece["lower"]),
                              D.diagram_from_json(t.alphabet, piece["upper"]))
            elif piece["op"] == "mirror":
                d = D.compose(t, D.diagram_from_json(t.alphabet, piece["lower"]),
                              D.mirror(D.diagram_from_json(t.alphabet, piece["other"])))
            else:
                d = D.diagram_from_json(t.alphabet, piece["doc"])
            closed = d if closed is None else D.tensor(closed, d)
        return _finish({"value": t.field.format(D.evaluate_closed(t, closed))})

    @staticmethod
    def allowed_failure(req, out) -> bool:
        return False

    def _pair_dim(self, req) -> int:
        name = req["theory"]
        if name not in self._pair_dims:
            self._pair_dims[name] = U.build_pair_algebra(U.theory_from_json(req["doc"])).dim
        return self._pair_dims[name]

    def check(self, req, out) -> list:
        doc, q = req["doc"], req["q"]
        iv = IntervalOracle(doc)
        if q["op"] == "closed":
            F = iv.F
            cv = circle_values(doc)
            index = {a: i for i, a in enumerate(doc["alphabet"])}
            want = F.one
            for kind, word in req["expect"]:
                w = tuple(index[a] for a in word)
                want = want * (iv.value(w) if kind == "interval" else cv(w))
            if out["value"] != F.fmt(want):
                return [f"closed diagram {out['value']} != oracle {F.fmt(want)}"]
            return []
        k = iv.hankel_rank()
        eps = q["eps"] if q["op"] == "dim" else _bent(q["eps"], q["eps2"])
        errs = []
        if doc["circular"]["kind"] == "trace_of_interval" or len(set(eps)) == 1:
            if out["dim"] != k ** len(eps):
                errs.append(f"dim A({eps}) {out['dim']} != {k}^{len(eps)}")
        if eps == "+-" and out["dim"] != self._pair_dim(req):
            errs.append(f"dim A(+-) {out['dim']} != pair algebra dim {self._pair_dim(req)}")
        return errs

    def cross_checks(self, results: list) -> list:
        """A hom question must agree with the state-space question of its
        bent sign sequence when the pool asks both."""
        dims = {}
        for req, out in results:
            if out is not None and req["q"]["op"] == "dim":
                dims[(req["theory"], req["q"]["eps"])] = out["dim"]
        errs = []
        for req, out in results:
            q = req["q"]
            if out is None or q["op"] != "hom":
                continue
            bent = (req["theory"], _bent(q["eps"], q["eps2"]))
            if bent in dims and dims[bent] != out["dim"]:
                errs.append(f"hom {q} = {out['dim']} but dim A({bent[1]}) = {dims[bent]}")
        return errs


_CENTER_DIM = {"point": 1, "x2": 2, "x3": 3, "mat2": 1}
_COMMUTATOR_DIM = {"point": 0, "x2": 0, "x3": 0, "mat2": 3}


class FrobeniusSurfaces:
    """Hidden-basis symmetric Frobenius algebras, decorated surfaces and
    open/closed pairs and theories."""

    name = "frobenius-surfaces"
    rss_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self._rounds = [self._make_round(0)]
        self._oracles: dict = {}

    def _make_round(self, r: int) -> list:
        reqs = gen.frobenius_round(self.seed, r)
        gen.rng_for(self.seed, "frobenius-order", r).shuffle(reqs)
        return reqs

    def documents(self):
        return [self._public(req) for req in self._rounds[0]]

    def round(self, r: int) -> list:
        """Round r; rounds are generated in order and kept, so a replay
        sees the same documents."""
        while len(self._rounds) <= r:
            self._rounds.append(self._make_round(len(self._rounds)))
        return self._rounds[r]

    @staticmethod
    def _public(req) -> dict:
        """The request as the program sees it: the algebra's document
        without the generator's block structure."""
        out = dict(req)
        if "alg" in req:
            out["alg"] = req["alg"]["doc"]
        return out

    @classmethod
    def key(cls, req) -> str:
        return json.dumps(cls._public(req), sort_keys=True)

    @staticmethod
    def execute(req) -> dict:
        kind = req["kind"]
        if kind == "algebra":
            doc = req["alg"]["doc"]
            field = _field_of(doc)
            b = FR.frobenius_from_json(field, doc)
            rep = FR.verify(b)
            beta = FR.beta_map(b)
            out = {"verify": rep.passed, "kills_commutators": beta.kills_commutators,
                   "lands_in_center": beta.lands_in_center, "beta_zero": beta.is_zero,
                   "center_dim": len(beta.center),
                   "commutator_dim": len(beta.commutators)}
            if field.char == 0:
                out["obstruction"] = FR.embedding_obstruction(b).status
            return _finish(out)
        if kind == "surface":
            doc = req["alg"]["doc"]
            b = FR.frobenius_from_json(_field_of(doc), doc)
            s = FR.surface_from_json(b, req["surface"])
            return _finish({"value": b.field.format(FR.eval_surface(b, s))})
        if kind == "pair":
            doc = req["doc"]
            pair = OC.knowledgeable_from_json(_field_of(doc), doc)
            return _finish({"passed": OC.check_knowledgeable(pair).passed})
        doc = req["doc"]
        field = _field_of(doc)
        t = OC.openclosed_from_json(field, doc)
        s = FR.surface_from_json(t.open_algebra, req["surface"])
        value = OC.eval_oc_closed(t, s)
        space = OC.state_space_circle(t, req["gmax"], req["smax"])
        return _finish({
            "value": field.format(value),
            "circle_dim": space.dim,
            "inner_dim": space.inner_dim,
            "gram": [[field.format(space.gram[i, j]) for j in range(space.gram.cols)]
                     for i in range(space.gram.rows)],
        })

    @staticmethod
    def allowed_failure(req, out) -> bool:
        return False

    def _oracle(self, alg: dict) -> SurfaceOracle:
        if alg["name"] not in self._oracles:
            F = Scalars.of_doc(alg["doc"])
            self._oracles[alg["name"]] = SurfaceOracle(F, *alg["ref"], alg["S"])
        return self._oracles[alg["name"]]

    def check(self, req, out) -> list:
        kind = req["kind"]
        if kind == "pair":
            return [] if out["passed"] else ["constructed pair fails an axiom"]
        alg = req["alg"]
        F = Scalars.of_doc(alg["doc"])
        if kind == "algebra":
            return self._check_algebra(alg, F, out)
        orc = self._oracle(alg)
        if kind == "surface":
            return self._check_surface(alg, F, orc, req["surface"], out)
        errs = []
        num = [F.parse(x) for x in req["doc"]["closed_series"]["num"]]
        den = [F.parse(x) for x in req["doc"]["closed_series"]["den"]]
        alphas = oracle.taylor(F, num, den, 2 * req["gmax"] + 3)
        want = F.one
        for comp in req["surface"]["components"]:
            if comp["boundaries"]:
                want = want * orc.surface({"components": [comp]})
            else:
                want = want * alphas[comp["genus"]]
        if out["value"] != F.fmt(want):
            errs.append(f"oc surface {out['value']} != oracle {F.fmt(want)}")
        powers = [orc.trace_of(orc.unit)]
        acc = orc.unit
        for _ in range(2 * (req["gmax"] + req["smax"])):
            acc = orc.mul(acc, orc.E)
            powers.append(orc.trace_of(acc))
        labels = [(g, s) for g in range(req["gmax"] + 1) for s in range(req["smax"] + 1)]
        gram = [[powers[g + h + s + u - 1] if s + u else alphas[g + h]
                 for (h, u) in labels] for (g, s) in labels]
        if out["gram"] != [[F.fmt(x) for x in row] for row in gram]:
            errs.append("circle Gram matrix differs from the oracle")
        if out["circle_dim"] != rank(F, gram):
            errs.append(f"circle dim {out['circle_dim']} != oracle rank {rank(F, gram)}")
        keep = [i for i, (g, s) in enumerate(labels) if g < req["gmax"] and s < req["smax"]]
        inner = rank(F, [[gram[i][j] for j in keep] for i in keep])
        if out["inner_dim"] != inner:
            errs.append(f"inner circle dim {out['inner_dim']} != oracle rank {inner}")
        return errs

    @staticmethod
    def _check_algebra(alg, F, out) -> list:
        errs = []
        for flag in ("verify", "kills_commutators", "lands_in_center"):
            if not out[flag]:
                errs.append(f"{alg['name']}: {flag} is false")
        if alg["blocks"] is None:
            p = alg["doc"]["dim"]
            center, comm = p, 0
            if not out["beta_zero"]:
                errs.append(f"{alg['name']}: beta map is not zero on F_p[C_p]")
        else:
            center = sum(_CENTER_DIM[k] for k, _ in alg["blocks"])
            comm = sum(_COMMUTATOR_DIM[k] for k, _ in alg["blocks"])
            if F.p == 0:
                semisimple = all(k in ("point", "mat2") for k, _ in alg["blocks"])
                want = "semisimple" if semisimple else "not_semisimple"
                if out["obstruction"] != want:
                    errs.append(f"{alg['name']}: obstruction {out['obstruction']} != {want}")
        if (out["center_dim"], out["commutator_dim"]) != (center, comm):
            errs.append(f"{alg['name']}: center/commutator dims "
                        f"{out['center_dim']}/{out['commutator_dim']} != {center}/{comm}")
        return errs

    @staticmethod
    def _check_surface(alg, F, orc, surf, out) -> list:
        errs = []
        want = orc.surface(surf)
        if out["value"] != F.fmt(want):
            errs.append(f"{alg['name']}: surface {out['value']} != oracle {F.fmt(want)}")
        comps = surf["components"]
        undecorated = all(not w for c in comps for w in c["boundaries"])
        if undecorated and alg["blocks"] is not None:
            blocks = [(k, [F.parse(x) for x in tr]) for k, tr in alg["blocks"]]
            formula = F.one
            for c in comps:
                formula = formula * oracle.undecorated_surface(
                    F, blocks, c["genus"], len(c["boundaries"]))
            if out["value"] != F.fmt(formula):
                errs.append(f"{alg['name']}: surface {out['value']} != block formula "
                            f"{F.fmt(formula)}")
        if alg["doc"]["dim"] <= 4 and max(c["genus"] for c in comps) <= 1:
            b = FR.frobenius_from_json(_field_of(alg["doc"]), alg["doc"])
            ref = FR.eval_surface_by_surgery(b, FR.surface_from_json(b, surf))
            if out["value"] != b.field.format(ref):
                errs.append(f"{alg['name']}: surface {out['value']} != surgery "
                            f"{b.field.format(ref)}")
        return errs

    @staticmethod
    def cross_checks(results: list) -> list:
        return []


WORKLOADS = {w.name: w for w in (TheoryStream, BoundaryQueries, FrobeniusSurfaces)}
