"""The benchmark's span tracer (``perfbench/tracing.py``, imported read-only)
still finds every layer function it wraps, and its counters still move when
the library does the work they count."""
import sys
from fractions import Fraction as Fr
from pathlib import Path

import defekt.cli  # noqa: F401  (binds every defekt module the tracer patches)
from defekt import diagrams, frobenius, universal
from defekt.exactla import QQ

from factories import mat2_block

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

THEORY = {
    "alphabet": ["a"],
    "interval": {"kind": "rational1", "num": ["3", "1"], "den": ["1"]},
    "circular": {"kind": "rational1", "num": ["5"], "den": ["1"]},
}


def test_tracer_targets_resolve_and_its_counters_move():
    for owner, attr, _, _ in tracing.TARGETS:
        assert attr in vars(tracing._resolve(owner)), (owner, attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t = universal.theory_from_json(THEORY)
        pa = universal.build_pair_algebra(t)
        universal.frobenius_of_K(pa)
        dim = diagrams.state_space_dim(t, "+-")
        b = frobenius.frobenius_from_json(QQ, frobenius.frobenius_to_json(
            mat2_block(QQ, Fr(1))))
        frobenius.verify(b)
        s = frobenius.surface_from_json(b, {"components": [
            {"genus": 1, "boundaries": [[["1", "0", "0", "2"]]]}]})
        frobenius.eval_surface(b, s)
    finally:
        tracer.uninstall()
    assert dim == pa.dim
    assert tracer.counts.get("universal.pair_algebra.dim_sum") == pa.dim
    # a dimension query enumerates no spanning records, so the Gram
    # counters, which read them, stay at 0
    assert "+-" not in diagrams._context(t)._records
    assert tracer.counts.get("diagrams.gram_entries") == 0
    assert tracer.stats.get("frobenius.dual_bases", [0])[0] >= 1
    # uninstall restored the originals
    assert not hasattr(universal.minimize, "__wrapped__")
    assert not hasattr(frobenius.dual_bases, "__wrapped__")
