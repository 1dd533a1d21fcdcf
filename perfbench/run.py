"""Benchmark entry point: replays one seeded request workload through defekt.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload theory-stream --seed 1 --seconds 30 --trace 0

Without ``--workload`` it runs every workload, each in its own process,
and prints one result line per workload.

One workload runs in one process as a single closed-loop client: the next
request is sent when the previous one has returned, with no extra threads.
The run replays whole rounds of requests until ``--seconds`` have passed,
then checks every result against the oracles (outside the timed region)
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run first
measures half the time untraced, then replays the same requests with the
layer functions wrapped, and reports per-layer metrics and the tracing
overhead.  The library is imported from ``src/`` of the checkout this file
sits in; nothing needs installing.

Times are reported at the reference speed: a fixed exact-arithmetic
kernel is timed every ``KERNEL_EVERY_S`` seconds during the run (outside
the request timers), and every request's time is multiplied by
``KERNEL_REF_S`` over the kernel's median time around it.  On a shared host
whose speed drifts with its neighbours' load this removes the drift that
both the kernel and the requests see; the unscaled figures and the speed
factor go to standard error.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("theory-stream", "boundary-queries", "frobenius-surfaces")
SETUP_PROBES = 8
# Enough requests that the 90th percentile has ten samples beyond it, even
# when a slow host fits fewer into ``--seconds``.
MIN_REQUESTS = 100
KERNEL_EVERY_S = 0.1
# The kernel's usual time during a run on the reference machine (2 vCPUs
# at 2.1 GHz), so scaled times read as that machine's times.
KERNEL_REF_S = 0.0016
# Half the width of the window of kernel samples that scales one request.
KERNEL_WINDOW_S = 0.5
KERNEL_P = 10007


def _kernel_matrices() -> tuple:
    rng = random.Random(0)
    rational = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
                for _ in range(6)]
    modular = [[rng.randrange(KERNEL_P) for _ in range(14)] for _ in range(14)]
    return rational, modular


KERNEL_MATRICES = _kernel_matrices()


def _eliminate(rows: list, p: int) -> None:
    """Row-reduce ``rows`` in place, over QQ when ``p`` is 0 and over F_p
    otherwise: the kind of work defekt's requests are made of."""
    n, lead = len(rows), 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(lead, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        if p:
            inv = pow(rows[lead][c], p - 2, p)
            rows[lead] = [x * inv % p for x in rows[lead]]
        else:
            inv = 1 / rows[lead][c]
            rows[lead] = [x * inv for x in rows[lead]]
        for r in range(n):
            f = rows[r][c]
            if r != lead and f:
                if p:
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[lead])]
                else:
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        lead += 1


def _kernel() -> float:
    """Seconds taken to row-reduce a fixed 6 x 6 rational and a fixed
    14 x 14 mod-p matrix with the standard library alone.  Exact arithmetic
    on small Python objects is what defekt's requests spend their time on,
    so this kernel slows down and speeds up with the host as the requests
    do (a pure bytecode loop, tried first, moved only about three quarters
    as much).  It runs with the garbage collector off, so its time does not
    depend on the size of the heap the workload has built."""
    rational, modular = KERNEL_MATRICES
    gc.disable()
    try:
        t0 = perf_counter()
        _eliminate([row[:] for row in rational], 0)
        _eliminate([row[:] for row in modular], KERNEL_P)
        return perf_counter() - t0
    finally:
        gc.enable()


def _digest(docs) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _setup(name: str, seed: int):
    """Import defekt and generate the workload's documents; returns the
    workload, the set-up time at the reference speed and a digest of the
    documents."""
    t0 = perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    digest = _digest(w.documents())
    elapsed = perf_counter() - t0
    scale = KERNEL_REF_S / statistics.fmean(_kernel() for _ in range(5))
    return w, elapsed * scale, digest


def _probe(name: str, seed: int) -> dict:
    """Set-up time and document digest measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(w, seconds: float | None, rounds: int | None, tracer=None) -> dict:
    """Closed loop over whole rounds, until ``seconds`` have passed, at
    least ``MIN_REQUESTS`` requests and ``w.rss_rounds`` rounds are done, or
    until ``rounds`` rounds are done.  Only the library calls of a request
    are inside its timer; generating a round's documents and timing the
    kernel are not.  The peak resident memory is read when ``w.rss_rounds``
    rounds are done, so that it measures the same work in every run: a
    workload whose memory grows with every request would otherwise read
    higher on a faster host."""
    spans, results, kernels = [], [], []
    start = perf_counter()
    next_kernel = start
    r, rss = 0, None

    def more() -> bool:
        if rounds is not None:
            return r < rounds
        return (perf_counter() - start < seconds or len(spans) < MIN_REQUESTS
                or r < w.rss_rounds)

    while more():
        for req in w.round(r):
            if tracer is not None:
                tracer.request = len(results)
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = w.execute(req)
                else:
                    with tracer.span("request"):
                        out = w.execute(req)
                err = out.get("error")
            except Exception as exc:  # noqa: BLE001 - every request must be accounted
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            spans.append((t0, t1))
            results.append((req, out, err))
            if t1 >= next_kernel:
                kernels.append((perf_counter(), _kernel()))
                next_kernel = perf_counter() + KERNEL_EVERY_S
        r += 1
        if r == w.rss_rounds:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rounds": r, "rss_mb": rss,
            "latencies": [t1 - t0 for t0, t1 in spans],
            "scaled": _scaled(spans, kernels), "results": results,
            "scale": KERNEL_REF_S / statistics.fmean(k for _, k in kernels)}


def _scaled(spans: list, kernels: list) -> list:
    """Each request's latency at the reference speed, scaled by the median
    kernel time within ``KERNEL_WINDOW_S`` of the request.  The host's
    speed changes within a run, by up to a factor of two in phases of a
    second or more, so a local speed estimate fits each request better
    than the run's mean does; the median keeps a kernel sample that was
    preempted from skewing a whole window."""
    times = [t for t, _ in kernels]
    overall = statistics.median(k for _, k in kernels)
    out = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(times, t0 - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(times, t1 + KERNEL_WINDOW_S)
        local = statistics.median(k for _, k in kernels[lo:hi]) if hi > lo else overall
        out.append((t1 - t0) * KERNEL_REF_S / local)
    return out


def _check(w, results: list) -> tuple[list, float]:
    """Check every result; returns the errors and the share of requests
    that repeat an earlier (document, question) pair.  Each distinct
    request is checked once, and every repeat must return the same result."""
    errors = []
    seen: dict = {}
    for req, out, err in results:
        if err is not None and not w.allowed_failure(req, out or {}):
            errors.append(f"request failed: {err}")
            continue
        key = w.key(req)
        if key in seen:
            if seen[key] != out:
                errors.append(f"repeated request gave a different result: {key[:120]}")
            continue
        seen[key] = out
        errors += w.check(req, out)
    errors += w.cross_checks([(req, out) for req, out, err in results])
    repeats = 1 - len(seen) / len(results) if results else 0.0
    return errors, repeats


def _end_to_end(plain: dict, setups: list) -> dict:
    lat = plain["scaled"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_rps": {"value": len(lat) / sum(lat), "unit": "requests/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * statistics.quantiles(lat, n=10)[8],
                           "unit": "ms"},
        "peak_rss_mb": {"value": plain["rss_mb"], "unit": "MB"},
    }


def run(args) -> dict:
    if not (SRC / "defekt" / "__init__.py").is_file():
        raise SystemExit(f"no defekt sources under {SRC}")
    w, setup0, digest = _setup(args.workload, args.seed)
    import defekt

    if Path(defekt.__file__).resolve().parent != (SRC / "defekt").resolve():
        raise SystemExit(f"defekt imported from {defekt.__file__}, not from {SRC}")
    probes = [_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setups = [setup0] + [p["setup_s"] for p in probes]
    errors = []
    if any(p["digest"] != digest for p in probes):
        errors.append("one seed gave different documents in two processes")

    if args.trace:
        import tracing

        plain = _measure(w, args.seconds / 2, None)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _measure(w, None, plain["rounds"], tracer)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        metrics = tracer.metrics(len(traced["latencies"]), traced["scale"])
        overhead = sum(traced["scaled"]) / sum(plain["scaled"]) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        tracer.write_spans(ROOT / ".bench_build" / "perfbench"
                           / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        plain = _measure(w, args.seconds, None)
        runs = [plain]
        metrics = _end_to_end(plain, setups)

    results = [res for r in runs for res in r["results"]]
    check_errors, repeats = _check(w, results)
    errors += check_errors
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    raw = [statistics.median(plain["latencies"]) * 1000,
           statistics.quantiles(plain["latencies"], n=10)[8] * 1000]
    print(f"{args.workload}: seed {args.seed}, {sum(r['rounds'] for r in runs)} rounds, "
          f"{len(results)} requests, {repeats:.1%} repeat an earlier request; "
          f"speed {plain['scale']:.3f} of the reference, unscaled p50/p90 "
          f"{raw[0]:.3f}/{raw[1]:.3f} ms, scaled set-up samples "
          f"{[round(s, 4) for s in setups]}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(err is not None for _, _, err in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload is None:
        return _run_all(args)
    if args.setup_probe:
        _, setup_s, digest = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "digest": digest}))
        return 0
    print(json.dumps(run(args)))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(combined[name])}")
    print(json.dumps({"workloads": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
