#!/usr/bin/env python3
"""truthcut benchmark: one workload per process, one client, closed loop.

    python3 bench/run.py --workload {check,elim,fixpoint} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from any directory; the package is imported from ``src/`` beside this
directory and nowhere else.  Each pass draws a fresh seeded input list and
runs every op of it back to back; answers are checked against the reference
after the pass.  The number of passes is fixed by ``--seconds`` and the
workload's nominal pass time, so op and failure counts repeat exactly for a
seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (medians over the
traced passes) and writes every span to ``bench/out/``.  ``--smoke`` runs
one pass of four inputs, for the benchmark's own tests.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
IMPORT_REPEATS = 5
DEADLINE_S = 150  # stop starting passes after this, to exit well within 180 s
SMOKE_OPS = 4


class BenchError(Exception):
    pass


def import_truthcut() -> list[float]:
    """Import the package from ``src/`` IMPORT_REPEATS times, each from a
    clean ``sys.modules``; returns the import times."""
    if not (SRC / "truthcut" / "__init__.py").is_file():
        raise BenchError(f"no truthcut package under {SRC}")
    sys.path.insert(0, str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "truthcut" or m.startswith("truthcut.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        module = importlib.import_module("truthcut")
        samples.append(time.perf_counter() - t0)
    if Path(module.__file__).resolve().parent != (SRC / "truthcut").resolve():
        raise BenchError(f"truthcut was imported from {module.__file__}, not {SRC}")
    return samples


def run_pass(wl, inputs, tracer=None, label=""):
    """Run every op of one pass; returns (wall seconds, latencies, answers),
    an answer being ("ok", value) or ("raised", exception type name)."""
    latencies, answers = [], []
    start = time.perf_counter()
    for k, inp in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = ("ok", wl.op(inp))
            else:
                with tracer.root("op", f"{label}:{k}"):
                    answer = ("ok", wl.op(inp))
        except Exception as e:  # counted as a failed op, never retried
            answer = ("raised", type(e).__name__)
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    return time.perf_counter() - start, latencies, answers


class Tally:
    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.raised: Counter = Counter()

    def add(self, wl, inputs, answers):
        for inp, (kind, value) in zip(inputs, answers):
            self.attempted += 1
            if kind == "raised":
                self.raised[value] += 1
            elif not wl.verdict(inp, value):
                self.wrong += 1

    @property
    def failed(self):
        return self.wrong + sum(self.raised.values())


def passes_for(seconds: int, wl) -> int:
    return max(3, round(seconds / wl.pass_hint_s))


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, args, import_s, ctor_s, t_start):
    seen: set = set()
    limit = SMOKE_OPS if args.smoke else None
    npasses = 1 if args.smoke else passes_for(args.seconds, wl)
    gen_s, pass_s, latencies, tally = [], [], [], Tally()
    for i in range(npasses):
        if time.perf_counter() - t_start > DEADLINE_S:
            print(f"deadline: stopped after {i} of {npasses} passes", file=sys.stderr)
            break
        t0 = time.perf_counter()
        inputs = wl.generate(args.seed, i, seen, limit)
        gen_s.append(time.perf_counter() - t0)
        gc.collect()
        wall, lat, answers = run_pass(wl, inputs)
        pass_s.append(wall)
        latencies += lat
        tally.add(wl, inputs, answers)
    lat_ms = sorted(x * 1000 for x in latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    metrics = {
        "pass_s": metric(statistics.median(pass_s), "s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(import_s) + ctor_s + statistics.median(gen_s), "s"),
    }
    info = {
        "workload": wl.name, "seed": args.seed, "passes": len(pass_s),
        "ops": tally.attempted, "ops_failed": tally.failed, "ops_wrong": tally.wrong,
        "failures_by_type": dict(sorted(tally.raised.items())),
        "latency_samples": len(lat_ms), "pass_s_all": pass_s,
        "import_s_all": import_s, "generate_s_all": gen_s,
    }
    info.update(getattr(wl, "counts", {}))
    return tally, metrics, info


def traced(wl, args, t_start):
    from tracing import PAYLOAD, UNITS, Tracer, layer_metrics

    tracer = Tracer()
    seen: set = set()
    limit = SMOKE_OPS if args.smoke else None
    pairs = 1 if args.smoke else max(2, passes_for(args.seconds, wl) // 2)
    plain_s, traced_s, per_pass, tally = [], [], [], Tally()
    for i in range(2 * pairs):
        if time.perf_counter() - t_start > DEADLINE_S:
            print(f"deadline: stopped after {i} of {2 * pairs} passes", file=sys.stderr)
            break
        on = i % 2 == 1
        first = len(tracer.spans)
        if on:
            tracer.install()
            with tracer.root("setup", f"{i}:setup"):
                inputs = wl.generate(args.seed, i, seen, limit)
        else:
            inputs = wl.generate(args.seed, i, seen, limit)
        gc.collect()
        try:
            wall, _, answers = run_pass(wl, inputs, tracer if on else None, str(i))
        finally:
            tracer.uninstall()
        tally.add(wl, inputs, answers)
        if on:
            traced_s.append(wall)
            per_pass.append(layer_metrics(tracer.spans, first))
            for span in tracer.spans[first:]:
                span[PAYLOAD] = None  # drop proofs and texts once counted
        else:
            plain_s.append(wall)
    metrics = {}
    for name in per_pass[0]:
        unit = UNITS.get(name, "s")
        # a count reports one traced pass's value, so it stays a whole number
        mid = statistics.median_low if unit in ("count", "bits") else statistics.median
        metrics[name] = metric(mid(p[name] for p in per_pass), unit)
    # each traced pass against the untraced pass just before it, so that the
    # machine's drift between distant passes stays out of the ratio
    metrics["trace.overhead"] = metric(
        statistics.median(t / p for t, p in zip(traced_s, plain_s)), "ratio")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.dump(spans_path)
    info = {
        "workload": wl.name, "seed": args.seed, "traced_passes": len(traced_s),
        "untraced_passes": len(plain_s), "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(BENCH.parent)),
        "ops": tally.attempted, "ops_failed": tally.failed,
        "failures_by_type": dict(sorted(tally.raised.items())),
    }
    info.update(getattr(wl, "counts", {}))
    return tally, metrics, info


def main(argv=None) -> int:
    t_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("check", "elim", "fixpoint"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        import_s = import_truthcut()
    except (BenchError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    ctor_s = time.perf_counter() - t0
    if args.trace:
        tally, metrics, info = traced(wl, args, t_start)
    else:
        tally, metrics, info = untraced(wl, args, import_s, ctor_s, t_start)
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
