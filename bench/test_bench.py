"""The benchmark's own tests: determinism, reference checks, smoke runs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from truthcut import script  # noqa: E402
from truthcut.sexpr import format_formula  # noqa: E402


def fingerprints(name, seed):
    wl = workloads.WORKLOADS[name]()
    inputs = wl.generate(seed, 0, set(), 4)
    if name == "check":
        return [hashlib.sha256(i.text.encode()).hexdigest() for i in inputs]
    if name == "elim":
        return [script.fingerprint(d) for d in inputs]
    return [(tuple(format_formula(s) for s in i.seeds), i.term_bound) for i in inputs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert fingerprints(name, 7) == fingerprints(name, 7)
    assert fingerprints(name, 7) != fingerprints(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_passes_never_repeat_an_input(name):
    wl = workloads.WORKLOADS[name]()
    seen: set = set()
    for index in range(3):
        wl.generate(5, index, seen, 6)
    assert len(seen) == 18


def test_check_family_is_one_continuous_size_band():
    wl = workloads.Check()
    assert len(wl.family) >= 100
    inputs = wl.generate(1, 0, set())
    sizes = sorted({i.text.count("\n") for i in inputs})
    assert sizes[0] >= 15 and sizes[-1] <= 80
    assert sum(i.mutated for i in inputs) == len(inputs) // 4


def test_references_reject_wrong_answers():
    check = workloads.Check()
    mutated = next(i for i in check.generate(2, 0, set()) if i.mutated)
    assert check.verdict(mutated, check.op(mutated))
    assert not check.verdict(mutated, (True, [], (mutated.length, 0, 0)))

    elim = workloads.Elim()
    d = elim.generate(2, 0, set(), 1)[0]
    assert not elim.verdict(d, d)  # the input still has its cuts

    fix = workloads.Fixpoint()
    inp = fix.generate(2, 0, set(), 1)[0]
    found, members, opaque, inconsistent = fix.op(inp)
    assert fix.verdict(inp, (found, members, opaque, inconsistent))
    flipped = [not members[0]] + members[1:]
    assert not fix.verdict(inp, (found, flipped, opaque, inconsistent))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_result(name, trace):
    out = run_bench(BENCH.parent, "--workload", name, "--seed", "3",
                    "--seconds", "1", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    if name != "elim":
        assert result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(wanted)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "check", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
