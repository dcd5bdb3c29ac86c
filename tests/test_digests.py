"""Each of the four digests equals its pin in ``tests/digests``.

The search and fixpoint digests take a few seconds together, the transform
and kernel digests about ten, so a moved proof, frontier, fixed point,
transform output (with its occurrence ids) or kernel report fails here
before it reaches CI, which also diffs them under two hash seeds.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["search", "fixpoint", "transform", "kernel"])
def test_digest_equals_its_pin(name):
    # [DERIVED] the script's whole output is the pinned file
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "bench"))
    run = subprocess.run([sys.executable, str(ROOT / "tests" / f"{name}_digest.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    pinned = (ROOT / "tests" / "digests" / f"{name}.txt").read_text(encoding="utf-8")
    assert run.stdout == pinned
