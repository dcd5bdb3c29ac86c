"""The search and fixpoint digests equal their pins in ``tests/digests``.

CI diffs all four digests, under two hash seeds too; these two are cheap
enough (a few seconds together) to run with the rest of the tests, so a
moved proof, frontier or fixed point fails here before it reaches CI.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["search", "fixpoint"])
def test_digest_equals_its_pin(name):
    # [DERIVED] the script's whole output is the pinned file
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "bench"))
    run = subprocess.run([sys.executable, str(ROOT / "tests" / f"{name}_digest.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    pinned = (ROOT / "tests" / "digests" / f"{name}.txt").read_text(encoding="utf-8")
    assert run.stdout == pinned
