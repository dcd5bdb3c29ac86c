"""Byte-for-byte pins of the ``check``, ``measures`` and ``elim`` CLI output
on the golden corpus, human and ``--json``.

Each verb runs in-process with the occurrence-id counter reset, so the ids
printed by ``measures`` and inside kernel messages do not depend on what ran
before.  The pins live in ``tests/cli_pins/<file stem>.json``; to regenerate
them after an intended output change, run ``python tests/test_cli_pins.py``
from the repository root with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from truthcut import deriv
from truthcut.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
PINS = pathlib.Path(__file__).parent / "cli_pins"
VERBS = ("check", "measures", "elim")
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _run(verb, entry, as_json):
    """Exit status, stdout and any stderr of one verb on one golden file."""
    saved = deriv._ids
    deriv._ids = itertools.count(1)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*(["--json"] if as_json else []), verb,
                           str(GOLDEN / entry["file"]),
                           "--system", entry["system"]])
    finally:
        deriv._ids = saved
    result = {"exit": status, "out": out.getvalue()}
    if err.getvalue():
        result["err"] = err.getvalue()
    return result


def _outputs(entry):
    return {
        verb: {mode: _run(verb, entry, mode == "json")
               for mode in ("human", "json")}
        for verb in VERBS
    }


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_cli_output_pinned(entry):
    # [DERIVED] every verb's output on the golden corpus is byte-identical
    # to the pinned one
    pinned = json.loads(
        (PINS / f"{pathlib.Path(entry['file']).stem}.json").read_text(
            encoding="utf-8"))
    assert _outputs(entry) == pinned


if __name__ == "__main__":
    PINS.mkdir(exist_ok=True)
    for entry in MANIFEST:
        path = PINS / f"{pathlib.Path(entry['file']).stem}.json"
        path.write_text(json.dumps(_outputs(entry), indent=1) + "\n",
                        encoding="utf-8")
        print(path, file=sys.stderr)
