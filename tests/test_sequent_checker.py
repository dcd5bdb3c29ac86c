"""The id-free sequent checker (``sequent_checker``) cross-checks the kernel.

Every kernel-VALID derivation fits the checker's schemas, and a derivation
that fits them is refused by the kernel for an id-only reason at most
(``OCC_ID_REUSE``, ``LINEAGE_BROKEN``), which the checker cannot see by
design.  The corpus: the golden scripts in every system, ``proofgen``'s
random, duplicated-formula, nested-cut and principal-cut derivations, and
``eliminate_cuts`` on the nested cuts and the principal cuts.
"""

import json
import pathlib
import random

import proofgen
from sequent_checker import check
from truthcut import build as B
from truthcut.kernel import SYSTEMS, check_derivation
from truthcut.script import ScriptError, parse_script
from truthcut.transform import eliminate_cuts

GOLDEN = pathlib.Path(__file__).parent / "golden"
ID_ONLY = {"OCC_ID_REUSE", "LINEAGE_BROKEN"}


def _corpus():
    """(label, derivation, system) for every item checked."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest:
        try:
            d = parse_script((GOLDEN / entry["file"]).read_text(encoding="utf-8"))
        except ScriptError:
            continue
        for system in SYSTEMS:
            yield entry["file"], d, system
    rng = random.Random(13)
    for k in range(60):
        yield f"random {k}", proofgen.random_derivation(rng), "lptn"
        yield f"random lgt {k}", proofgen.random_derivation(rng, system="lgt"), "lgt"
        yield f"duplicated {k}", proofgen.duplicated_derivation(rng)[0], "lptn"
    cuts = [B.cut(*c) for c in proofgen.principal_cuts(rng, 8)]
    cuts += [d for d in (proofgen.nested_cuts(rng, n) for n in (1, 2, 3) * 5)
             if d is not None]
    for k, d in enumerate(cuts):
        yield f"cut {k}", d, "lptn"
        yield f"elim {k}", eliminate_cuts(d, "lptn").derivation, "lptn"


def _disagreements():
    out = []
    for label, d, system in _corpus():
        report = check_derivation(d, system)
        problems = check(d, system)
        if report.ok and problems:
            out.append((label, system, "kernel VALID", problems))
        elif not report.ok and not problems and not report.codes() <= ID_ONLY:
            out.append((label, system, sorted(report.codes()), "checker fits"))
    return out


def test_sequent_checker_agrees_with_the_kernel():
    # [DERIVED] no disagreement but the id-only reports
    assert _disagreements() == []
