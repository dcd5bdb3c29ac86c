"""The id-free sequent checker (``sequent_checker``) cross-checks the kernel.

Every kernel-VALID derivation fits the checker's schemas, and a derivation
that fits them is refused by the kernel for an id-only reason at most
(``OCC_ID_REUSE``, ``LINEAGE_BROKEN``), which the checker cannot see by
design.  The corpus: the golden scripts in every system, ``proofgen``'s
random, duplicated-formula, nested-cut and principal-cut derivations,
``eliminate_cuts`` on the nested cuts and the principal cuts, and what
search proves on the search digest's fixed goal sample (the one the
soundness law checks).

A second test runs a fixed-seed sample of ``kernel_digest``'s per-node
mutations in every system.  There a leaf's principal marks may be wrong
(a principal added, dropped, moved or replaced) while its sequent still
holds an axiom formula on every principal side.  The kernel refuses such a
leaf (``MALFORMED_RULE``, ``PRINCIPAL_MISMATCH``) and the multiset schema
fits it: the marks are bookkeeping, not sequents, so those codes count as
id-level on such a leaf.
"""

import itertools
import json
import pathlib
import random
import sys

import kernel_digest
import proofgen
from sequent_checker import check
from truthcut import build as B
from truthcut import deriv
from truthcut.deriv import RULE_SHAPES
from truthcut.kernel import SYSTEMS, check_derivation
from truthcut.script import ScriptError, parse_script
from truthcut.transform import eliminate_cuts

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import search_digest  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"
ID_ONLY = {"OCC_ID_REUSE", "LINEAGE_BROKEN"}
#: codes that are id-level on a leaf whose sequent fits its axiom (:func:`_marks_only`)
MARKS = {"MALFORMED_RULE", "PRINCIPAL_MISMATCH"}
#: the per-node mutations sampled from ``kernel_digest``, and the sample's seed
MUTATION_SAMPLE, MUTATION_SEED = 3000, 7


def _marks_only(node) -> bool:
    """Whether ``node`` is an axiom leaf whose sequent holds one formula its
    axiom admits on every principal side, whatever its principal marks."""
    if node.rule not in B.LEAF_AXIOMS:
        return False
    sides = RULE_SHAPES[node.rule].principals
    c = node.conclusion
    on = {"ante": c.ante_formulas(), "succ": c.succ_formulas()}
    return any(B.LEAF_AXIOMS[node.rule](f) and all(f in on[s] for s in sides)
               for f in on[sides[-1]])


def _not_id_only(d, report) -> set[str]:
    """The codes of ``report`` that ids alone do not explain."""
    return report.codes() - ID_ONLY


def _not_id_level(d, report) -> set[str]:
    """The codes of ``report`` that neither ids nor the principal marks of
    an axiom leaf whose sequent fits (:func:`_marks_only`) explain."""
    nodes = dict(d.iter_paths())
    return {v.code for v in report.violations
            if v.code not in ID_ONLY
            and not (v.code in MARKS and _marks_only(nodes[v.path]))}


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
    for k, system, d in search_digest.sample_proofs():
        yield f"search {k}", d, system


def _disagreements(items, unexplained):
    """Each (label, derivation, system) of ``items`` where the kernel and
    the checker disagree: the kernel finds it valid and the checker does
    not, or the checker fits it and the kernel refuses it with a code that
    ``unexplained`` keeps."""
    out = []
    for label, d, system in items:
        report = check_derivation(d, system)
        problems = check(d, system)
        if report.ok and problems:
            out.append((label, system, "kernel VALID", problems))
        elif not report.ok and not problems and unexplained(d, report):
            out.append((label, system, sorted(report.codes()), "checker fits"))
    return out


def test_sequent_checker_agrees_with_the_kernel():
    # [DERIVED] no disagreement but the id-only reports
    assert _disagreements(_corpus(), _not_id_only) == []


def _mutations():
    """(label, mutated node) for the fixed-seed sample of the kernel
    digest's per-node mutations; the id counter is restored afterwards."""
    saved = deriv._ids
    try:
        items = [(f"{source} {label}", d)
                 for source, label, d in kernel_digest.items()
                 if source not in ("script", "proof")]
    finally:
        deriv._ids = saved
    rng = random.Random(MUTATION_SEED)
    return rng.sample(items, min(MUTATION_SAMPLE, len(items)))


def test_sequent_checker_agrees_with_the_kernel_on_mutations():
    # [DERIVED] on sampled per-node mutations in every system, no
    # disagreement but the id-level codes (principal marks on an axiom leaf
    # among them)
    items = ((label, d, system)
             for (label, d), system in itertools.product(_mutations(), SYSTEMS))
    assert _disagreements(items, _not_id_level) == []
