"""The soundness law, as a property over the corpora the repo builds.

Every cut-free ``lptn`` proof of a sentence sequent is semantically backed
(``check_soundness``): some antecedent formula's negation, or some
succedent formula, is in the least fixed point with norm at most the
proof's length.  Each proof is checked against the fixed point at term
bound 3 over its end-sequent formulas and their negations.  The corpora:
the scripts ``tests/golden`` marks valid, a fixed sample of what search
returns on the search digest's goals, and ``eliminate_cuts`` on
``proofgen``'s nested cuts.
"""

import json
import pathlib
import random
import sys

import proofgen
from truthcut.kernel import check_derivation
from truthcut.script import ScriptError, parse_script
from truthcut.semantics import build_universe, check_soundness, least_fixed_point
from truthcut.syntax import Not, is_sentence
from truthcut.transform import eliminate_cuts

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import search_digest  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"
TERM_BOUND = 3


def _golden():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest:
        if not entry["valid"]:
            continue
        try:
            d = parse_script((GOLDEN / entry["file"]).read_text(encoding="utf-8"))
        except ScriptError:
            continue
        yield entry["file"], d


def _searched():
    for k, _, d in search_digest.sample_proofs():
        yield f"search {k}", d


def _eliminated():
    rng = random.Random(17)
    for k, n in enumerate((1, 2, 3) * 20):
        d = proofgen.nested_cuts(rng, n)
        if d is not None:
            yield f"elim {k}", eliminate_cuts(d, "lptn").derivation


def _in_scope(d) -> bool:
    """Whether ``d`` is a cut-free ``lptn`` proof of a sentence sequent."""
    end = d.conclusion.ante_formulas() + d.conclusion.succ_formulas()
    return (all(map(is_sentence, end))
            and all(n.rule != "cut" for n in d.iter_nodes())
            and check_derivation(d, "lptn").ok)


def _backed(d):
    end = d.conclusion.ante_formulas() + d.conclusion.succ_formulas()
    fp = least_fixed_point(
        build_universe(end + [Not(f) for f in end], TERM_BOUND))
    return check_soundness(d, fp)


def test_cut_free_proofs_are_semantically_backed():
    # [DERIVED] the law holds on every in-scope proof of the three corpora,
    # and each corpus contributes proofs
    checked, failures = {}, []
    for corpus in (_golden, _searched, _eliminated):
        checked[corpus.__name__] = 0
        for label, d in corpus():
            if not _in_scope(d):
                continue
            checked[corpus.__name__] += 1
            verdict = _backed(d)
            if not verdict.holds:
                failures.append((label, verdict))
    assert failures == []
    assert all(checked.values()), checked
