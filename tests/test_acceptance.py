"""End-to-end acceptance suite.

Each test exercises one externally checkable guarantee of the package:
golden-corpus verdict stability, exact occurrence T-complexity accounting,
certificate-producing transformations at scale, consistency and groundedness
of bounded search, and the correspondence between cut-free provability and
the finite-stage fixed-point semantics.
"""

import json
import pathlib
import random
import time

import pytest

from truthcut import build as B
from truthcut.coding import decode_sentence, encode, liar, quote, truth_teller
from truthcut.deriv import compute_measures
from truthcut.kernel import check_derivation
from truthcut.script import ScriptError, parse_script
from truthcut.search import SearchBudget, search_cut_free
from truthcut.semantics import (
    build_universe,
    check_completeness,
    check_soundness,
    check_transparency,
    least_fixed_point,
)
from truthcut.syntax import (
    And,
    Bot,
    Eq,
    Forall,
    Not,
    Num,
    Suc,
    Tr,
    Zero,
)
from truthcut.transform import contract, eliminate_cuts, hyperexp, invert

from proofgen import (
    and_left,
    and_right,
    bot_leaf,
    chain_numeral,
    check_conservativity,
    duplicated_derivation,
    forall_right,
    neg_right,
    nested_cuts,
    random_derivation,
    truth_left,
    truth_right,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

PHI = Eq(Zero(), Zero())
BAD = Eq(Zero(), Suc(Zero()))
TPHI = Tr(quote(PHI))
TTPHI = Tr(quote(TPHI))

#: derivations produced by the transformation tests, re-checked later for
#: empty end sequents
_TRANSFORM_OUTPUTS = []


def _record(d):
    assert d.conclusion.ante or d.conclusion.succ
    _TRANSFORM_OUTPUTS.append(d)


# ---------------------------------------------------------------------------
# 1. Golden corpus: exact verdicts and reason codes


def test_golden_corpus_verdicts():
    # [DERIVED] every golden file reproduces its recorded verdict and exact
    # reason-code set, or the reader's recorded refusal, all twenty-one in
    # under a second
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert len(manifest) == 21
    start = time.monotonic()
    for entry in manifest:
        text = (GOLDEN / entry["file"]).read_text()
        if "refused" in entry:
            with pytest.raises(ScriptError) as refusal:
                parse_script(text)
            assert str(refusal.value) == entry["refused"], entry["file"]
            continue
        d = parse_script(text)
        report = check_derivation(d, entry["system"])
        assert report.ok == entry["valid"], entry["file"]
        assert sorted(set(report.codes())) == sorted(set(entry["codes"])), \
            (entry["file"], report.codes())
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Hand-annotated occurrence T-complexities


def _tau_table(d):
    m = compute_measures(d)
    table = {"ante": [], "succ": []}
    for side in ("ante", "succ"):
        for o in getattr(d.conclusion, side):
            table[side].append((o.formula, m.tau[o.id]))
    return m, table


def test_hand_annotated_tau():
    # [DERIVED] ten derivations with every end-sequent occurrence's
    # T-complexity computed by hand
    cases = []

    # 1. leaf: every occurrence 0, even truth atoms in context
    cases.append((B.init_leaf([TPHI], PHI, []),
                  {"ante": [(TPHI, 0), (PHI, 0)], "succ": [(PHI, 0)]}))

    # 2. truth-left principal: content tau 0 plus one
    d = B.init_leaf([], PHI, [])
    d2 = truth_left(d, d.conclusion.ante[0].id)
    cases.append((d2, {"ante": [(TPHI, 1)], "succ": [(PHI, 0)]}))

    # 3. truth-right principal
    d = B.init_leaf([], PHI, [])
    d3 = truth_right(d, d.conclusion.succ[0].id)
    cases.append((d3, {"ante": [(PHI, 0)], "succ": [(TPHI, 1)]}))

    # 4. iterated truth-right: one more than the inner ascription
    d4 = truth_right(d3, d3.conclusion.succ[0].id)
    cases.append((d4, {"ante": [(PHI, 0)], "succ": [(TTPHI, 2)]}))

    # 5. negation transfers the body's tau
    d5 = neg_right(d2, d2.conclusion.ante[0].id)
    cases.append((d5, {"ante": [], "succ": [(PHI, 0), (Not(TPHI), 1)]}))

    # 6. conjunction-left takes the max of the conjuncts
    leaf = B.init_leaf([PHI], PHI, [])
    da = truth_left(leaf, leaf.conclusion.ante[0].id)
    tid = next(o.id for o in da.conclusion.ante if o.formula == TPHI)
    pid = next(o.id for o in da.conclusion.ante if o.formula == PHI)
    d6 = and_left(da, tid, pid)
    cases.append((d6, {"ante": [(And(TPHI, PHI), 1)], "succ": [(PHI, 0)]}))

    # 7. conjunction-right takes the max over the premise actives
    a0 = B.init_leaf([], PHI, [])
    a = truth_right(a0, a0.conclusion.succ[0].id)
    b = B.init_leaf([], PHI, [])
    d7 = and_right(a, a.conclusion.succ[0].id, b, b.conclusion.succ[0].id)
    cases.append((d7, {"ante": [(PHI, 0)], "succ": [(And(TPHI, PHI), 1)]}))

    # 8. forall-right transfers the active's tau
    fa = Forall("x", TPHI)
    d8 = forall_right(d3, d3.conclusion.succ[0].id, fa, "x")
    cases.append((d8, {"ante": [(PHI, 0)], "succ": [(fa, 1)]}))

    # 9. compositional rule: max of the actives plus one
    p0 = B.init_leaf([], PHI, [])
    p1 = B.init_leaf([], PHI, [])
    d9 = B.comp_node(p0, p0.conclusion.succ[0].id,
                     p1, p1.conclusion.succ[0].id)
    comp_f = d9.conclusion.succ[0].formula
    cases.append((d9, {"ante": [(PHI, 0)], "succ": [(comp_f, 1)]}))

    # 10. cut context: max over the two parent occurrences (1 from the
    # truth-left principal, 0 from the plain context copy)
    a0 = B.init_leaf([Bot()], PHI, [])
    pid = next(o.id for o in a0.conclusion.ante if o.formula == PHI)
    a1 = truth_left(a0, pid)
    b = bot_leaf([PHI, TPHI], [])
    d10 = B.cut(
        a1, next(o.id for o in a1.conclusion.succ if o.formula == PHI),
        b, next(o.id for o in b.conclusion.ante if o.formula == PHI),
    )
    cases.append((d10, {"ante": [(Bot(), 0), (TPHI, 1)], "succ": []}))

    systems = ["lgt"] * 8 + ["lptn_comp", "lgt"]
    assert len(cases) == 10
    for (d, expect), system in zip(cases, systems):
        assert check_derivation(d, system).ok
        _, table = _tau_table(d)
        for side in ("ante", "succ"):
            assert sorted(table[side], key=repr) == \
                sorted(expect[side], key=repr), (system, side, table)


# ---------------------------------------------------------------------------
# 3. Inversion certificates at scale


def _certificate_ok(cert):
    return all(actual <= bound for _, bound, actual in cert.checks)


def test_inversion_certificates_bulk():
    # [DERIVED] at least 10^3 inversions on random restricted-initial-sequent
    # derivations: bounds hold, truth inversion strictly lowers positive tau
    rng = random.Random(101)
    certs = 0
    strict = 0
    while certs < 1000:
        d = random_derivation(rng, system="lgt")
        m_in = compute_measures(d)
        for o in list(d.conclusion.ante) + list(d.conclusion.succ):
            f = o.formula
            if isinstance(f, Tr) and not isinstance(f.term, Num):
                continue
            if not isinstance(f, (Tr, Not, And)):
                continue
            results = invert(d, o.id, "lgt")
            if not isinstance(results, tuple):
                results = (results,)
            for r in results:
                assert _certificate_ok(r.certificate)
                m_out = compute_measures(r.derivation)
                assert m_out.length <= m_in.length
                assert m_out.cut_rank <= m_in.cut_rank
                assert m_out.proof_tau <= m_in.proof_tau
                if isinstance(f, Tr) and m_in.tau[o.id] > 0:
                    new_id = r.occ_map[o.id][0]
                    assert m_out.tau[new_id] < m_in.tau[o.id]
                    strict += 1
                _record(r.derivation)
                certs += 1
    assert certs >= 1000
    assert strict > 0


# ---------------------------------------------------------------------------
# 4. Contraction certificates at scale


def test_contraction_certificates_bulk():
    # [DERIVED] at least 10^3 contractions: merged tau at most the max of the
    # two inputs, and no growth in length, cut rank, or proof T-complexity
    rng = random.Random(202)
    for _ in range(1000):
        d, ida, idb = duplicated_derivation(rng)
        m_in = compute_measures(d)
        r = contract(d, ida, idb, "lptn")
        assert _certificate_ok(r.certificate)
        m_out = compute_measures(r.derivation)
        assert m_out.length <= m_in.length
        assert m_out.cut_rank <= m_in.cut_rank
        assert m_out.proof_tau <= m_in.proof_tau
        merged = r.occ_map[ida]
        assert m_out.tau[merged] <= max(m_in.tau[ida], m_in.tau[idb])
        _record(r.derivation)


# ---------------------------------------------------------------------------
# 5. Cut elimination at scale


def test_cut_elimination_bulk():
    # [DERIVED] at least 200 derivations with 1-3 cuts of rank <= 3 and
    # length <= 12; elimination yields valid cut-free proofs of the same end
    # sequent within the iterated-exponential length bound, in under 60 s
    rng = random.Random(303)
    inputs = []
    while len(inputs) < 200:
        d = nested_cuts(rng, rng.randrange(1, 4))
        if d is None:
            continue
        m = compute_measures(d)
        if m.cut_rank == 0 or m.cut_rank > 3 or m.length > 12:
            continue
        inputs.append((d, m))
    start = time.monotonic()
    for d, m in inputs:
        r = eliminate_cuts(d, "lptn")
        out = r.derivation
        assert check_derivation(out, "lptn").ok
        assert all(n.rule != "cut" for n in out.iter_nodes())
        mo = compute_measures(out)
        assert sorted(map(repr, out.conclusion.ante_formulas())) == \
            sorted(map(repr, d.conclusion.ante_formulas()))
        assert sorted(map(repr, out.conclusion.succ_formulas())) == \
            sorted(map(repr, d.conclusion.succ_formulas()))
        assert mo.cut_rank == 0
        assert mo.proof_tau <= m.proof_tau
        assert mo.length <= hyperexp(m.cut_rank, m.length)
        _record(out)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. Consistency: the empty sequent is unreachable


def test_empty_sequent_unreachable():
    # [DERIVED] exhaustive bounded search fails in all three systems, and no
    # transformation in this suite produced an empty end sequent
    budget = SearchBudget(max_depth=12, max_term_index=8, max_tau_unfold=6)
    for system in ("lgt", "qg", "lptn"):
        r = search_cut_free([], [], budget, system)
        assert not r.found, system
    for d in _TRANSFORM_OUTPUTS:
        assert d.conclusion.ante or d.conclusion.succ


# ---------------------------------------------------------------------------
# 7. Truth rules are conservative over the arithmetic fragment


def _random_closed_formula(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Eq(chain_numeral(rng.randrange(4)), chain_numeral(rng.randrange(4)))
    if rng.random() < 0.5:
        return Not(_random_closed_formula(rng, depth - 1))
    return And(_random_closed_formula(rng, depth - 1),
               _random_closed_formula(rng, depth - 1))


def _holds(phi):
    from truthcut.coding import eval_term

    if isinstance(phi, Eq):
        return eval_term(phi.left) == eval_term(phi.right)
    if isinstance(phi, Not):
        return not _holds(phi.body)
    if isinstance(phi, And):
        return _holds(phi.left) and _holds(phi.right)
    raise AssertionError(phi)


def test_conservativity_over_truth_free_sequents():
    # [DERIVED] 100 variable-free sequents, 50 true and 50 false by the
    # evaluation oracle: provability with truth rules matches provability
    # without them
    rng = random.Random(404)
    true_goals, false_goals = [], []
    while len(true_goals) < 50 or len(false_goals) < 50:
        phi = _random_closed_formula(rng, 2)
        if _holds(phi) and len(true_goals) < 50:
            true_goals.append(phi)
        elif not _holds(phi) and len(false_goals) < 50:
            false_goals.append(phi)
    seqs = [([], [phi]) for phi in true_goals] + \
        [([phi], []) for phi in false_goals]
    assert len(seqs) == 100
    budget = SearchBudget(max_depth=8, max_term_index=4, max_tau_unfold=4)
    report = check_conservativity(seqs, budget)
    assert report.symmetric, report.asymmetries()


# ---------------------------------------------------------------------------
# 8. Fixed point on the standard seed set


def _standard_fixed_point():
    seeds = [PHI, Not(BAD), TPHI, TTPHI, liar(), truth_teller()]
    return least_fixed_point(build_universe(seeds, term_bound=2))


def test_fixed_point_on_standard_seeds():
    # [DERIVED] the operator saturates; truth iterations enter at successive
    # stages; both self-referential sentences and their negations stay out
    fp = _standard_fixed_point()
    assert fp.stages[fp.saturation_index] == fp.members
    assert fp.norm(encode(PHI)) == 0
    assert fp.norm(encode(TPHI)) == 1
    assert fp.norm(encode(TTPHI)) == 2
    lam, tt = liar(), truth_teller()
    for s in (lam, Not(lam), tt, Not(tt)):
        assert encode(s) not in fp.members


# ---------------------------------------------------------------------------
# 9. Soundness of found proofs against the semantics


def test_search_proofs_semantically_backed():
    # [DERIVED] at least 200 search-found cut-free proofs: each end sequent
    # has a semantic witness entering no later than the proof's length
    rng = random.Random(505)
    budget = SearchBudget(max_depth=8, max_term_index=4, max_tau_unfold=4)
    checked = 0
    while checked < 200:
        phi = _random_closed_formula(rng, rng.randrange(3))
        if rng.random() < 0.3:
            phi = Tr(quote(phi))
        seq = ([], [phi]) if _holds_ext(phi) else ([phi], [])
        r = search_cut_free(seq[0], seq[1], budget, "lptn")
        if not r.found:
            continue
        seeds = [Not(f) for f in seq[0]] + list(seq[1])
        fp = least_fixed_point(build_universe(seeds, term_bound=2))
        v = check_soundness(r.derivation, fp)
        assert v.holds
        assert v.witness_norm <= v.alpha
        checked += 1
    assert checked >= 200


def _holds_ext(phi):
    if isinstance(phi, Tr):
        return _holds_ext(decode_sentence(phi.term.value))
    return _holds(phi)


# ---------------------------------------------------------------------------
# 10. Completeness of grounded members within a small depth slack


def test_grounded_members_provable_within_norm_slack():
    # [DERIVED] every grounded quantifier-free fixed-point member is provable
    # by cut-free search at depth norm + 4; the slack of 4 covers the
    # structural rule applications surrounding each truth unfolding
    fp = _standard_fixed_point()
    tested = 0
    for c in sorted(fp.members):
        phi = decode_sentence(c)
        nu = fp.norm(c)
        budget = SearchBudget(max_depth=nu + 4, max_term_index=4,
                              max_tau_unfold=nu + 4)
        v = check_completeness(phi, fp, budget)
        assert v.status in ("proved", "vacuous"), (phi, v)
        if v.status == "proved":
            tested += 1
    assert tested >= 3


# ---------------------------------------------------------------------------
# 11. Transparency of the fixed point


def test_fixed_point_transparency():
    # [DERIVED] a truth ascription is in the fixed point exactly when its
    # content is, for every in-universe pair
    fp = _standard_fixed_point()
    assert check_transparency(fp) == []
    from truthcut.coding import eval_term

    pairs = 0
    for c in fp.universe.codes:
        phi = decode_sentence(c)
        if isinstance(phi, Tr):
            inner = eval_term(phi.term)
            if inner in fp.universe.codes:
                assert (c in fp.members) == (inner in fp.members)
                pairs += 1
    assert pairs >= 2
