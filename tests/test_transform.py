"""Certificate-producing structural transformations."""

import itertools
import random
import sys
from dataclasses import replace

import pytest

from truthcut import build as B
from truthcut import deriv, transform
from truthcut.arith import prove_equation, refute_equation
from truthcut.coding import encode, quote
from truthcut.deriv import compute_measures
from truthcut.kernel import check_derivation
from truthcut.script import print_script
from truthcut.search import SearchBudget, search_cut_free
from truthcut.syntax import (
    And,
    Bot,
    Eq,
    Forall,
    Not,
    Num,
    Plus,
    Suc,
    SynApp,
    Top,
    Tr,
    Var,
    Zero,
)
from truthcut.transform import (
    CertificateError,
    TransformError,
    _length_bound,
    _within,
    contract,
    drop_context,
    eliminate_cuts,
    hyperexp,
    invert,
    reduce_cut,
    substitute_proof,
    weaken,
)

from proofgen import (
    and_left,
    and_right,
    bot_leaf,
    duplicated_derivation,
    forall_left,
    forall_right,
    neg_left,
    neg_right,
    nested_cuts,
    principal_cuts,
    random_derivation,
    top_leaf,
    truth_left,
    truth_right,
)

PHI = Eq(Zero(), Zero())
PSI = Eq(Suc(Zero()), Suc(Zero()))
TPHI = Tr(quote(PHI))


def _ante_id(d, f, nth=0):
    return [o.id for o in d.conclusion.ante if o.formula == f][nth]


def _succ_id(d, f, nth=0):
    return [o.id for o in d.conclusion.succ if o.formula == f][nth]


# ---------------------------------------------------------------------------
# Weakening and substitution


def test_weaken_adds_context_everywhere():
    # [DERIVED] weakening extends every sequent and leaves (n, m, k) fixed
    lf = B.init_leaf([PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    m0 = compute_measures(d)
    r = weaken(d, [Not(PSI)], [TPHI], "lptn")
    assert check_derivation(r.derivation, "lptn").ok
    m1 = compute_measures(r.derivation)
    assert m1.triple() == m0.triple()
    assert Not(PSI) in r.derivation.conclusion.ante_formulas()
    assert TPHI in r.derivation.conclusion.succ_formulas()
    for node in r.derivation.iter_nodes():
        assert Not(PSI) in node.conclusion.ante_formulas()
    assert all(c[2] <= c[1] for c in r.certificate.checks)


def test_weaken_random_corpus():
    # [DERIVED] 100 random proofs
    rng = random.Random(11)
    for _ in range(100):
        d = random_derivation(rng)
        m0 = compute_measures(d)
        r = weaken(d, [PSI], [], "lptn")
        assert check_derivation(r.derivation, "lptn").ok
        assert compute_measures(r.derivation).triple() == m0.triple()


def test_substitute_proof():
    # [DERIVED] substitution maps a free variable through the whole proof
    goal = Eq(Var("x"), Var("x"))
    d = prove_equation([], Var("x"), Var("x"), [])
    r = substitute_proof(d, "x", Suc(Zero()), "qg")
    assert check_derivation(r.derivation, "qg").ok
    assert r.derivation.conclusion.succ_formulas() == [Eq(Suc(Zero()), Suc(Zero()))]
    assert compute_measures(r.derivation).triple() == compute_measures(d).triple()
    assert goal not in r.derivation.conclusion.succ_formulas()


def test_substitute_rejects_eigenvariable():
    # [DERIVED] substituting for or into an eigenvariable is refused
    p0 = prove_equation([], Var("y"), Var("y"), [])
    fa = Forall("x", Eq(Var("x"), Var("x")))
    d = forall_right(p0, _succ_id(p0, Eq(Var("y"), Var("y"))), fa, "y")
    assert check_derivation(d, "qg").ok
    with pytest.raises(TransformError, match="^cannot substitute for eigenvariable y$"):
        substitute_proof(d, "y", Zero(), "qg")


# ---------------------------------------------------------------------------
# Inversion


def test_invert_negation_right():
    # [DERIVED] inverting a succedent negation moves the body left
    lf = B.init_leaf([PHI], PHI, [])
    nl = neg_left(lf, lf.conclusion.succ[0].id)
    d = neg_right(nl, _ante_id(nl, PHI))
    r = invert(d, _succ_id(d, Not(PHI)), "lgt")
    out = r.derivation
    assert check_derivation(out, "lgt").ok
    assert PHI in out.conclusion.ante_formulas()
    assert Not(PHI) not in out.conclusion.succ_formulas()
    m0, m1 = compute_measures(d), compute_measures(out)
    assert m1.length <= m0.length


def test_invert_truth_strict_tau_decrease():
    # [DERIVED] inverting a truth ascription strictly lowers its tau
    lf = B.init_leaf([PHI], PHI, [])
    d1 = truth_left(lf, lf.conclusion.ante[0].id)
    d2 = truth_left(d1, _ante_id(d1, TPHI))
    ttphi = Tr(quote(TPHI))
    tid = _ante_id(d2, ttphi)
    m0 = compute_measures(d2)
    assert m0.tau[tid] == 2
    r = invert(d2, tid, "lptn")
    out = r.derivation
    assert check_derivation(out, "lptn").ok
    assert TPHI in out.conclusion.ante_formulas()
    new_id = _ante_id(out, TPHI)
    assert compute_measures(out).tau[new_id] <= m0.tau[tid] - 1


def test_invert_conjunction_antecedent():
    # [DERIVED] one output containing both conjuncts
    conj = And(PHI, PSI)
    lf = B.init_leaf([PHI, PSI], PHI, [])
    d = and_left(lf, _ante_id(lf, PHI, 0), _ante_id(lf, PSI))
    r = invert(d, _ante_id(d, conj), "lgt")
    out = r.derivation
    assert check_derivation(out, "lgt").ok
    assert PHI in out.conclusion.ante_formulas()
    assert PSI in out.conclusion.ante_formulas()
    assert conj not in out.conclusion.ante_formulas()


def test_invert_conjunction_succedent_two_results():
    # [DERIVED] succedent conjunction inverts to two proofs
    a = B.init_leaf([PSI], PHI, [])   # PSI, PHI => PHI
    b = B.init_leaf([PHI], PSI, [])   # PHI, PSI => PSI
    d = and_right(a, _succ_id(a, PHI), b, _succ_id(b, PSI))
    results = invert(d, _succ_id(d, And(PHI, PSI)), "lgt")
    assert isinstance(results, tuple) and len(results) == 2
    left, right = results
    assert PHI in left.derivation.conclusion.succ_formulas()
    assert PSI in right.derivation.conclusion.succ_formulas()
    for r in results:
        assert check_derivation(r.derivation, "lgt").ok


def test_invert_universal_succedent():
    # [DERIVED] a succedent universal inverts to a fresh-variable instance
    p0 = prove_equation([], Var("y"), Var("y"), [])
    fa = Forall("x", Eq(Var("x"), Var("x")))
    d = forall_right(p0, _succ_id(p0, Eq(Var("y"), Var("y"))), fa, "y")
    r = invert(d, _succ_id(d, fa), "qg")
    out = r.derivation
    assert check_derivation(out, "qg").ok
    succ = out.conclusion.succ_formulas()
    assert len(succ) == 1 and isinstance(succ[0], Eq)
    assert fa not in succ


def test_invert_context_occurrence():
    # [DERIVED] inversion also applies to occurrences never introduced by a
    # rule (pure context): the formula is replaced throughout the lineage
    lf = B.init_leaf([Not(PHI)], PHI, [])
    d = truth_left(lf, _ante_id(lf, PHI))
    r = invert(d, _ante_id(d, Not(PHI)), "lptn")
    out = r.derivation
    assert check_derivation(out, "lptn").ok
    assert Not(PHI) not in out.conclusion.ante_formulas()
    assert PHI in out.conclusion.succ_formulas()


# ---------------------------------------------------------------------------
# Contraction


def test_contract_merges_duplicates():
    # [DERIVED] contraction removes one duplicate, keeps (n, m, k), and the
    # merged occurrence's tau is at most the max of the two inputs
    rng = random.Random(23)
    for _ in range(100):
        d, a, b = duplicated_derivation(rng)
        m0 = compute_measures(d)
        r = contract(d, a, b, "lptn")
        out = r.derivation
        assert check_derivation(out, "lptn").ok
        m1 = compute_measures(out)
        assert m1.length <= m0.length
        assert m1.cut_rank <= m0.cut_rank
        assert m1.proof_tau <= m0.proof_tau
        merged = r.occ_map[a]
        assert m1.tau[merged] <= max(m0.tau[a], m0.tau[b])


def test_contract_rejects_mismatched_occurrences():
    # [TRIVIAL] different formulas or different sides cannot be contracted
    lf = B.init_leaf([PHI, PSI], PHI, [])
    with pytest.raises(TransformError):
        contract(lf, _ante_id(lf, PHI, 0), _ante_id(lf, PSI), "lptn")


def test_contract_refuses_one_occurrence_twice():
    # [DERIVED] two equal ids name one occurrence, not two copies; this was
    # a bare KeyError
    lf = B.init_leaf([], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    for proof in (lf, d):
        oid = proof.conclusion.ante[0].id
        with pytest.raises(TransformError, match="two distinct occurrences"):
            contract(proof, oid, oid, "lptn")


def test_drop_context_checks_its_occurrence():
    # [DERIVED] an id outside the end sequent is refused before any walk; a
    # leaf came back unchanged and a larger proof raised a lineage fault
    lf = B.init_leaf([PSI], PHI, [])
    d = truth_left(lf, _ante_id(lf, PHI))
    missing = 1 + max(o.id for n in d.iter_nodes()
                      for o in n.conclusion.all_occurrences())
    for proof in (lf, d):
        with pytest.raises(TransformError,
                           match=f"occurrence {missing} not in the conclusion"):
            drop_context(proof, missing)


# ---------------------------------------------------------------------------
# Principal contraction: a context copy merged into each rule's principal


def _contract_tl():
    lf = B.init_leaf([PHI], PHI, [])          # PHI, PHI => PHI
    d1 = truth_left(lf, lf.conclusion.ante[0].id)
    d = truth_left(d1, _ante_id(d1, PHI))   # TPHI, TPHI => PHI
    return d, "lptn"


def _contract_tr():
    lf = B.init_leaf([], PHI, [PHI])          # PHI => PHI, PHI
    d1 = truth_right(lf, lf.conclusion.succ[1].id)
    d = truth_right(d1, _succ_id(d1, PHI))  # PHI => TPHI, TPHI
    return d, "lptn"


def _contract_negl():
    lf = B.init_leaf([Not(PHI)], PHI, [])     # ~PHI, PHI => PHI
    d = neg_left(lf, lf.conclusion.succ[0].id)
    return d, "lptn"


def _contract_negr():
    lf = B.init_leaf([PHI], PHI, [])          # PHI, PHI => PHI
    d1 = neg_right(lf, lf.conclusion.ante[0].id)
    d = neg_right(d1, _ante_id(d1, PHI))    # => PHI, ~PHI, ~PHI
    return d, "lptn"


def _contract_andl(right):
    conj = And(PHI, right)
    lf = B.init_leaf([PHI, conj], right, [])  # PHI, conj, right => right
    d = and_left(lf, lf.conclusion.ante[0].id, lf.conclusion.ante[2].id)
    return d, "lptn"


def _contract_andr():
    conj = And(PHI, PSI)
    a = B.init_leaf([PSI], PHI, [conj])       # PSI, PHI => PHI, conj
    b = B.init_leaf([PHI], PSI, [conj])       # PHI, PSI => PSI, conj
    d = and_right(a, a.conclusion.succ[0].id, b, b.conclusion.succ[0].id)
    return d, "lptn"


FA = Forall("x", Eq(Var("x"), Var("x")))


def _contract_foralll():
    lf = B.init_leaf([FA, FA], PHI, [])       # FA, FA, PHI => PHI
    d = forall_left(lf, lf.conclusion.ante[0].id, lf.conclusion.ante[2].id,
                    Zero())
    return d, "qg"


def _contract_forallr():
    y, z = Var("y"), Var("z")
    p = prove_equation([], y, y, [Eq(z, z)])  # => y=y, z=z
    d1 = forall_right(p, _succ_id(p, Eq(z, z)), FA, "z")
    d = forall_right(d1, _succ_id(d1, Eq(y, y)), FA, "y")  # => FA, FA
    return d, "qg"


PRINCIPAL_CASES = {
    "Tl": _contract_tl,
    "Tr": _contract_tr,
    "negl": _contract_negl,
    "negr": _contract_negr,
    "andl": lambda: _contract_andl(PSI),
    "andl A&A": lambda: _contract_andl(PHI),
    "andr": _contract_andr,
    "foralll": _contract_foralll,
    "forallr": _contract_forallr,
}

#: print_script output and certificate checks of each contraction above,
#: with the occurrence-id counter reset before the input is built
PRINCIPAL_PINS = {
    "Tl": ("1: init [] (= 0 0) => (= 0 0)\n2: Tl [1] (T 391) => (= 0 0)\n",
           (("length", 2, 1), ("cutRank", 0, 0), ("proofTau", 1, 1),
            ("tau[merged]", 1, 1), ("tau[8]", 0, 0))),
    "Tr": ("1: init [] (= 0 0) => (= 0 0)\n2: Tr [1] (= 0 0) => (T 391)\n",
           (("length", 2, 1), ("cutRank", 0, 0), ("proofTau", 1, 1),
            ("tau[merged]", 1, 1), ("tau[7]", 0, 0))),
    "negl": ("1: init [] (= 0 0) => (= 0 0)\n"
             "2: negl [1] (= 0 0), (not (= 0 0)) =>\n",
             (("length", 1, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
              ("tau[merged]", 0, 0), ("tau[5]", 0, 0))),
    "negr": ("1: init [] (= 0 0) => (= 0 0)\n"
             "2: negr [1] => (= 0 0), (not (= 0 0))\n",
             (("length", 2, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
              ("tau[merged]", 0, 0), ("tau[7]", 0, 0))),
    "andl": ("1: init [] (= 0 0), (= (S 0) (S 0)) => (= (S 0) (S 0))\n"
             "2: andl [1] (and (= 0 0) (= (S 0) (S 0))) => (= (S 0) (S 0))\n",
             (("length", 1, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
              ("tau[merged]", 0, 0), ("tau[6]", 0, 0))),
    "andl A&A": ("1: init [] (= 0 0), (= 0 0) => (= 0 0)\n"
                 "2: andl [1] (and (= 0 0) (= 0 0)) => (= 0 0)\n",
                 (("length", 1, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
                  ("tau[merged]", 0, 0), ("tau[6]", 0, 0))),
    "andr": ("1: init [] (= (S 0) (S 0)), (= 0 0) => (= 0 0)\n"
             "2: init [] (= 0 0), (= (S 0) (S 0)) => (= (S 0) (S 0))\n"
             "3: andr [1, 2] (= (S 0) (S 0)), (= 0 0) => "
             "(and (= 0 0) (= (S 0) (S 0)))\n",
             (("length", 1, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
              ("tau[merged]", 0, 0), ("tau[9]", 0, 0), ("tau[10]", 0, 0))),
    "foralll": ("1: init [] (forall x (= x x)), (= 0 0) => (= 0 0)\n"
                "2: foralll [1] (forall x (= x x)) => (= 0 0)\n",
                (("length", 1, 1), ("cutRank", 0, 0), ("proofTau", 0, 0),
                 ("tau[merged]", 0, 0), ("tau[6]", 0, 0))),
    "forallr": ("1: init [] (= y y) => (= y y)\n"
                "2: eq1 [1] => (= y y)\n"
                "3: forallr [2] => (forall x (= x x))\n",
                (("length", 3, 2), ("cutRank", 0, 0), ("proofTau", 0, 0),
                 ("tau[merged]", 0, 0))),
}


def _principal_and_copy(d):
    """The root's principal and the other occurrence of its formula on its
    side."""
    side, _, p = d.conclusion.find(d.principal[0])
    copy = next(o.id for o in getattr(d.conclusion, side)
                if o.formula == p.formula and o.id != p.id)
    return p.id, copy


@pytest.mark.parametrize("name", PRINCIPAL_CASES)
def test_contract_into_principal_pinned(name, monkeypatch):
    # [DERIVED] merging a context copy into the principal of each rule gives
    # the pinned proof and certificate, in either argument order
    for swap in (False, True):
        monkeypatch.setattr(deriv, "_ids", itertools.count(1))
        d, system = PRINCIPAL_CASES[name]()
        assert d.rule == name.split()[0]
        pid, cid = _principal_and_copy(d)
        r = contract(d, *((cid, pid) if swap else (pid, cid)), system)
        assert (print_script(r.derivation),
                r.certificate.checks) == PRINCIPAL_PINS[name]


def test_contract_refuses_a_compositional_principal():
    # [DERIVED] no contraction through comp: its premises prove the parts of
    # a pointwise conjunction, which inversion cannot reach
    term = SynApp("anddot", (Num(encode(PHI)), Num(encode(PSI))))
    a = B.init_leaf([PSI], PHI, [Tr(term)])   # PSI, PHI => PHI, T(term)
    b = B.init_leaf([PHI], PSI, [Tr(term)])   # PHI, PSI => PSI, T(term)
    d = B.comp_node(a, a.conclusion.succ[0].id, b, b.conclusion.succ[0].id)
    assert check_derivation(d, "lptn_comp").ok
    with pytest.raises(TransformError, match="compositional principal"):
        contract(d, *_principal_and_copy(d), "lptn_comp")


# ---------------------------------------------------------------------------
# Cut reduction


def _where(seq, skip=None):
    return {o.id: (side, o.formula) for side in ("ante", "succ")
            for o in getattr(seq, side) if o.id != skip}


def _assert_exact(occ_map, before, after):
    """``occ_map`` is a bijection from the occurrences ``before`` onto the
    end sequent ``after``, keeping each occurrence's side and formula."""
    assert {k: after[v] for k, v in occ_map.items()} == before
    assert sorted(occ_map.values()) == sorted(after)


def _check_reduction(d0, aid, d1, bid, system="lptn"):
    m0, m1 = compute_measures(d0), compute_measures(d1)
    r = reduce_cut(d0, aid, d1, bid, system)
    out = r.derivation
    assert check_derivation(out, system).ok
    _assert_exact(r.occ_map, _where(d0.conclusion, aid), _where(out.conclusion))
    m = compute_measures(out)
    assert m.length <= m0.length + m1.length
    assert m.proof_tau <= max(m0.proof_tau, m1.proof_tau)
    return out


def test_reduce_cut_atomic():
    # [DERIVED] atomic cut against an initial right premise contracts away
    d0 = prove_equation([], Zero(), Zero(), [PHI])
    d1 = B.init_leaf([], PHI, [])
    out = _check_reduction(d0, _succ_id(d0, PHI, 0), d1, _ante_id(d1, PHI))
    assert out.conclusion.succ_formulas() == [PHI]


def test_reduce_cut_negation_principal():
    # [DERIVED] principal negation on both sides swaps the premises
    neg = Not(PHI)
    p = B.init_leaf([PHI], PSI, [])
    d0 = neg_right(p, _ante_id(p, PHI))              # PSI => PSI, not PHI
    q = B.init_leaf([], PSI, [PHI])
    d1 = neg_left(q, _succ_id(q, PHI))               # not PHI, PSI => PSI
    out = _check_reduction(d0, _succ_id(d0, neg), d1, _ante_id(d1, neg))
    assert out.conclusion.ante_formulas() == [PSI]
    assert out.conclusion.succ_formulas() == [PSI]


def test_reduce_cut_conjunction_principal():
    # [DERIVED] principal conjunction: nested cuts on the conjuncts
    conj = And(PHI, PSI)
    ga = [PHI, PSI]
    a0 = B.init_leaf([PSI], PHI, [PHI])                # gamma => PHI, PHI
    a1 = B.init_leaf([PHI], PSI, [PHI])                # gamma => PHI, PSI
    d0 = and_right(a0, _succ_id(a0, PHI, 1), a1, _succ_id(a1, PSI))
    b = B.init_leaf([PSI, PHI, PSI], PHI, [])
    d1 = and_left(b, _ante_id(b, PHI, 0), _ante_id(b, PSI, 0))
    out = _check_reduction(d0, _succ_id(d0, conj), d1, _ante_id(d1, conj))
    assert sorted(map(repr, out.conclusion.ante_formulas())) == \
        sorted(map(repr, ga))


def test_reduce_cut_truth_principal():
    # [DERIVED] principal truth ascription: recurse on the unquoted sentence
    a = B.init_leaf([], PHI, [PHI])
    d0 = truth_right(a, _succ_id(a, PHI, 0))          # PHI => PHI, T<PHI>
    b = B.init_leaf([PHI], PHI, [])
    d1 = truth_left(b, _ante_id(b, PHI, 0))           # T<PHI>, PHI => PHI
    out = _check_reduction(d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI))
    assert out.conclusion.ante_formulas() == [PHI]
    assert out.conclusion.succ_formulas() == [PHI]


def _peeled_negation_cut():
    """The 9-node lptn proof of 0=S0 => whose cut on T<not 0=S0> (rank 1)
    peels into a cut on not 0=S0 (rank 2): (d0, aid, d1, bid, cut)."""
    eq = Eq(Zero(), Suc(Zero()))
    neg = Not(eq)
    r = refute_equation([eq], Zero(), Suc(Zero()), [])      # 0=S0, 0=S0 =>
    n = neg_right(r, _ante_id(r, eq, 1))                  # 0=S0 => not 0=S0
    d0 = truth_right(n, _succ_id(n, neg))                 # 0=S0 => T<..>
    i = B.init_leaf([], eq, [])                             # 0=S0 => 0=S0
    nl = neg_left(i, _succ_id(i, eq))                     # 0=S0, not 0=S0 =>
    d1 = truth_left(nl, _ante_id(nl, neg))                # 0=S0, T<..> =>
    aid, bid = _succ_id(d0, Tr(quote(neg))), _ante_id(d1, Tr(quote(neg)))
    return d0, aid, d1, bid, B.cut(d0, aid, d1, bid)


def test_reduce_cut_past_a_truth_peel_reduces_the_over_rank_cut():
    # [DERIVED] the peeled cut's rank (2) is above the allowed 0, so it is
    # reduced at once: the measure (tau of the cut formula, rank) falls
    d0, aid, d1, bid, cut = _peeled_negation_cut()
    assert sum(1 for _ in cut.iter_nodes()) == 9
    assert check_derivation(cut, "lptn").ok
    out = _check_reduction(d0, aid, d1, bid)
    assert all(n.rule != "cut" for n in out.iter_nodes())
    assert out.conclusion.ante_formulas() == [Eq(Zero(), Suc(Zero()))]
    assert out.conclusion.succ_formulas() == []


def test_eliminate_cuts_past_a_truth_peel():
    # [DERIVED] the same cut inside eliminate_cuts: certified and cut-free
    *_, cut = _peeled_negation_cut()
    r = eliminate_cuts(cut, "lptn")
    assert check_derivation(r.derivation, "lptn").ok
    assert compute_measures(r.derivation).cut_rank == 0
    assert sum(1 for _ in r.derivation.iter_nodes()) == 3
    assert all(c["ok"] for c in r.certificate.as_dict()["checks"])
    _assert_exact(r.occ_map, _where(cut.conclusion), _where(r.derivation.conclusion))


def test_reduce_cut_universal_principal():
    # [DERIVED] principal universal: substitute the witness for the
    # eigenvariable, then cut on the instance
    fa = Forall("x", Eq(Var("x"), Var("x")))
    inst = Eq(Zero(), Zero())
    p0 = prove_equation([], Var("y"), Var("y"), [inst])
    d0 = forall_right(p0, _succ_id(p0, Eq(Var("y"), Var("y"))), fa, "y")
    p1 = B.init_leaf([fa], inst, [])
    d1 = forall_left(p1, _ante_id(p1, fa), _ante_id(p1, inst), Zero())
    out = _check_reduction(d0, _succ_id(d0, fa), d1, _ante_id(d1, fa), "qg")
    assert out.conclusion.succ_formulas() == [inst]


def test_reduce_cut_context_mismatch_rejected():
    # [TRIVIAL]
    d0 = prove_equation([], Zero(), Zero(), [PHI])
    d1 = B.init_leaf([PSI], PHI, [])
    with pytest.raises(TransformError):
        reduce_cut(d0, _succ_id(d0, PHI, 0), d1, _ante_id(d1, PHI), "lptn")


def test_reduce_cut_leaf_premise_cases(monkeypatch):
    # [DERIVED] a leaf premise is one case for either side.  A left leaf
    # with the cut formula principal that is neither init nor top is
    # refused; a right qg1 leaf sends the cut up the left premise
    odd = replace(B.leaf("top", [Bot()], Top(), []), rule="qg1")  # bot => top
    d1 = B.leaf("bot", [Top()], Bot(), [])                        # top, bot =>
    with pytest.raises(TransformError,
                       match="^unexpected succedent principal in leaf qg1$"):
        reduce_cut(odd, _succ_id(odd, Top()), d1, _ante_id(d1, Top()), "lptn")
    bad = Eq(Suc(Zero()), Zero())
    d0 = prove_equation([], Zero(), Zero(), [bad])  # => 0=0, S0=0 by eq1
    qg1 = B.leaf("qg1", [], bad, [PHI])             # S0=0 => 0=0
    pushed = []
    push = transform._push
    monkeypatch.setattr(transform, "_push",
                        lambda cut, mi, *a: pushed.append(mi) or push(cut, mi, *a))
    out = _check_reduction(d0, _succ_id(d0, bad), qg1, _ante_id(qg1, bad))
    assert pushed == [0] and out.conclusion.succ_formulas() == [PHI]


def test_drop_context_refuses_a_principal_occurrence():
    # [DERIVED] only an occurrence that is a side formula all the way up
    # can be dropped
    top = B.leaf("top", [PHI], Top(), [])          # PHI => top
    above = truth_left(top, _ante_id(top, PHI))  # T(PHI) => top
    for d in (top, above):
        with pytest.raises(TransformError,
                           match="^cannot drop a principal occurrence$"):
            drop_context(d, _succ_id(d, Top()))


def _branches_carry_different_contexts():
    """A cut on T<0=0> that is a side formula of an andr whose branches
    differ in what the right premise's context adds at their tops: the
    left top lacks ~C (a negl below it adds it), the right top has it."""
    c = Eq(Suc(Suc(Zero())), Suc(Suc(Zero())))
    r = PSI
    a = B.init_leaf([], PHI, [c, r])                   # PHI => PHI, C, R
    a = B.eq1(a, _ante_id(a, PHI))                     # => PHI, C, R
    a = truth_right(a, _succ_id(a, PHI))             # => T<PHI>, C, R
    a = neg_left(a, _succ_id(a, c))                  # ~C => T<PHI>, R
    b = B.init_leaf([Not(c)], PHI, [r])                # ~C, PHI => PHI, R
    b = B.eq1(b, _ante_id(b, PHI))                     # ~C => PHI, R
    b = truth_right(b, _succ_id(b, PHI))             # ~C => T<PHI>, R
    d0 = and_right(a, _succ_id(a, r), b, _succ_id(b, r))  # ~C => T<PHI>, R&R
    e = []
    for _ in range(2):
        x = B.init_leaf([PHI, Not(c)], r, [])          # PHI, ~C, R => R
        e.append(B.eq1(x, _ante_id(x, r)))             # PHI, ~C => R
    d1 = and_right(e[0], _succ_id(e[0], r), e[1], _succ_id(e[1], r))
    d1 = truth_left(d1, _ante_id(d1, PHI))           # T<PHI>, ~C => R&R
    return d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI)


def test_push_through_branches_that_carry_different_contexts():
    # [DERIVED] the cut is pushed up both branches of the andr, whose tops
    # differ in context: on the left branch the right premise's ~C is
    # inverted past the negl that introduces it, so each top is cut against
    # a premise that fits it
    d0, aid, d1, bid = _branches_carry_different_contexts()
    d = B.cut(d0, aid, d1, bid)
    assert sum(1 for _ in d.iter_nodes()) == 15
    r = reduce_cut(d0, aid, d1, bid, "lptn")
    assert r.certificate.output_measures == (4, 0, 0)
    r = eliminate_cuts(d, "lptn")
    assert r.certificate.output_measures == (4, 0, 0)


# ---------------------------------------------------------------------------
# Occurrence maps through cut reduction


_PREMISE_BUDGET = SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)


def _premise(ante, succ):
    """A kernel-valid cut-free proof of ``ante => succ`` found by search, or
    None."""
    d = search_cut_free(ante, succ, _PREMISE_BUDGET, "lptn").derivation
    if d is None or not check_derivation(d, "lptn").ok:
        return None
    if not (deriv.same_multiset(d.conclusion.ante_formulas(), ante)
            and deriv.same_multiset(d.conclusion.succ_formulas(), succ)):
        return None
    return d


def _cuts(rng):
    """(d0, aid, d1, bid): every end-sequent occurrence of random and
    duplicated-formula proofs cut against a searched proof of the other
    premise, and the last cut of nested-cut proofs.  Cutting each copy of a
    duplicated formula makes a premise hold the cut formula twice on the
    cut side."""
    for _ in range(30):
        for d in (random_derivation(rng), duplicated_derivation(rng)[0]):
            ante, succ = d.conclusion.ante, d.conclusion.succ
            for o in succ:
                e = _premise([o.formula] + [x.formula for x in ante],
                             [x.formula for x in succ if x is not o])
                if e is not None:
                    yield d, o.id, e, _ante_id(e, o.formula)
            for o in ante:
                e = _premise([x.formula for x in ante if x is not o],
                             [x.formula for x in succ] + [o.formula])
                if e is not None:
                    yield e, _succ_id(e, o.formula), d, o.id
    for ncuts in (1, 2, 3) * 10:
        d = nested_cuts(rng, ncuts)
        if d is not None:
            (p0, aid), (p1, bid) = d.actives
            yield d.premises[p0], aid, d.premises[p1], bid


def test_cut_reduction_maps_every_occurrence_exactly():
    # [DERIVED] reduce_cut maps d0's context and eliminate_cuts the end
    # sequent one to one onto the output, side and formula kept
    reduced = twice = 0
    for d0, aid, d1, bid in _cuts(random.Random(47)):
        phi = d0.conclusion.find(aid)[2].formula
        twice += max(d0.conclusion.succ_formulas().count(phi),
                     d1.conclusion.ante_formulas().count(phi)) > 1
        cut = B.cut(d0, aid, d1, bid)
        r = reduce_cut(d0, aid, d1, bid, "lptn")
        e = eliminate_cuts(cut, "lptn")
        _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                      _where(r.derivation.conclusion))
        _assert_exact(e.occ_map, _where(cut.conclusion),
                      _where(e.derivation.conclusion))
        reduced += 1
    assert reduced >= 300 and twice >= 100, (reduced, twice)


def test_principal_cut_reduction_maps_every_occurrence_exactly():
    # [DERIVED] the exact maps hold where the cut formula is principal in
    # both premises, and every pair of principal rules is reached
    pairs = set()
    for d0, aid, d1, bid in principal_cuts(random.Random(53), 15):
        cut = B.cut(d0, aid, d1, bid)
        assert check_derivation(cut, "lptn").ok
        r = reduce_cut(d0, aid, d1, bid, "lptn")
        e = eliminate_cuts(cut, "lptn")
        _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                      _where(r.derivation.conclusion))
        _assert_exact(e.occ_map, _where(cut.conclusion),
                      _where(e.derivation.conclusion))
        pairs.add((d0.rule, d1.rule))
    assert pairs == {("negr", "negl"), ("andr", "andl"),
                     ("forallr", "foralll"), ("Tr", "Tl")}


def _cut_beside_three_copies():
    """A cut on ~PHI whose left premise has three copies of ~PSI in its
    antecedent: one introduced by a negl on the cut formula's path below
    its top, a negr, and two carried from the leaf.  The right premise
    holds the same three, one of them introduced by a negl."""
    n = Not(PSI)
    lf = B.init_leaf([n, n], PHI, [PSI])              # ~PSI, ~PSI, PHI => PHI, PSI
    top = neg_right(lf, _ante_id(lf, PHI))          # ~PSI, ~PSI => PHI, PSI, ~PHI
    d0 = neg_left(top, _succ_id(top, PSI))          # ~PSI x3 => PHI, ~PHI
    e = prove_equation([n, n], Zero(), Zero(), [PHI, PSI])
    e = neg_left(e, _succ_id(e, PSI))               # ~PSI x3 => PHI, PHI
    d1 = neg_left(e, _succ_id(e, PHI, 1))           # ~PSI x3, ~PHI => PHI
    return d0, _succ_id(d0, Not(PHI)), d1, _ante_id(d1, Not(PHI))


def test_cut_keeps_three_equal_compound_formulas_apart():
    # [DERIVED] the partner of the ~PSI the negl introduces is inverted in the
    # right premise, the other two follow lineage: the maps stay exact
    # bijections and the output keeps three copies, each with its own id
    d0, aid, d1, bid = _cut_beside_three_copies()
    cut = B.cut(d0, aid, d1, bid)
    assert check_derivation(cut, "lptn").ok
    r = reduce_cut(d0, aid, d1, bid, "lptn")
    e = eliminate_cuts(cut, "lptn")
    _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                  _where(r.derivation.conclusion))
    _assert_exact(e.occ_map, _where(cut.conclusion),
                  _where(e.derivation.conclusion))
    for out in (r.derivation, e.derivation):
        copies = [o.id for o in out.conclusion.ante if o.formula == Not(PSI)]
        assert len(set(copies)) == 3


@pytest.mark.parametrize("named", [(0, 1), (0, 2), (1, 2)])
def test_contract_to_never_merges_two_named_occurrences(named):
    # [DERIVED] three copies of PSI, two of them named: contracting the
    # unnamed copy into the first named one merges only those two, and both
    # named copies survive with distinct ids
    lf = B.init_leaf([PSI, PSI, PSI], PHI, [])
    d = neg_right(lf, _ante_id(lf, PHI))          # PSI, PSI, PSI => PHI, ~PHI
    first, second = (d.conclusion.ante[i].id for i in named)
    unnamed = d.conclusion.ante[3 - sum(named)].id
    r = contract(d, first, unnamed, "lptn")
    out, m = r.derivation, dict(r.occ_map)
    assert check_derivation(out, "lptn").ok
    assert out.conclusion.ante_formulas() == [PSI, PSI]
    assert m.pop(unnamed) == m[first] != m[second]
    _assert_exact(m, _where(d.conclusion, unnamed), _where(out.conclusion))


def _cut_past_a_clashing_eigenvariable():
    """A cut on T<PHI> that is a side formula of a forallr with eigenvariable
    y in the left premise.  In the right premise the partner universal is
    introduced by a forallr on z, above which another forallr binds y."""
    fa = Forall("x", Eq(Var("x"), Var("x")))
    fc = Forall("x", Eq(Suc(Var("x")), Suc(Var("x"))))
    yy = Eq(Var("y"), Var("y"))
    q = prove_equation([], Zero(), Zero(), [yy, fc])  # => PHI, y=y, FC
    q = truth_right(q, _succ_id(q, PHI))            # => T<PHI>, y=y, FC
    d0 = forall_right(q, _succ_id(q, yy), fa, "y")  # => T<PHI>, FC, FA
    sy = Eq(Suc(Var("y")), Suc(Var("y")))
    zz = Eq(Var("z"), Var("z"))
    p = prove_equation([PHI], Suc(Var("y")), Suc(Var("y")), [zz])
    p = forall_right(p, _succ_id(p, sy), fc, "y")   # PHI => z=z, FC
    p = forall_right(p, _succ_id(p, zz), fa, "z")   # PHI => FC, FA
    d1 = truth_left(p, _ante_id(p, PHI))            # T<PHI> => FC, FA
    return d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI)


def test_push_past_forallr_freshens_a_clashing_eigenvariable():
    # [DERIVED] FA's partner is inverted onto the eigenvariable y of the
    # forallr it is pushed past; the forallr on y inside the right premise is
    # renamed first, or the output would bind y twice.  Each premise is valid
    # on its own; together they bind y twice, so only reduce_cut, which
    # takes them apart, can be given them
    d0, aid, d1, bid = _cut_past_a_clashing_eigenvariable()
    assert check_derivation(d0, "lptn").ok and check_derivation(d1, "lptn").ok
    r = reduce_cut(d0, aid, d1, bid, "lptn")
    _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                  _where(r.derivation.conclusion))
    eigenvariables = [n.var for n in r.derivation.iter_nodes()
                      if n.rule == "forallr"]
    assert eigenvariables.count("y") == 1 and len(eigenvariables) == 2


def _cut_against_an_eigenvariable_at_each_top(tops):
    """A cut on T<PHI> that is a side formula of ``tops`` - 1 nested andr
    over tops ~FA => T<PHI>, PSI, each from init, eq1 and Tr; the right
    premise T<PHI>, ~FA => C binds the eigenvariable y (init, eq1, forallr
    on y, negl, Tl).  Every top but the first is cut against a copy of it."""
    fa = Forall("x", Eq(Var("x"), Var("x")))
    yy = Eq(Var("y"), Var("y"))
    d0 = c = None
    for _ in range(tops):
        t = B.init_leaf([Not(fa)], PHI, [PSI])            # ~FA, PHI => PHI, PSI
        t = B.eq1(t, _ante_id(t, PHI))                    # ~FA => PHI, PSI
        t = truth_right(t, _succ_id(t, PHI))            # ~FA => T<PHI>, PSI
        if d0 is None:
            d0, c = t, PSI
        else:                                             # ~FA => T<PHI>, C&PSI
            d0 = and_right(d0, _succ_id(d0, c), t, _succ_id(t, PSI))
            c = And(c, PSI)
    p = B.init_leaf([PHI], yy, [c])                       # PHI, y=y => y=y, C
    p = B.eq1(p, _ante_id(p, yy))                         # PHI => y=y, C
    p = forall_right(p, _succ_id(p, yy), fa, "y")       # PHI => C, FA
    p = neg_left(p, _succ_id(p, fa))                    # PHI, ~FA => C
    d1 = truth_left(p, _ante_id(p, PHI))                # T<PHI>, ~FA => C
    return d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI)


@pytest.mark.parametrize("tops", [2, 3])
def test_copies_of_the_other_premise_bind_fresh_eigenvariables(tops):
    # [DERIVED] each top of the pushed cut gets its own copy of the right
    # premise, and each copy's forallr a name no other copy and neither
    # premise uses: with two tops a copy kept y, with three the two copies
    # both picked the same new name, and the kernel refused the output
    d0, aid, d1, bid = _cut_against_an_eigenvariable_at_each_top(tops)
    cut = B.cut(d0, aid, d1, bid)
    assert check_derivation(cut, "lptn").ok
    for r in (reduce_cut(d0, aid, d1, bid, "lptn"), eliminate_cuts(cut, "lptn")):
        assert r.certificate.output_measures[1] == 0
        eigenvariables = [n.var for n in r.derivation.iter_nodes()
                          if n.rule == "forallr"]
        assert len(set(eigenvariables)) == len(eigenvariables) == tops


def _cut_past_an_unpaired_principal():
    """A cut on T<PHI> whose left premise ends in a cut on ~PSI: on the cut
    formula's path a negr and a negl introduce ~PSI, which the lower cut
    consumes, so the right premise holds no partner for it."""
    m1 = prove_equation([PSI], Zero(), Zero(), [PHI])   # PSI => PHI, PHI
    m1 = truth_right(m1, _succ_id(m1, PHI))           # PSI => T<PHI>, PHI
    m1 = neg_right(m1, _ante_id(m1, PSI))             # => T<PHI>, PHI, ~PSI
    m2 = prove_equation([], Suc(Zero()), Suc(Zero()), [PHI, PHI])
    m2 = truth_right(m2, _succ_id(m2, PHI))           # => PSI, T<PHI>, PHI
    m2 = neg_left(m2, _succ_id(m2, PSI))              # ~PSI => T<PHI>, PHI
    d0 = B.cut(m1, _succ_id(m1, Not(PSI)), m2, _ante_id(m2, Not(PSI)))
    lf = B.init_leaf([], PHI, [])
    d1 = truth_left(lf, _ante_id(lf, PHI))            # T<PHI> => PHI
    return d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI)


def test_push_past_an_unpaired_principal_inverts_nothing(monkeypatch):
    # [DERIVED] the ~PSI principals on the path have no partner in the right
    # premise: nothing is inverted there, and each top weakens the right
    # premise by PSI instead
    d0, aid, d1, bid = _cut_past_an_unpaired_principal()
    cut = B.cut(d0, aid, d1, bid)
    assert check_derivation(cut, "lptn").ok
    inversions = []
    invert_ = transform._invert

    def counted(*args):
        inversions.append(args[2])
        return invert_(*args)

    monkeypatch.setattr(transform, "_invert", counted)
    r = reduce_cut(d0, aid, d1, bid, "lptn")
    assert inversions == []
    _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                  _where(r.derivation.conclusion))
    e = eliminate_cuts(cut, "lptn")
    _assert_exact(e.occ_map, _where(cut.conclusion),
                  _where(e.derivation.conclusion))


def test_push_past_a_compositional_principal_is_refused():
    # [DERIVED] a paired comp principal on the cut formula's path cannot be
    # inverted in the right premise: a TransformError, not a BuildError or a
    # result
    term = SynApp("anddot", (Num(encode(PHI)), Num(encode(PSI))))
    a = B.init_leaf([PSI], PHI, [PSI])                # PSI, PHI => PHI, PSI
    b = B.init_leaf([PHI], PSI, [PSI])                # PHI, PSI => PSI, PSI
    d0 = B.comp_node(a, _succ_id(a, PHI), b, _succ_id(b, PSI))
    a1 = B.init_leaf([PSI, PSI], PHI, [])             # PSI, PSI, PHI => PHI
    b1 = B.init_leaf([PHI, PSI], PSI, [])             # PHI, PSI, PSI => PSI
    d1 = B.comp_node(a1, _succ_id(a1, PHI), b1, _succ_id(b1, PSI))
    aid, bid = _succ_id(d0, PSI), _ante_id(d1, PSI)
    cut = B.cut(d0, aid, d1, bid)                     # PSI, PHI => T(term)
    assert cut.conclusion.succ_formulas() == [Tr(term)]
    assert check_derivation(cut, "lptn_comp").ok
    with pytest.raises(TransformError, match="'comp' principal"):
        reduce_cut(d0, aid, d1, bid, "lptn_comp")
    with pytest.raises(TransformError, match="'comp' principal"):
        eliminate_cuts(cut, "lptn_comp")


# ---------------------------------------------------------------------------
# Full cut elimination


def test_eliminate_cuts_on_cut_free_proof_is_identity():
    # [TRIVIAL] fixpoint on cut-free input
    rng = random.Random(31)
    for _ in range(20):
        d = random_derivation(rng)
        r = eliminate_cuts(d, "lptn")
        assert r.derivation is d


def test_eliminate_cuts_nested():
    # [DERIVED] all cuts removed, end sequent identical, bounds certified
    rng = random.Random(37)
    done = 0
    while done < 40:
        ncuts = 1 + done % 3
        d = nested_cuts(rng, ncuts)
        if d is None:
            continue
        m0 = compute_measures(d)
        r = eliminate_cuts(d, "lptn")
        out = r.derivation
        assert check_derivation(out, "lptn").ok
        m1 = compute_measures(out)
        assert m1.cut_rank == 0
        assert all(n.rule != "cut" for n in out.iter_nodes())
        assert m1.proof_tau <= m0.proof_tau
        assert m1.length <= hyperexp(m0.cut_rank, m0.length)
        from truthcut.deriv import same_multiset

        assert same_multiset(out.conclusion.ante_formulas(),
                             d.conclusion.ante_formulas())
        assert same_multiset(out.conclusion.succ_formulas(),
                             d.conclusion.succ_formulas())
        done += 1


def test_eliminate_cuts_idempotent():
    # [DERIVED] a second pass changes nothing
    rng = random.Random(41)
    d = None
    while d is None:
        d = nested_cuts(rng, 2)
    once = eliminate_cuts(d, "lptn").derivation
    twice = eliminate_cuts(once, "lptn").derivation
    assert twice is once


def test_hyperexp_values():
    # [TRIVIAL]
    assert hyperexp(0, 5) == 5
    assert hyperexp(1, 3) == 8
    assert hyperexp(2, 2) == 16
    assert hyperexp(3, 1) == 16


def test_length_bound_int_below_2_64():
    # [DERIVED] the bound stays an int below 2**64 and turns symbolic above;
    # a symbolic bound compares exactly, without building the tower
    assert _length_bound(2, 5) == 2 ** 32
    assert _length_bound(3, 2) == 2 ** 16
    assert _length_bound(2, 6) == {"hyperexp": [2, 6]}
    assert _length_bound(5, 2) == {"hyperexp": [5, 2]}
    assert _within(2 ** 64, {"hyperexp": [2, 6]})
    assert not _within(2 ** 64 + 1, {"hyperexp": [2, 6]})
    assert _within(0, {"hyperexp": [0, 0]})
    assert not _within(1, {"hyperexp": [0, 0]})
    assert _within(10 ** 30, {"hyperexp": [9, 3]})


def test_eliminate_cuts_rank5_bound_is_symbolic():
    # [DERIVED] hyperexp(5, 2) = 2^2^65536 is never built: the rank-5 cut on
    # not^4(0=0) is eliminated at once, and the certificate carries the bound
    # symbolically (it used to hang computing the bound as an int)
    phi = Not(Not(Not(Not(PHI))))
    budget = SearchBudget(max_depth=8, max_term_index=2, max_tau_unfold=2)
    d0 = search_cut_free([], [PHI, phi], budget, "qg").derivation
    d1 = search_cut_free([phi], [PHI], budget, "qg").derivation
    d = B.cut(d0, _succ_id(d0, phi), d1, _ante_id(d1, phi))
    assert compute_measures(d).triple()[:2] == (2, 5)
    cert = eliminate_cuts(d, "qg").certificate.as_dict()
    length = cert["checks"][0]
    assert length["name"] == "length"
    assert length["bound"] == {"hyperexp": [5, 2]} and length["ok"]


# ---------------------------------------------------------------------------
# The trust boundary: internal steps are uncertified, each public entry
# certifies its output once


def _conjunction_cut():
    """A cut on 0=0 & 1=1, principal on both sides; its reduction weakens
    the right conjunct's proof (a non-leaf) by the left conjunct."""
    conj = And(PHI, PSI)
    a0 = prove_equation([], Zero(), Zero(), [PHI])              # => PHI, PHI
    a1 = prove_equation([], Suc(Zero()), Suc(Zero()), [PHI])    # => PSI, PHI
    d0 = and_right(a0, _succ_id(a0, PHI, 0), a1, _succ_id(a1, PSI))
    b = prove_equation([PHI, PSI], Zero(), Zero(), [])          # PHI, PSI => PHI
    d1 = and_left(b, _ante_id(b, PHI, 0), _ante_id(b, PSI))
    return d0, _succ_id(d0, conj), d1, _ante_id(d1, conj)


def _universal_cut():
    fa = Forall("x", Eq(Var("x"), Var("x")))
    inst = Eq(Zero(), Zero())
    p0 = prove_equation([], Var("y"), Var("y"), [inst])
    d0 = forall_right(p0, _succ_id(p0, Eq(Var("y"), Var("y"))), fa, "y")
    p1 = B.init_leaf([fa], inst, [])
    d1 = forall_left(p1, _ante_id(p1, fa), _ante_id(p1, inst), Zero())
    return d0, _succ_id(d0, fa), d1, _ante_id(d1, fa)


def _count_kernel_checks(monkeypatch):
    calls = []

    def counted(d, system):
        calls.append(system)
        return check_derivation(d, system)

    monkeypatch.setattr(transform, "check_derivation", counted)
    return calls


def test_cut_elimination_runs_the_kernel_once(monkeypatch):
    # [DERIVED] reduce_cut and eliminate_cuts build every intermediate proof
    # uncertified (the conjunction and universal cases weaken internally)
    # and run the kernel once, on their output
    rng = random.Random(43)
    d = None
    while d is None:
        d = nested_cuts(rng, 3)
    cases = [
        ((d.premises[0], d.actives[0][1], d.premises[1], d.actives[1][1]),
         "lptn"),
        (_conjunction_cut(), "qg"),
        (_universal_cut(), "qg"),
    ]
    calls = _count_kernel_checks(monkeypatch)
    for (d0, aid, d1, bid), system in cases:
        del calls[:]
        reduce_cut(d0, aid, d1, bid, system)
        assert calls == [system]
        del calls[:]
        eliminate_cuts(B.cut(d0, aid, d1, bid), system)
        assert calls == [system]


def _drop_one_lineage_entry(monkeypatch):
    """Make the weakening fold step forget the lineage of the first added
    antecedent occurrence at every node with premises: a bookkeeping bug the
    kernel reports as LINEAGE_BROKEN."""
    weaken_node = transform._weaken_node

    def broken(node, subs, theta, lam):
        new, add_a, add_s = weaken_node(node, subs, theta, lam)
        if new.premises and add_a:
            lineage = dict(new.lineage)
            del lineage[add_a[0].id]
            new = replace(new, lineage=lineage)
        return new, add_a, add_s

    monkeypatch.setattr(transform, "_weaken_node", broken)


def test_broken_construction_never_reaches_an_output(monkeypatch):
    # [DERIVED] with a lineage entry dropped inside the uncertified
    # weakening, reduce_cut's one kernel check refuses the output; in
    # eliminate_cuts the later reduction steps trip over the missing entry
    # first and name it.  Either way no result is returned.
    d0, aid, d1, bid = _conjunction_cut()
    _drop_one_lineage_entry(monkeypatch)
    with pytest.raises(CertificateError, match="LINEAGE_BROKEN"):
        reduce_cut(d0, aid, d1, bid, "qg")
    with pytest.raises(TransformError, match="lineage fault: occurrence "
                       r"\d+ has no ancestry at rule 'eq1'"):
        eliminate_cuts(B.cut(d0, aid, d1, bid), "qg")


def test_eliminate_cuts_certifies_what_the_construction_returns(monkeypatch):
    # [DERIVED] the final certification is the only check on the rebuilt
    # proof: a rank pass that returns a proof with broken lineage is refused
    d0, aid, d1, bid = _conjunction_cut()
    d = B.cut(d0, aid, d1, bid)
    elim_node, max_cut_rank = transform._elim_node, transform._max_cut_rank
    passes = []  # the input of each rank pass, read before the pass runs

    def spy(out):
        passes.append(out)
        return max_cut_rank(out)

    def broken(node, new_premises, r, fuel):
        out, m = elim_node(node, new_premises, r, fuel)
        if node is not passes[-1] or r != 1:
            return out, m
        # the last rank pass forgets the lineage of one root occurrence
        cid = next(iter(out.lineage))
        return replace(out, lineage={k: v for k, v in out.lineage.items()
                                     if k != cid}), m

    monkeypatch.setattr(transform, "_max_cut_rank", spy)
    monkeypatch.setattr(transform, "_elim_node", broken)
    with pytest.raises(CertificateError, match="LINEAGE_BROKEN"):
        eliminate_cuts(d, "qg")


def test_weaken_keeps_its_exact_and_pointwise_certificate():
    # [DERIVED] the public weaken still certifies the unchanged triple, every
    # old occurrence's tau and tau = 0 for every new occurrence
    lf = B.init_leaf([PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    m0 = compute_measures(d)
    r = weaken(d, [Not(PSI)], [TPHI], "lptn")
    old = [o.id for o in d.conclusion.all_occurrences()]
    new = [o.id for o in r.derivation.conclusion.all_occurrences()
           if o.id not in old]
    assert len(new) == 2
    checks = {name: (bound, actual) for name, bound, actual in r.certificate.checks}
    assert checks == {
        "length": (m0.length, m0.length),
        "cutRank": (m0.cut_rank, m0.cut_rank),
        "proofTau": (m0.proof_tau, m0.proof_tau),
        **{f"tau[{i}]": (m0.tau[i], m0.tau[i]) for i in old},
        **{f"tau[new:{i}]": (0, 0) for i in new},
    }
    assert r.certificate.input_measures == (m0.triple(),)
    assert r.certificate.output_measures == m0.triple()
    assert r.occ_map == {i: i for i in old}


# ---------------------------------------------------------------------------
# Cut elimination rebuilds only the nodes it changes


def test_eliminate_cuts_keeps_a_cut_free_sibling():
    # [DERIVED] the rank pass re-links the andr above a reduced cut, but its
    # cut-free right premise comes back as the same object
    a = B.init_leaf([], PHI, [PHI])                     # PHI => PHI, PHI
    b = B.init_leaf([PHI], PHI, [])                     # PHI, PHI => PHI
    c = B.cut(a, _succ_id(a, PHI), b, _ante_id(b, PHI))  # PHI => PHI
    x = B.init_leaf([PHI], PSI, [])                     # PHI, PSI => PSI
    x = B.eq1(x, _ante_id(x, PSI))                      # PHI => PSI
    d = and_right(c, _succ_id(c, PHI), x, _succ_id(x, PSI))
    out = eliminate_cuts(d, "lptn").derivation
    assert out.rule == "andr" and out is not d
    assert out.premises[1] is x


def _conjunction_chain(ante, succ, k):
    """``ante, PHI => X, succ`` with X the conjunction of k copies of PHI,
    by andr over k init leaves that carry ``ante`` and ``succ`` as side
    formulas."""
    d = B.init_leaf(ante, PHI, succ)
    x = PHI
    for _ in range(k - 1):
        lf = B.init_leaf(ante, PHI, succ)
        d = and_right(d, _succ_id(d, x), lf, _succ_id(lf, PHI))
        x = And(x, PHI)
    return d


def _leaf_top_cuts(k):
    """Two cuts whose cut formula is a side formula all the way up the one
    premise to k leaf tops: on PSI with that premise on the left, and on
    ~PSI with it on the right, against a premise with ~PSI principal."""
    d0 = _conjunction_chain([], [PSI], k)             # PHI => X, PSI
    d1 = _conjunction_chain([PSI], [], k)             # PSI, PHI => X
    yield d0, _succ_id(d0, PSI), d1, _ante_id(d1, PSI)
    e0 = neg_right(d1, _ante_id(d1, PSI))           # PHI => X, ~PSI
    e1 = _conjunction_chain([Not(PSI)], [], k)        # ~PSI, PHI => X
    yield e0, _succ_id(e0, Not(PSI)), e1, _ante_id(e1, Not(PSI))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_push_copies_no_premise_it_throws_away(k, monkeypatch):
    # [DERIVED] at a leaf top where the cut formula is a side formula the
    # reduction keeps the leaf and drops the other premise, so _push no
    # longer copies that premise for it (it used to make k - 1 copies)
    copies = []

    def counted(d):
        copies.append(d)
        return deriv.refresh_ids(d)

    monkeypatch.setattr(transform, "refresh_ids", counted)
    for d0, aid, d1, bid in _leaf_top_cuts(k):
        r = reduce_cut(d0, aid, d1, bid, "lptn")
        assert r.certificate.output_measures[1] == 0
        assert len(list(r.derivation.iter_nodes())) == 2 * k - 1
    assert copies == []


def _count_partner_inversions(monkeypatch):
    """The premise index of every _invert_partner call, as they happen."""
    calls = []
    invert_partner = transform._invert_partner

    def counted(node, pi, *args):
        calls.append(pi)
        return invert_partner(node, pi, *args)

    monkeypatch.setattr(transform, "_invert_partner", counted)
    return calls


#: print_script of either reduction of _leaf_top_cuts(3), measured before
#: a pushed cut stopped inverting the other premise on branches that do not
#: cut it
_LEAF_TOP_OUTPUT = (
    "1: init [] (= 0 0) => (= 0 0)\n"
    "2: init [] (= 0 0) => (= 0 0)\n"
    "3: andr [1, 2] (= 0 0) => (and (= 0 0) (= 0 0))\n"
    "4: init [] (= 0 0) => (= 0 0)\n"
    "5: andr [3, 4] (= 0 0) => (and (and (= 0 0) (= 0 0)) (= 0 0))\n"
)


def test_push_inverts_nothing_for_tops_that_keep_themselves(monkeypatch):
    # [DERIVED] with the pushed premise on the left, a leaf top where the
    # cut formula is a side formula keeps itself and drops the other
    # premise, so no branch up to one inverts the other premise (it used to
    # be inverted at each of the 2 andr principals, once per premise).  With
    # it on the right, every top may cut, and the other premise is inverted
    # as before.  The output is unchanged either way
    calls = _count_partner_inversions(monkeypatch)
    counts = []
    for d0, aid, d1, bid in _leaf_top_cuts(3):
        del calls[:]
        r = reduce_cut(d0, aid, d1, bid, "lptn")
        assert print_script(r.derivation) == _LEAF_TOP_OUTPUT
        counts.append(len(calls))
    assert counts == [0, 4]


def _cut_on_one_cutting_branch(rule):
    """A cut on T<PHI> that is a side formula of the ``rule`` node (andr or
    comp) ending the left premise: on its left branch a Tr introduces
    T<PHI>, on its right one a leaf has it as a side formula.  The node's
    principal is paired with the right premise's copy of it."""
    build = and_right if rule == "andr" else B.comp_node
    a = B.init_leaf([PSI], PHI, [PHI])                # PSI, PHI => PHI, PHI
    a = truth_right(a, _succ_id(a, PHI, 1))         # PSI, PHI => PHI, T<PHI>
    b = B.init_leaf([PHI], PSI, [TPHI])               # PHI, PSI => PSI, T<PHI>
    d0 = build(a, _succ_id(a, PHI), b, _succ_id(b, PSI))
    x = B.init_leaf([TPHI, PSI], PHI, [])             # T<PHI>, PSI, PHI => PHI
    y = B.init_leaf([TPHI, PHI], PSI, [])             # T<PHI>, PHI, PSI => PSI
    d1 = build(x, _succ_id(x, PHI), y, _succ_id(y, PSI))
    return d0, _succ_id(d0, TPHI), d1, _ante_id(d1, TPHI)


#: print_script of the andr case's reduction, measured as _LEAF_TOP_OUTPUT
_ONE_CUTTING_BRANCH_OUTPUT = (
    "1: init [] (= (S 0) (S 0)), (= 0 0) => (= 0 0)\n"
    "2: init [] (= 0 0), (= (S 0) (S 0)) => (= (S 0) (S 0))\n"
    "3: andr [1, 2] (= (S 0) (S 0)), (= 0 0) => (and (= 0 0) (= (S 0) (S 0)))\n"
)


def test_push_inverts_only_on_the_branch_that_cuts(monkeypatch):
    # [DERIVED] the andr's left branch ends in a Tr top that cuts T<PHI>,
    # its right one in a leaf that keeps itself: the right premise's PHI&PSI
    # is inverted for the left branch only (it used to be for both)
    d0, aid, d1, bid = _cut_on_one_cutting_branch("andr")
    cut = B.cut(d0, aid, d1, bid)
    assert check_derivation(cut, "lptn").ok
    calls = _count_partner_inversions(monkeypatch)
    r = reduce_cut(d0, aid, d1, bid, "lptn")
    assert calls == [0]
    assert print_script(r.derivation) == _ONE_CUTTING_BRANCH_OUTPUT
    _assert_exact(r.occ_map, _where(d0.conclusion, aid),
                  _where(r.derivation.conclusion))
    del calls[:]
    e = eliminate_cuts(cut, "lptn")
    assert calls == [0]
    assert print_script(e.derivation) == _ONE_CUTTING_BRANCH_OUTPUT


def test_push_past_a_compositional_principal_on_a_cutting_branch_is_refused():
    # [DERIVED] the mirror of test_push_past_a_compositional_principal_is_refused,
    # whose tops are both side leaves: here the paired comp principal lies on
    # a branch whose top cuts, and the refusal is the same
    d0, aid, d1, bid = _cut_on_one_cutting_branch("comp")
    cut = B.cut(d0, aid, d1, bid)
    assert check_derivation(cut, "lptn_comp").ok
    with pytest.raises(TransformError,
                       match="^cannot push a cut past a 'comp' principal$"):
        reduce_cut(d0, aid, d1, bid, "lptn_comp")
    with pytest.raises(TransformError,
                       match="^cannot push a cut past a 'comp' principal$"):
        eliminate_cuts(cut, "lptn_comp")


def test_weakening_by_closed_formulas_walks_no_eigenvariables(monkeypatch):
    # [DERIVED] only a formula with free variables can clash with an
    # eigenvariable, so weakening by closed ones skips that whole-tree walk
    walks = []
    walk = transform.collect_eigenvars

    def counted(d):
        walks.append(d)
        return walk(d)

    lf = B.init_leaf([PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    monkeypatch.setattr(transform, "collect_eigenvars", counted)
    transform._weaken(d, [Not(PSI)], [TPHI])
    assert walks == []
    transform._weaken(d, [Eq(Var("x"), Zero())], [])
    assert walks == [d]


def _transform_digest(monkeypatch):
    """The transform digest script, whose corpus the tests below reuse."""
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
    import transform_digest

    return transform_digest


#: fuel burned by reduce_cut and eliminate_cuts over the transform digest's
#: corpus, recorded when a pushed cut started inverting the other premise on
#: the way up: the premises later pushes walk lose the spliced-out rules, so
#: they meet fewer leaf tops.  Re-recorded when over-rank cuts came to be
#: reduced at once (the calls that stopped at the rank refusal run to the
#: end) and search came to prove its own andl goals (the corpus moved)
_DIGEST_FUEL = {"reduce": 1410, "elim": 2988}


def test_fuel_on_the_digest_corpus_is_unchanged(monkeypatch):
    # [DERIVED] a top that keeps its leaf still burns one unit of fuel, so
    # the guard runs out at the same step as before
    transform_digest = _transform_digest(monkeypatch)
    burned = {"reduce": 0, "elim": 0}
    kind = []

    class Counted(transform._Fuel):
        def burn(self):
            burned[kind[-1]] += 1
            super().burn()

    monkeypatch.setattr(transform, "_Fuel", Counted)
    for d, system in transform_digest._corpus():
        for label, call in transform_digest._calls(d, system):
            if label in burned:
                kind.append(label)
                try:
                    call()
                except TransformError:
                    pass
    assert burned == _DIGEST_FUEL


def test_pushed_cuts_contract_nothing_on_the_digest_corpus(monkeypatch):
    # [DERIVED] a pushed cut inverts the other premise on the way up instead
    # of contracting duplicates afterwards: over the elim inputs of the
    # transform digest, only _reduce's init cases call _contract
    transform_digest = _transform_digest(monkeypatch)
    callers = []
    contract_ = transform._contract

    def counted(*args):
        callers.append(sys._getframe(1).f_code)
        return contract_(*args)

    monkeypatch.setattr(transform, "_contract", counted)
    for d, system in transform_digest._corpus():
        if d.rule == "cut":
            try:
                eliminate_cuts(d, system)
            except TransformError:
                pass
    assert callers and set(callers) == {transform._reduce.__code__}


# -- branches that renames and leaf cases take ------------------------------


@pytest.mark.parametrize("t, renamed", [(Suc(Zero()), False), (Var("w_"), True)])
def test_substitution_carries_eq2_templates(t, renamed):
    # [DERIVED] substituting into a proof through eq2 carries each
    # template; its variable is renamed when the substituted term holds it
    z = Var("z")
    one = Suc(Zero())
    d = prove_equation([Eq(z, Zero())], Plus(one, one), Suc(one), [])
    assert {n.template[0] for n in d.iter_nodes() if n.rule == "eq2"} == {"w_"}
    r = substitute_proof(d, "z", t, "qg")
    assert r.derivation.conclusion.ante_formulas() == [Eq(t, Zero())]
    names = {n.template[0] for n in r.derivation.iter_nodes() if n.rule == "eq2"}
    assert ("w_" not in names) == renamed and len(names) == 1


@pytest.mark.parametrize("rule", ["top", "bot"])
def test_cut_on_a_constant_axiom_drops_the_other_copy(rule):
    # [DERIVED] cutting top against its axiom (or bot against its axiom)
    # drops the cut formula from the other premise, where it is never
    # principal
    side = B.init_leaf([Top()] if rule == "top" else [], PHI,
                       [] if rule == "top" else [Bot()])
    other = neg_right(side, side.conclusion.ante[-1].id)  # [top] => PHI, [bot], not PHI
    rest = [PHI, Not(PHI)]
    if rule == "top":
        d0, d1 = top_leaf([], rest), other
    else:
        d0, d1 = other, bot_leaf([], rest)
    aid = next(o.id for o in d0.conclusion.succ if o.formula in (Top(), Bot()))
    bid = next(o.id for o in d1.conclusion.ante if o.formula in (Top(), Bot()))
    r = reduce_cut(d0, aid, d1, bid, "lgt")
    assert r.derivation.rule == "negr"
    assert r.derivation.conclusion.ante_formulas() == []
    assert r.derivation.conclusion.succ_formulas() == rest


def test_weakening_by_a_formula_free_in_an_eigenvariable_renames_it():
    # [DERIVED] the new formula's free variable is the proof's eigenvariable,
    # so the eigenvariable is renamed before the formula is added
    leaf = B.init_leaf([], Eq(Var("ev1"), Var("ev1")), [])
    refl = B.eq1(leaf, leaf.conclusion.ante[0].id)
    d = forall_right(refl, refl.conclusion.succ[0].id,
                     Forall("x", Eq(Var("x"), Var("x"))), "ev1")
    new = Eq(Var("ev1"), Zero())
    r = weaken(d, [new], [], "qg")
    assert r.derivation.conclusion.ante_formulas() == [new]
    assert transform.collect_eigenvars(r.derivation) == {"ev11"}


def test_inverting_a_universal_renames_its_eigenvariable_in_the_premise():
    # [DERIVED] in lgt, where an eigenvariable may be bound twice, the
    # inverted universal's eigenvariable z is also the premise's; that one
    # is renamed before z becomes the fresh instance variable
    top = Forall("x", Top())
    leaf = top_leaf([], [])
    inner = forall_right(leaf, leaf.conclusion.succ[0].id, top, "z")  # => forall x top
    d = forall_right(inner, inner.conclusion.succ[0].id, Forall("u", top), "z")
    r = invert(d, d.principal[0], "lgt")
    assert r.derivation.conclusion.succ_formulas() == [top]
    assert transform.collect_eigenvars(r.derivation) == {"z1"}


def test_universal_cut_renames_an_eigenvariable_its_witness_names():
    # [DERIVED] the witness w of the foralll side is an eigenvariable of the
    # forallr side's premise, so that one is renamed before w is put in for
    # the instance variable; the vacuous bodies keep w out of every sequent,
    # so the input obeys the pure variable convention
    inst = Forall("v", PHI)
    phi = Forall("x", inst)
    leaf = B.init_leaf([], PHI, [PHI])
    refl = B.eq1(leaf, leaf.conclusion.ante[0].id)                # => PHI, PHI
    p0 = forall_right(refl, refl.conclusion.succ[0].id, inst, "w")  # => PHI, inst
    d0 = forall_right(p0, p0.conclusion.succ[-1].id, phi, "y")    # => PHI, phi
    leaf = B.init_leaf([phi, inst], PHI, [])
    p1 = B.eq1(leaf, leaf.conclusion.ante[-1].id)                 # phi, inst => PHI
    d1 = forall_left(p1, *(o.id for o in p1.conclusion.ante), Var("w"))  # phi => PHI
    assert check_derivation(d0, "qg").ok and check_derivation(d1, "qg").ok
    r = reduce_cut(d0, d0.principal[0], d1, d1.principal[0], "qg")
    assert r.derivation.conclusion.succ_formulas() == [PHI]
    assert transform.collect_eigenvars(r.derivation) == {"w1"}


# ---------------------------------------------------------------------------
# Refusals: the message of each refusal that an input reaches


def _refusal(call) -> str:
    with pytest.raises(TransformError) as e:
        call()
    return str(e.value)


@pytest.mark.parametrize("over, message", [
    ({"length": 0}, "probe: length bound violated: 1 > 0"),
    ({"length": 2, "exact_triple": True},
     "probe: measures changed: (1, 0, 0) != (2, 0, 0)"),
    ({"expect": ([], [PHI])}, "probe: end sequent mismatch"),
], ids=["bound", "exact", "expect"])
def test_certify_refuses_what_its_bounds_do_not_admit(over, message):
    # [DERIVED] the trust boundary refuses a kernel-valid output whose
    # measures pass a bound, differ from an exact triple, or whose end
    # sequent is not the expected one, and says which
    d = prove_equation([], Suc(Zero()), Suc(Zero()), [])  # => S0=S0
    m = compute_measures(d)
    assert check_derivation(d, "qg").ok and m.triple() == (1, 0, 0)
    bounds = {"length": 1, "cut_rank": 0, "proof_tau": 0} | over

    def certify():
        transform._certify(d, "qg", "probe", (m,), occ_map={}, **bounds)

    with pytest.raises(CertificateError) as e:
        certify()
    assert str(e.value) == message


def test_substitute_refuses_a_term_naming_an_eigenvariable():
    # [DERIVED]
    p0 = prove_equation([], Var("y"), Var("y"), [])
    fa = Forall("x", Eq(Var("x"), Var("x")))
    d = forall_right(p0, _succ_id(p0, Eq(Var("y"), Var("y"))), fa, "y")
    assert _refusal(lambda: substitute_proof(d, "x", Suc(Var("y")), "qg")) == \
        "substituted term contains eigenvariable(s) ['y']"


def test_substitute_refuses_a_capture():
    # [DERIVED] z put in for x under the binder of z would be captured
    d = B.leaf("top", [Forall("z", Eq(Var("x"), Var("z")))], Top(), [])
    assert check_derivation(d, "lgt").ok
    assert _refusal(lambda: substitute_proof(d, "x", Var("z"), "lgt")) == (
        "substitution not capture-free: substituting Var(name='z') for x "
        "under binder of z would capture")


def test_invert_refuses_a_compositional_principal():
    # [DERIVED] comp's principal ascribes truth to a syntax-function term,
    # not to a numeral
    a = B.init_leaf([PSI], PHI, [])                   # PSI, PHI => PHI
    b = B.init_leaf([PHI], PSI, [])                   # PHI, PSI => PSI
    d = B.comp_node(a, _succ_id(a, PHI), b, _succ_id(b, PSI))
    assert check_derivation(d, "lptn_comp").ok
    assert _refusal(lambda: invert(d, d.principal[0], "lptn_comp")) == (
        "truth inversion requires a numeral term (pointwise compositional "
        "principals cannot be inverted)")


def test_invert_refuses_a_numeral_that_codes_no_sentence():
    # [DERIVED] T(5) is a context formula all the way up, but 5 codes
    # nothing, so its parts cannot be named
    d = B.init_leaf([], PHI, [Tr(Num(5))])            # PHI => PHI, T(5)
    assert check_derivation(d, "lptn").ok
    assert _refusal(lambda: invert(d, _succ_id(d, Tr(Num(5))), "lptn")) == \
        "target numeral decodes to nothing: 5 is not a code"


@pytest.mark.parametrize("side, find", [("antecedent", _ante_id), ("succedent", _succ_id)],
                         ids=["antecedent", "succedent"])
def test_invert_refuses_a_target_no_rule_inverts(side, find):
    # [DERIVED] no logical rule introduces an equation, on either side, and
    # the refusal names the side in full
    d = B.init_leaf([], PHI, [])                      # PHI => PHI
    assert _refusal(lambda: invert(d, find(d, PHI), "lptn")) == \
        f"target mismatch: cannot invert {PHI!r} in the {side}"


def test_invert_refuses_a_target_another_rule_introduced():
    # [DERIVED] an init leaf on T<0=0> (which the kernel refuses: initial
    # sequents are T-free) has the target as its principal
    d = B.leaf("init", [], TPHI, [])                  # T<PHI> => T<PHI>
    assert _refusal(lambda: invert(d, _succ_id(d, TPHI), "lptn")) == \
        "target introduced by 'init', cannot invert as 'Tr'"


def test_reduce_cut_refuses_a_cut_formula_on_the_wrong_side():
    # [TRIVIAL]
    d = B.init_leaf([], PHI, [])
    assert _refusal(lambda: reduce_cut(d, _ante_id(d, PHI), d, _ante_id(d, PHI),
                                       "lptn")) == \
        "cut formula must be right in d0 and left in d1"


def test_reduce_cut_refuses_differing_cut_formulas():
    # [TRIVIAL]
    d0, d1 = B.init_leaf([], PHI, []), B.init_leaf([], PSI, [])
    assert _refusal(lambda: reduce_cut(d0, _succ_id(d0, PHI), d1, _ante_id(d1, PSI),
                                       "lptn")) == "cut formulas differ"


def test_reduce_cut_refuses_a_principal_pair_it_has_no_case_for():
    # [DERIVED] no kernel-valid proof has a truth-left principal over comp's
    # syntax-function term, since the truth rules need a numeral; a
    # premise-less node relabelled Tl has one, and the pair is refused
    term = SynApp("anddot", (Num(encode(PHI)), Num(encode(PSI))))
    a = B.init_leaf([PSI], PHI, [])
    b = B.init_leaf([PHI], PSI, [])
    d0 = B.comp_node(a, _succ_id(a, PHI), b, _succ_id(b, PSI))  # PSI, PHI => T(term)
    d1 = replace(B.leaf("bot", [PSI, PHI], Tr(term), []), rule="Tl")
    assert _refusal(lambda: reduce_cut(d0, d0.principal[0], d1, d1.principal[0],
                                       "lptn_comp")) == \
        f"no reduction for principal pair (comp, Tl) on {Tr(term)!r}"


def test_cut_reduction_stops_when_its_fuel_runs_out():
    # [DERIVED] each reduction step burns one unit; the last unit stops it
    d0 = B.leaf("top", [], Top(), [Top()])            # => top, top
    d1 = B.leaf("top", [Top()], Top(), [])            # top => top
    cut = B.cut(d0, d0.principal[0], d1, _ante_id(d1, Top()))
    assert _refusal(lambda: transform._reduce(cut, 0, transform._Fuel(1))) == \
        "cut reduction fuel exhausted (termination guard)"
    out, _ = transform._reduce(cut, 0, transform._Fuel(2))
    assert check_derivation(out, "lgt").ok
    assert out.conclusion.succ_formulas() == [Top()]
