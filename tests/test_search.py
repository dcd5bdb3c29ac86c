"""Bounded backward cut-free proof search."""

import collections
import hashlib
import random

import pytest

from truthcut import search
from truthcut.arith import chain_numeral
from truthcut.cli import main
from truthcut.coding import liar, quote, truth_teller
from truthcut.deriv import compute_measures, same_multiset
from truthcut.kernel import check_derivation
from truthcut.script import print_script
from truthcut.search import (
    SearchBudget,
    _key,
    check_conservativity,
    search_cut_free,
)
from truthcut.sexpr import format_sequent, parse_formula, parse_sequent
from truthcut.syntax import (
    And,
    Eq,
    Forall,
    Not,
    Num,
    Plus,
    Suc,
    Times,
    Tr,
    Var,
    Zero,
)

BUD = SearchBudget(max_depth=8, max_term_index=4, max_tau_unfold=4)
PHI = Eq(Zero(), Zero())


def _found(ante, succ, system="lptn", budget=BUD):
    r = search_cut_free(ante, succ, budget, system)
    if r.found:
        assert check_derivation(r.derivation, system).ok
        assert all(n.rule != "cut" for n in r.derivation.iter_nodes())
    return r


def test_budget_validation():
    # [TRIVIAL]
    with pytest.raises(ValueError):
        SearchBudget(max_depth=-1)


def test_immediate_closures():
    # [DERIVED] true equation at depth 0, false equation refuted at depth 0
    assert _found([], [PHI]).found
    assert _found([Eq(Suc(Zero()), Zero())], []).found
    assert _found([], [Eq(Plus(chain_numeral(2), chain_numeral(2)),
                          chain_numeral(4))], "qg").found
    assert _found([Eq(Times(chain_numeral(2), chain_numeral(3)),
                      chain_numeral(5))], [], "qg").found


def test_qg1_closes_on_the_goals_own_zero():
    # [DERIVED] S(0) = 0 written with the numeral literal 0 closes by qg1 on
    # that very formula, so the proof is of the goal itself
    f = Eq(Suc(Zero()), Num(0))
    for ante, succ in (([f], []), ([], [Not(f)])):
        r = _found(ante, succ, "qg")
        assert r.derivation.conclusion.ante_formulas() == ante
        assert r.derivation.conclusion.succ_formulas() == succ


def test_propositional_search():
    # [DERIVED]
    assert _found([], [Not(Eq(Zero(), Suc(Zero())))]).found
    assert _found([], [And(PHI, Not(Eq(Zero(), Suc(Zero()))))]).found
    assert _found([And(PHI, Eq(Suc(Zero()), Zero()))], []).found
    assert _found([Not(PHI)], []).found


def test_truth_rule_search():
    # [DERIVED] ascriptions unquote within the tau budget
    assert _found([], [Tr(quote(PHI))]).found
    assert _found([], [Tr(quote(Tr(quote(PHI))))]).found
    assert _found([Tr(quote(Eq(Zero(), Suc(Zero()))))], []).found
    # without truth rules the same goal is exhausted
    assert not _found([], [Tr(quote(PHI))], "qg").found


def test_quantifier_search():
    # [DERIVED]
    fa = Forall("x", Eq(Var("x"), Var("x")))
    assert _found([], [fa]).found
    assert _found([fa], [Eq(chain_numeral(3), chain_numeral(3))]).found
    # forall-left instantiates with in-goal closed terms too
    fb = Forall("x", Not(Eq(Suc(Var("x")), Zero())))
    assert _found([fb], [Not(Eq(Suc(chain_numeral(2)), Zero()))]).found


def test_unprovable_goal_reports_frontier():
    # [DERIVED]
    r = _found([], [Eq(Zero(), Suc(Zero()))])
    assert not r.found
    assert r.frontier


def test_empty_sequent_exhausted_all_systems():
    # [DERIVED] no proof of the empty sequent in any system
    for system in ("lgt", "qg", "lptn"):
        r = search_cut_free([], [], BUD, system)
        assert not r.found


def test_liar_exhausted_both_directions():
    # [DERIVED] the diagonal sentence is underivable on either side; the
    # tau budget stops the unquoting loop
    lam = liar()
    small = SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)
    r1 = search_cut_free([], [lam], small, "lptn")
    r2 = search_cut_free([lam], [], small, "lptn")
    assert not r1.found and not r2.found
    assert r1.frontier and r2.frontier


def test_truth_teller_exhausted():
    # [DERIVED]
    tt = truth_teller()
    small = SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)
    assert not search_cut_free([], [tt], small, "lptn").found
    assert not search_cut_free([tt], [], small, "lptn").found


def test_depth_budget_is_respected():
    # [DERIVED] a goal needing two rule applications fails at depth 1
    goal = Not(Not(PHI))
    assert search_cut_free([], [goal], SearchBudget(2, 2, 2), "lptn").found
    assert not search_cut_free(
        [], [goal], SearchBudget(1, 2, 2), "lptn"
    ).found


def test_conservativity_sample():
    # [DERIVED] truth rules prove no new truth-free sequents
    rng = random.Random(13)
    seqs = []
    for _ in range(30):
        a = rng.randrange(4)
        b = rng.randrange(4)
        goal = Eq(chain_numeral(a), chain_numeral(b))
        if rng.random() < 0.5:
            seqs.append(([], [goal]))
        else:
            seqs.append(([goal], []))
    report = check_conservativity(seqs, BUD)
    assert report.symmetric, report.asymmetries()


def test_goal_key_is_a_pair_of_multisets():
    # [TRIVIAL] a repeated formula counts, order within a side does not,
    # and the sides are kept apart
    a, b = PHI, Not(PHI)
    assert _key((a, a), ()) != _key((a,), ())
    assert _key((a, b), (b, a)) == _key((b, a), (a, b))
    assert _key((a,), ()) != _key((), (a,))
    assert _key((a, a, b), ()) != _key((a, b, b), ())


def _outcome(ante, succ, budget):
    r = search_cut_free(ante, succ, budget, "lptn")
    if r.found:
        return print_script(r.derivation)
    return [format_sequent(a, s) for a, s in r.frontier]


def test_search_shares_nothing_between_calls():
    # [DERIVED] a search's proof and frontier do not depend on the searches
    # made before it: the memos live for one call
    x = Var("x")
    small = SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)
    goals = [
        ((), (Tr(quote(Not(Eq(Zero(), Suc(Zero()))))),)),
        ((Forall("x", Eq(Suc(x), Zero())),), ()),
        ((), (Forall("x", Eq(Plus(x, Zero()), x)),)),
        ((liar(),), ()),
        ((Eq(Times(chain_numeral(2), chain_numeral(2)), chain_numeral(3)),), ()),
    ]
    alone = [_outcome(a, s, small) for a, s in goals]
    assert any(isinstance(o, str) for o in alone)
    assert any(isinstance(o, list) for o in alone)
    for i, (a, s) in enumerate(goals):
        for b, t in goals[i + 1:] + goals[:i]:
            _outcome(b, t, small)
        assert _outcome(a, s, small) == alone[i]


#: the ``fixpoint`` benchmark workload's budget
FIXPOINT_BUDGET = SearchBudget(max_depth=4, max_term_index=1, max_tau_unfold=3)


def _digest(outcome):
    text = outcome if isinstance(outcome, str) else "\n".join(outcome)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def test_each_universal_is_instantiated_once_per_term(monkeypatch):
    # [DERIVED] the foralll branch used to build the same instance again at
    # every goal; the searcher's instance memo builds it once, and the
    # frontier is the one pinned before the memo
    calls = collections.Counter()
    substitute = search.substitute

    def counting(phi, var, t):
        calls[phi, var, t] += 1
        return substitute(phi, var, t)

    monkeypatch.setattr(search, "substitute", counting)
    phi = parse_formula("(forall x (= (+ x (S 0)) (S x)))")
    outcome = _outcome([phi], [], FIXPOINT_BUDGET)
    assert isinstance(outcome, list) and len(outcome) == 28
    assert _digest(outcome) == "e6ee902dfdb6cd24dd7cb72c9f339bf3"
    assert calls and max(calls.values()) == 1


def test_a_memoized_goal_is_answered_before_any_closure(monkeypatch):
    # [DERIVED] a goal open on its branch or in the failure memo failed to
    # close when first met; prove answers it without trying the closures
    # again, and every proof and frontier is the one pinned before
    counts = collections.Counter()
    prove, close = search._Searcher.prove, search._Searcher.close

    def counting_prove(self, ante, succ, depth, tau, visited):
        key = _key(ante, succ)
        counts["prove"] += 1
        counts["loop"] += key in visited
        counts["memo"] += key not in visited and (key, depth, tau) in self.fail_memo
        return prove(self, ante, succ, depth, tau, visited)

    def counting_close(self, ante, succ):
        counts["close"] += 1
        return close(self, ante, succ)

    monkeypatch.setattr(search._Searcher, "prove", counting_prove)
    monkeypatch.setattr(search._Searcher, "close", counting_close)
    pinned = [
        ([parse_formula("(forall x (= (+ x (S 0)) (S x)))")], [],
         "e6ee902dfdb6cd24dd7cb72c9f339bf3"),
        ([], [parse_formula("(not (and (T (quote (= 0 0))) (not (= 0 0))))")],
         "adac6dd292bb5b84fb5fe4963027cfa9"),
        ([truth_teller()], [], "99ab76d2304783c239ef288b531040fc"),
    ]
    for ante, succ, digest in pinned:
        assert _digest(_outcome(ante, succ, FIXPOINT_BUDGET)) == digest
    assert counts["memo"] > 0 and counts["loop"] > 0
    assert counts["close"] == counts["prove"] - counts["loop"] - counts["memo"]


#: search's andl takes both actives by formula without skipping the first
#: one's id, so for two equal conjuncts it consumes one occurrence twice and
#: leaves the other in the conclusion; the fix is the ``skip`` that
#: ``build.logical`` passes.  Whoever lands it removes the marks
_EQUAL_CONJUNCTS = pytest.mark.xfail(
    strict=True, reason="search's andl picks one id for two equal conjuncts")


@_EQUAL_CONJUNCTS
def test_cli_search_proves_its_own_goal_with_equal_conjuncts(capsys):
    # [DERIVED] the proof's last line is its end sequent, which must be the
    # goal as a multiset; today it has an extra (not (= 0 0))
    goal = "(and (not (= 0 0)) (not (= 0 0))) =>"
    assert main(["search", "--system", "lptn", goal]) == 0
    last = capsys.readouterr().out.rstrip("\n").splitlines()[-1]
    ante, succ = parse_sequent(last.split("] ", 1)[1])
    want_ante, want_succ = parse_sequent(goal)
    assert same_multiset(ante, want_ante) and same_multiset(succ, want_succ)


@_EQUAL_CONJUNCTS
def test_search_proves_x_implies_x_for_equal_conjuncts():
    # [DERIVED] today the proof concludes 0=0, X => X and consumes one
    # premise occurrence twice
    x = parse_formula("(and (= 0 0) (= 0 0))")
    r = search_cut_free([x], [x], BUD, "lptn")
    assert r.found
    c = r.derivation.conclusion
    assert c.ante_formulas() == [x] and c.succ_formulas() == [x]
    assert check_derivation(r.derivation, "lptn").ok
