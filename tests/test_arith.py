"""Closed-equation deciding macros over the geometric rules."""

import random

import pytest

from truthcut.arith import (
    ArithError,
    can_prove,
    can_refute,
    is_chain_closed,
    prove_equation,
    refute_equation,
)
from truthcut.coding import eval_term
from truthcut.deriv import compute_measures
from truthcut.kernel import check_derivation
from truthcut.syntax import Eq, Num, Plus, Suc, SynApp, Times, Tr, Var, Zero, children

from proofgen import chain_numeral


def _random_chain_term(rng, depth):
    if depth == 0:
        return chain_numeral(rng.randrange(4))
    k = rng.randrange(3)
    if k == 0:
        return Suc(_random_chain_term(rng, depth - 1))
    if k == 1:
        return Plus(_random_chain_term(rng, depth - 1),
                    _random_chain_term(rng, depth - 1))
    return Times(_random_chain_term(rng, depth - 1),
                 _random_chain_term(rng, depth - 1))


def test_chain_numeral():
    # [TRIVIAL]
    assert chain_numeral(0) == Zero()
    assert chain_numeral(2) == Suc(Suc(Zero()))
    assert is_chain_closed(Plus(chain_numeral(2), chain_numeral(1)))
    assert not is_chain_closed(Num(2))
    assert not is_chain_closed(Var("x"))


def _walk_chain_closed(t):
    """Closed term over {0, S, +, x} only, by a walk over the whole term."""
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) not in (Zero, Suc, Plus, Times):
            return False
        stack += children(t)
    return True


def _random_mixed_term(rng, depth, leaves):
    k = rng.randrange(5 if depth > 0 else 1)
    if k == 0:
        return rng.choice(leaves)()
    if k == 1:
        return Suc(_random_mixed_term(rng, depth - 1, leaves))
    if k == 4:
        return SynApp("num", (_random_mixed_term(rng, depth - 1, leaves),))
    return (Plus, Times)[k - 2](_random_mixed_term(rng, depth - 1, leaves),
                                _random_mixed_term(rng, depth - 1, leaves))


def test_chain_closed_fact_matches_a_walk():
    # [DERIVED] the fact set when a term is built agrees with a walk over
    # the term, on random closed and open terms whose leaves are 0, numeral
    # literals, syntax-function applications and variables
    rng = random.Random(28)
    leaf_sets = [
        (Zero,),
        (Zero, lambda: Num(rng.randrange(3))),
        (Zero, lambda: SynApp("num", (Zero(),))),
        (Zero, lambda: Var(rng.choice("xy"))),
        (Zero, lambda: Num(1), lambda: Var("x")),
    ]
    seen = {True: 0, False: 0}
    for _ in range(3000):
        t = _random_mixed_term(rng, rng.randrange(5), rng.choice(leaf_sets))
        want = _walk_chain_closed(t)
        assert is_chain_closed(t) is want
        seen[want] += 1
    assert min(seen.values()) > 500


def test_prove_true_equations_randomized():
    # [DERIVED] oracle: term evaluation; 100 random true closed equations
    rng = random.Random(5)
    n = 0
    while n < 100:
        s = _random_chain_term(rng, rng.randrange(3))
        t = _random_chain_term(rng, rng.randrange(3))
        if eval_term(s) != eval_term(t):
            continue
        d = prove_equation([], s, t, [])
        assert check_derivation(d, "qg").ok
        assert d.conclusion.ante_formulas() == []
        assert d.conclusion.succ_formulas() == [Eq(s, t)]
        assert compute_measures(d).cut_rank == 0
        n += 1


def test_refute_false_equations_randomized():
    # [DERIVED] oracle: term evaluation; 100 random false closed equations
    rng = random.Random(6)
    n = 0
    while n < 100:
        s = _random_chain_term(rng, rng.randrange(3))
        t = _random_chain_term(rng, rng.randrange(3))
        if eval_term(s) == eval_term(t):
            continue
        d = refute_equation([], s, t, [])
        assert check_derivation(d, "qg").ok
        assert d.conclusion.ante_formulas() == [Eq(s, t)]
        assert d.conclusion.succ_formulas() == []
        n += 1


def test_contexts_are_preserved():
    # [DERIVED]
    gamma = [Eq(Zero(), Suc(Zero()))]
    delta = [Tr(Num(7))]
    d = prove_equation(gamma, Plus(chain_numeral(2), chain_numeral(2)),
                       chain_numeral(4), delta)
    assert check_derivation(d, "qg").ok
    assert d.conclusion.ante_formulas() == gamma
    assert d.conclusion.succ_formulas()[0] == Eq(
        Plus(chain_numeral(2), chain_numeral(2)), chain_numeral(4)
    )
    assert d.conclusion.succ_formulas()[1:] == delta


def test_identical_sides_any_term():
    # [DERIVED] reflexivity handles arbitrary terms, even open ones
    t = Plus(Var("x"), Num(3))
    d = prove_equation([], t, t, [])
    assert check_derivation(d, "qg").ok
    assert compute_measures(d).length == 1


def test_prove_refuse_false():
    # [TRIVIAL]
    with pytest.raises(ArithError):
        prove_equation([], Zero(), Suc(Zero()), [])
    with pytest.raises(ArithError):
        refute_equation([], Zero(), Zero(), [])


def test_non_chain_terms_rejected():
    # [DERIVED] literal numerals are distinct terms with no rewrite rules,
    # so cross-spelling equations are not decided by the macros
    with pytest.raises(ArithError):
        prove_equation([], Num(2), Suc(Suc(Zero())), [])
    assert not can_prove(Num(2), Suc(Suc(Zero())))
    assert not can_refute(Num(2), Zero())


def test_predicates_match_oracle():
    # [DERIVED]
    rng = random.Random(9)
    for _ in range(200):
        s = _random_chain_term(rng, rng.randrange(3))
        t = _random_chain_term(rng, rng.randrange(3))
        equal = eval_term(s) == eval_term(t)
        assert can_prove(s, t) == equal
        assert can_refute(s, t) == (not equal)
