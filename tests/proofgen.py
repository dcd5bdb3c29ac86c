"""Deterministic random derivation generator for the transformation corpora.

Generates kernel-valid derivations: leaf sequents over closed base atoms,
grown by randomly chosen logical and truth rules, plus a nested-cut builder
whose premises are found by bounded proof search, and cuts whose formula is
principal in both premises.
"""

from __future__ import annotations

import random

from truthcut import build as B
from truthcut.coding import quote
from truthcut.deriv import Derivation
from truthcut.search import SearchBudget, search_cut_free
from truthcut.syntax import (
    And,
    Eq,
    Forall,
    Formula,
    Not,
    Suc,
    Tr,
    Var,
    Zero,
    is_sentence,
    substitute,
)

ZERO = Zero()
ONE = Suc(ZERO)
TWO = Suc(ONE)

BASE_ATOMS = [
    Eq(ZERO, ZERO),
    Eq(ONE, ONE),
    Eq(TWO, TWO),
    Eq(ZERO, ONE),
    Eq(ONE, ZERO),
    Eq(Suc(TWO), ZERO),
]

#: closed context formulas, including truth atoms and small compounds
CONTEXT_POOL = BASE_ATOMS + [
    Not(Eq(ZERO, ZERO)),
    And(Eq(ZERO, ZERO), Eq(ONE, ONE)),
    Tr(quote(Eq(ZERO, ZERO))),
    Tr(quote(Not(Eq(ZERO, ONE)))),
    Not(Tr(quote(Eq(ONE, ONE)))),
]


def random_context(rng: random.Random, max_len: int = 3) -> list[Formula]:
    return [rng.choice(CONTEXT_POOL) for _ in range(rng.randrange(max_len + 1))]


def random_leaf(rng: random.Random, system: str = "lptn") -> Derivation:
    kind = rng.random()
    gamma, delta = random_context(rng), random_context(rng)
    if system == "lgt" and kind >= 0.7:
        if kind < 0.85:
            return B.top_leaf(gamma, delta)
        return B.bot_leaf(gamma, delta)
    if system in ("qg", "lptn", "lptn_comp") and kind >= 0.85:
        return B.qg1_leaf(gamma, rng.choice((ZERO, ONE, TWO)), delta)
    return B.init_leaf(gamma, rng.choice(BASE_ATOMS), delta)


def _closed_sentence_occ(occs):
    return [o for o in occs if is_sentence(o.formula)]


def grow(rng: random.Random, d: Derivation, steps: int,
         allow_truth: bool = True) -> Derivation:
    """Apply ``steps`` random one-premise rules on top of ``d``."""
    for _ in range(steps):
        moves = []
        ante, succ = d.conclusion.ante, d.conclusion.succ
        if succ:
            moves.append("negl")
        if ante:
            moves.append("negr")
        if len(ante) >= 2:
            moves.append("andl")
        if allow_truth and _closed_sentence_occ(ante):
            moves.append("Tl")
        if allow_truth and _closed_sentence_occ(succ):
            moves.append("Tr")
        if not moves:
            break
        move = rng.choice(moves)
        if move == "negl":
            d = B.neg_left(d, rng.choice(succ).id)
        elif move == "negr":
            d = B.neg_right(d, rng.choice(ante).id)
        elif move == "andl":
            a, b = rng.sample(list(ante), 2)
            d = B.and_left(d, a.id, b.id)
        elif move == "Tl":
            d = B.truth_left(d, rng.choice(_closed_sentence_occ(ante)).id)
        else:
            d = B.truth_right(d, rng.choice(_closed_sentence_occ(succ)).id)
    return d


def random_derivation(rng: random.Random, steps: int | None = None,
                      allow_truth: bool = True,
                      system: str = "lptn") -> Derivation:
    if steps is None:
        steps = rng.randrange(1, 6)
    return grow(rng, random_leaf(rng, system), steps, allow_truth)


def duplicated_derivation(rng: random.Random):
    """Derivation whose end sequent repeats a formula; returns the derivation
    and the two duplicate occurrence ids (same side)."""
    f = rng.choice(CONTEXT_POOL)
    side = rng.choice(("ante", "succ"))
    gamma, delta = random_context(rng, 2), random_context(rng, 2)
    if side == "ante":
        gamma = gamma + [f, f]
    else:
        delta = delta + [f, f]
    leaf = B.init_leaf(gamma, rng.choice(BASE_ATOMS), delta)
    d = grow(rng, leaf, rng.randrange(0, 3))
    occs = getattr(d.conclusion, side)
    ids = [o.id for o in occs if o.formula == f]
    if len(ids) < 2:  # a grown rule consumed a duplicate; fall back to the leaf
        d = leaf
        occs = getattr(d.conclusion, side)
        ids = [o.id for o in occs if o.formula == f]
    return d, ids[0], ids[1]


#: cut formulas of logical complexity <= 2 (cut rank <= 3)
CUT_FORMULAS = [
    Eq(ZERO, ZERO),
    Eq(ZERO, ONE),
    Not(Eq(ZERO, ZERO)),
    Not(Eq(ZERO, ONE)),
    And(Eq(ZERO, ZERO), Eq(ONE, ONE)),
    And(Eq(ZERO, ONE), Eq(ONE, ONE)),
    Not(Not(Eq(ZERO, ZERO))),
    Not(And(Eq(ZERO, ZERO), Eq(ONE, ONE))),
    Tr(quote(Eq(ZERO, ZERO))),
    Tr(quote(Eq(ZERO, ONE))),
]

_CUT_BUDGET = SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)


def _prove(ante, succ) -> Derivation | None:
    r = search_cut_free(ante, succ, _CUT_BUDGET, "lptn")
    return r.derivation


def nested_cuts(rng: random.Random, ncuts: int) -> Derivation | None:
    """Derivation ending in a chain of ``ncuts`` cuts (ranks <= 3).

    The shared context carries a base atom on both sides, so every premise
    sequent closes immediately and only the cut structure is nontrivial."""
    theta = rng.choice(BASE_ATOMS)
    gamma = [theta, rng.choice(CONTEXT_POOL)]
    delta = [theta]

    def chain(n: int, gamma: list) -> Derivation | None:
        if n == 0:
            return _prove(gamma, delta)
        phi = rng.choice(CUT_FORMULAS)
        d0 = _prove(gamma, delta + [phi])
        d1 = chain(n - 1, [phi] + gamma)
        if d0 is None or d1 is None:
            return None
        aid = next(o.id for o in d0.conclusion.succ if o.formula == phi)
        bid = next(o.id for o in d1.conclusion.ante if o.formula == phi)
        try:
            return B.cut(d0, aid, d1, bid)
        except B.BuildError:
            return None

    return chain(ncuts, gamma)


#: bodies over ``x`` of the universals cut in :func:`principal_cuts`
FORALL_BODIES = [
    Eq(Var("x"), Var("x")),
    Not(Eq(Suc(Var("x")), ZERO)),
    And(Eq(Var("x"), Var("x")), Eq(ONE, ONE)),
]


def principal_cuts(rng: random.Random, rounds: int):
    """(d0, aid, d1, bid) of cuts whose formula is principal in both
    premises: per round one negr/negl, andr/andl, forallr/foralll and Tr/Tl
    (over a base atom) pair.  Every premise of those rules is an initial
    sequent on a base atom shared by both sides, under a random context."""
    for _ in range(rounds):
        theta = rng.choice(BASE_ATOMS)
        gamma, delta = random_context(rng), random_context(rng)

        def leaf(ante=(), succ=()):
            return B.init_leaf(list(ante) + gamma, theta, delta + list(succ))

        def pair(d0, d1):
            return d0, d0.principal[0], d1, d1.principal[0]

        a, b = rng.choice(CUT_FORMULAS), rng.choice(CUT_FORMULAS)
        l0, l1 = leaf(ante=[a]), leaf(succ=[a])
        yield pair(B.neg_right(l0, l0.conclusion.ante[0].id),
                   B.neg_left(l1, l1.conclusion.succ[-1].id))
        l0, l1, l2 = leaf(succ=[a]), leaf(succ=[b]), leaf(ante=[a, b])
        yield pair(B.and_right(l0, l0.conclusion.succ[-1].id,
                               l1, l1.conclusion.succ[-1].id),
                   B.and_left(l2, l2.conclusion.ante[0].id, l2.conclusion.ante[1].id))
        body, t = rng.choice(FORALL_BODIES), rng.choice((ZERO, ONE, TWO))
        phi = Forall("x", body)
        l0 = leaf(succ=[substitute(body, "x", Var("y"))])
        l1 = leaf(ante=[phi, substitute(body, "x", t)])
        yield pair(B.forall_right(l0, l0.conclusion.succ[-1].id, phi, "y"),
                   B.forall_left(l1, l1.conclusion.ante[0].id,
                                 l1.conclusion.ante[1].id, t))
        atom = rng.choice(BASE_ATOMS)
        l0, l1 = leaf(succ=[atom]), leaf(ante=[atom])
        yield pair(B.truth_right(l0, l0.conclusion.succ[-1].id),
                   B.truth_left(l1, l1.conclusion.ante[0].id))
