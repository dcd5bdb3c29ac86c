"""Deterministic random derivation generator for the transformation corpora,
and the helpers only tests use.

Generates kernel-valid derivations: leaf sequents over closed base atoms,
grown by randomly chosen logical and truth rules, plus a nested-cut builder
whose premises are found by bounded proof search, and cuts whose formula is
principal in both premises.

The helpers: one builder per logical and truth rule that takes the ids of
the occurrences it consumes (each one call of ``build._node``), the ``top``
and ``bot`` leaves, ``truth_of``, ``chain_numeral`` and the conservativity
check of T-free sequents between ``lptn`` and ``qg``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from truthcut import build as B
from truthcut.arith import chain_numerals
from truthcut.coding import quote
from truthcut.deriv import Derivation
from truthcut.search import SearchBudget, search_cut_free
from truthcut.syntax import (
    BOT,
    TOP,
    And,
    Eq,
    Forall,
    Formula,
    Not,
    Suc,
    Term,
    Tr,
    Var,
    Zero,
    is_sentence,
    substitute,
)


# ---------------------------------------------------------------------------
# Builders by occurrence id: each passes the ids its caller gives to
# ``build._node``, so the node is wired as the script reader and search
# wire theirs


def top_leaf(gamma, delta) -> Derivation:
    return B.leaf("top", gamma, TOP, delta)


def bot_leaf(gamma, delta) -> Derivation:
    return B.leaf("bot", gamma, BOT, delta)


def truth_left(premise: Derivation, active_id: int) -> Derivation:
    return B._node("Tl", ((premise, active_id),))


def truth_right(premise: Derivation, active_id: int) -> Derivation:
    return B._node("Tr", ((premise, active_id),))


def neg_left(premise: Derivation, active_id: int) -> Derivation:
    return B._node("negl", ((premise, active_id),))


def neg_right(premise: Derivation, active_id: int) -> Derivation:
    return B._node("negr", ((premise, active_id),))


def and_left(premise: Derivation, id_phi: int, id_psi: int) -> Derivation:
    return B._node("andl", ((premise, id_phi), (premise, id_psi)))


def and_right(p0: Derivation, id_phi: int, p1: Derivation, id_psi: int) -> Derivation:
    return B._node("andr", ((p0, id_phi), (p1, id_psi)))


def forall_left(
    premise: Derivation, kept_id: int, inst_id: int, term: Term
) -> Derivation:
    return B._node("foralll", ((premise, kept_id), (premise, inst_id)), term=term)


def forall_right(
    premise: Derivation, active_id: int, forall_formula: Forall, eigen: str
) -> Derivation:
    return B._node("forallr", ((premise, active_id),), forall_formula, var=eigen)


def truth_of(phi: Formula) -> Formula:
    """T applied to the canonical name of ``phi``."""
    return Tr(quote(phi))


def chain_numeral(k: int) -> Term:
    """S^k(0) as an explicit successor chain."""
    return chain_numerals(k)[k]


@dataclass
class ConservativityReport:
    entries: list[dict]

    @property
    def symmetric(self) -> bool:
        return all(e["lptn"] == e["qg"] for e in self.entries)

    def asymmetries(self) -> list[dict]:
        return [e for e in self.entries if e["lptn"] != e["qg"]]


def check_conservativity(sequents, budget: SearchBudget) -> ConservativityReport:
    """For T-free sequents, provability-within-budget must coincide between
    the truth system and its arithmetical base."""
    entries = []
    for ante, succ in sequents:
        r_lptn = search_cut_free(ante, succ, budget, "lptn")
        r_qg = search_cut_free(ante, succ, budget, "qg")
        entries.append({
            "ante": tuple(ante),
            "succ": tuple(succ),
            "lptn": r_lptn.found,
            "qg": r_qg.found,
        })
    return ConservativityReport(entries)

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
            return top_leaf(gamma, delta)
        return bot_leaf(gamma, delta)
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
            d = neg_left(d, rng.choice(succ).id)
        elif move == "negr":
            d = neg_right(d, rng.choice(ante).id)
        elif move == "andl":
            a, b = rng.sample(list(ante), 2)
            d = and_left(d, a.id, b.id)
        elif move == "Tl":
            d = truth_left(d, rng.choice(_closed_sentence_occ(ante)).id)
        else:
            d = truth_right(d, rng.choice(_closed_sentence_occ(succ)).id)
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
        yield pair(neg_right(l0, l0.conclusion.ante[0].id),
                   neg_left(l1, l1.conclusion.succ[-1].id))
        l0, l1, l2 = leaf(succ=[a]), leaf(succ=[b]), leaf(ante=[a, b])
        yield pair(and_right(l0, l0.conclusion.succ[-1].id,
                             l1, l1.conclusion.succ[-1].id),
                   and_left(l2, l2.conclusion.ante[0].id, l2.conclusion.ante[1].id))
        body, t = rng.choice(FORALL_BODIES), rng.choice((ZERO, ONE, TWO))
        phi = Forall("x", body)
        l0 = leaf(succ=[substitute(body, "x", Var("y"))])
        l1 = leaf(ante=[phi, substitute(body, "x", t)])
        yield pair(forall_right(l0, l0.conclusion.succ[-1].id, phi, "y"),
                   forall_left(l1, l1.conclusion.ante[0].id,
                               l1.conclusion.ante[1].id, t))
        atom = rng.choice(BASE_ATOMS)
        l0, l1 = leaf(succ=[atom]), leaf(ante=[atom])
        yield pair(truth_right(l0, l0.conclusion.succ[-1].id),
                   truth_left(l1, l1.conclusion.ante[0].id))
