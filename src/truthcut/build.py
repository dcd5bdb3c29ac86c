"""Smart constructors for rule applications.

Each builder takes premise derivations plus the ids of the occurrences the
rule consumes, and produces a new node whose conclusion occurrences are fresh
and whose lineage is wired positionally.  An active must sit on the side its
rule's shape (:data:`.deriv.RULE_SHAPES`) gives it.  Builders only do
bookkeeping; the kernel re-checks every side condition from scratch.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

from .coding import encode, quote
from .deriv import (
    RULE_SHAPES,
    SIDE_NAMES,
    Derivation,
    Occurrence,
    Sequent,
    copy_occ,
    occ,
)
from .syntax import (
    And,
    Eq,
    Forall,
    Formula,
    Not,
    Num,
    Plus,
    Suc,
    SynApp,
    Term,
    Times,
    Tr,
    Var,
    Zero,
)


class BuildError(Exception):
    pass


def _find(premise: Derivation, occ_id: int) -> tuple[str, int, Occurrence]:
    hit = premise.conclusion.find(occ_id)
    if hit is None:
        raise BuildError(f"occurrence {occ_id} not in premise conclusion")
    return hit


def _actives(rule: str, *consumed) -> list[tuple[str, int, Occurrence]]:
    """Where each (premise, occurrence id) a ``rule`` node consumes sits,
    checked against the side its rule's shape (:data:`.deriv.RULE_SHAPES`)
    gives it."""
    hits = []
    for (premise, occ_id), (_, side) in zip(consumed, RULE_SHAPES[rule].actives):
        hit = _find(premise, occ_id)
        if hit[0] != side:
            raise BuildError(f"{rule} active must be in the {SIDE_NAMES[side]}")
        hits.append(hit)
    return hits


def _fresh_ctx(
    premise: Derivation, consumed: set[int], premise_index: int = 0
) -> tuple[tuple[Occurrence, ...], tuple[Occurrence, ...], dict[int, tuple[tuple[int, int], ...]]]:
    """Copy the premise contexts (minus consumed occurrences) with fresh ids."""
    lineage: dict[int, tuple[tuple[int, int], ...]] = {}

    def side(occs):
        out = []
        for o in occs:
            if o.id in consumed:
                continue
            c = copy_occ(o)
            lineage[c.id] = ((premise_index, o.id),)
            out.append(c)
        return tuple(out)

    return side(premise.conclusion.ante), side(premise.conclusion.succ), lineage


def match_contexts(
    occs0: tuple[Occurrence, ...], occs1: tuple[Occurrence, ...]
) -> list[tuple[Occurrence, Occurrence]]:
    """First-fit pairing of equal formulas between two context multisets."""
    pool = list(occs1)
    out = []
    for o0 in occs0:
        for j, o1 in enumerate(pool):
            if o1.formula == o0.formula:
                out.append((o0, pool.pop(j)))
                break
        else:
            raise BuildError(f"contexts do not match: unpaired {o0.formula!r}")
    if pool:
        raise BuildError(f"contexts do not match: {len(pool)} extra occurrence(s)")
    return out


def _merge_ctx(
    p0: Derivation, consumed0: set[int], p1: Derivation, consumed1: set[int]
) -> tuple[tuple[Occurrence, ...], tuple[Occurrence, ...], dict[int, tuple[tuple[int, int], ...]]]:
    """Shared-context conclusion occurrences for a two-premise rule."""
    lineage: dict[int, tuple[tuple[int, int], ...]] = {}

    def side(side0, side1):
        left = tuple(o for o in side0 if o.id not in consumed0)
        right = tuple(o for o in side1 if o.id not in consumed1)
        out = []
        for o0, o1 in match_contexts(left, right):
            c = copy_occ(o0)
            lineage[c.id] = ((0, o0.id), (1, o1.id))
            out.append(c)
        return tuple(out)

    a = side(p0.conclusion.ante, p1.conclusion.ante)
    s = side(p0.conclusion.succ, p1.conclusion.succ)
    return a, s, lineage


# ---------------------------------------------------------------------------
# Leaves


def init_leaf(gamma, phi: Formula, delta) -> Derivation:
    left = occ(phi)
    right = occ(phi)
    concl = Sequent(
        tuple(occ(f) for f in gamma) + (left,),
        (right,) + tuple(occ(f) for f in delta),
    )
    return Derivation("init", concl, principal=(left.id, right.id))


def top_leaf(gamma, delta) -> Derivation:
    from .syntax import TOP

    p = occ(TOP)
    concl = Sequent(tuple(occ(f) for f in gamma), (p,) + tuple(occ(f) for f in delta))
    return Derivation("top", concl, principal=(p.id,))


def bot_leaf(gamma, delta) -> Derivation:
    from .syntax import BOT

    p = occ(BOT)
    concl = Sequent(tuple(occ(f) for f in gamma) + (p,), tuple(occ(f) for f in delta))
    return Derivation("bot", concl, principal=(p.id,))


def qg1_leaf(gamma, s: Term, delta) -> Derivation:
    p = occ(Eq(Suc(s), Zero()))
    concl = Sequent(tuple(occ(f) for f in gamma) + (p,), tuple(occ(f) for f in delta))
    return Derivation("qg1", concl, principal=(p.id,), term=s)


# ---------------------------------------------------------------------------
# Truth rules


def truth_left(premise: Derivation, active_id: int) -> Derivation:
    [(_, i, a)] = _actives("Tl", (premise, active_id))
    ante, succ, lineage = _fresh_ctx(premise, {active_id})
    p = occ(Tr(quote(a.formula)))
    ante = ante[:i] + (p,) + ante[i:]
    return Derivation(
        "Tl", Sequent(ante, succ), (premise,),
        principal=(p.id,), actives=((0, active_id),), lineage=lineage,
    )


def truth_right(premise: Derivation, active_id: int) -> Derivation:
    [(_, i, a)] = _actives("Tr", (premise, active_id))
    ante, succ, lineage = _fresh_ctx(premise, {active_id})
    p = occ(Tr(quote(a.formula)))
    succ = succ[:i] + (p,) + succ[i:]
    return Derivation(
        "Tr", Sequent(ante, succ), (premise,),
        principal=(p.id,), actives=((0, active_id),), lineage=lineage,
    )


def comp_node(p0: Derivation, id_phi: int, p1: Derivation, id_psi: int) -> Derivation:
    (_, _, a0), (_, _, a1) = _actives("comp", (p0, id_phi), (p1, id_psi))
    ante, succ, lineage = _merge_ctx(p0, {id_phi}, p1, {id_psi})
    term = SynApp("anddot", (Num(encode(a0.formula)), Num(encode(a1.formula))))
    p = occ(Tr(term))
    return Derivation(
        "comp", Sequent(ante, succ + (p,)), (p0, p1),
        principal=(p.id,), actives=((0, id_phi), (1, id_psi)), lineage=lineage,
    )


# ---------------------------------------------------------------------------
# Propositional rules


def neg_left(premise: Derivation, active_id: int) -> Derivation:
    [(_, _, a)] = _actives("negl", (premise, active_id))
    ante, succ, lineage = _fresh_ctx(premise, {active_id})
    p = occ(Not(a.formula))
    return Derivation(
        "negl", Sequent(ante + (p,), succ), (premise,),
        principal=(p.id,), actives=((0, active_id),), lineage=lineage,
    )


def neg_right(premise: Derivation, active_id: int) -> Derivation:
    [(_, _, a)] = _actives("negr", (premise, active_id))
    ante, succ, lineage = _fresh_ctx(premise, {active_id})
    p = occ(Not(a.formula))
    return Derivation(
        "negr", Sequent(ante, succ + (p,)), (premise,),
        principal=(p.id,), actives=((0, active_id),), lineage=lineage,
    )


def and_left(premise: Derivation, id_phi: int, id_psi: int) -> Derivation:
    (_, _, a0), (_, _, a1) = _actives("andl", (premise, id_phi), (premise, id_psi))
    ante, succ, lineage = _fresh_ctx(premise, {id_phi, id_psi})
    p = occ(And(a0.formula, a1.formula))
    return Derivation(
        "andl", Sequent(ante + (p,), succ), (premise,),
        principal=(p.id,), actives=((0, id_phi), (0, id_psi)), lineage=lineage,
    )


def and_right(p0: Derivation, id_phi: int, p1: Derivation, id_psi: int) -> Derivation:
    (_, _, a0), (_, _, a1) = _actives("andr", (p0, id_phi), (p1, id_psi))
    ante, succ, lineage = _merge_ctx(p0, {id_phi}, p1, {id_psi})
    p = occ(And(a0.formula, a1.formula))
    return Derivation(
        "andr", Sequent(ante, succ + (p,)), (p0, p1),
        principal=(p.id,), actives=((0, id_phi), (1, id_psi)), lineage=lineage,
    )


def forall_left(
    premise: Derivation, kept_id: int, inst_id: int, term: Term
) -> Derivation:
    (_, i, kept), _ = _actives("foralll", (premise, kept_id), (premise, inst_id))
    if not isinstance(kept.formula, Forall):
        raise BuildError("forall-left kept occurrence must be universal")
    ante, succ, lineage = _fresh_ctx(premise, {kept_id, inst_id})
    p = occ(kept.formula)
    ante = ante[:i] + (p,) + ante[i:] if i <= len(ante) else ante + (p,)
    return Derivation(
        "foralll", Sequent(ante, succ), (premise,),
        principal=(p.id,), actives=((0, kept_id), (0, inst_id)),
        lineage=lineage, term=term,
    )


def forall_right(
    premise: Derivation, active_id: int, forall_formula: Forall, eigen: str
) -> Derivation:
    _actives("forallr", (premise, active_id))
    ante, succ, lineage = _fresh_ctx(premise, {active_id})
    p = occ(forall_formula)
    return Derivation(
        "forallr", Sequent(ante, succ + (p,)), (premise,),
        principal=(p.id,), actives=((0, active_id),), lineage=lineage,
        var=eigen,
    )


def cut(p0: Derivation, right_id: int, p1: Derivation, left_id: int) -> Derivation:
    (_, _, a0), (_, _, a1) = _actives("cut", (p0, right_id), (p1, left_id))
    if a0.formula != a1.formula:
        raise BuildError("cut formulas differ")
    ante, succ, lineage = _merge_ctx(p0, {right_id}, p1, {left_id})
    return Derivation(
        "cut", Sequent(ante, succ), (p0, p1),
        actives=((0, right_id), (1, left_id)), lineage=lineage,
    )


# ---------------------------------------------------------------------------
# Geometric rules: each discharges active formulas from premise antecedents.


def _discharge(rule: str, premise: Derivation, active_ids: tuple[int, ...], **kw) -> Derivation:
    _actives(rule, *((premise, aid) for aid in active_ids))
    ante, succ, lineage = _fresh_ctx(premise, set(active_ids))
    return Derivation(
        rule, Sequent(ante, succ), (premise,),
        actives=tuple((0, aid) for aid in active_ids), lineage=lineage, **kw,
    )


def eq1(premise: Derivation, active_id: int) -> Derivation:
    _, _, a = _find(premise, active_id)
    if not (isinstance(a.formula, Eq) and a.formula.left == a.formula.right):
        raise BuildError("eq1 discharges a reflexive equation")
    return _discharge("eq1", premise, (active_id,), term=a.formula.left)


def eq2(
    premise: Derivation,
    discharged_id: int,
    template_var: str,
    template: Formula,
    s: Term,
    t: Term,
) -> Derivation:
    return _discharge(
        "eq2", premise, (discharged_id,),
        template=(template_var, template), term=s, term2=t,
    )


def qg2(premise: Derivation, active_id: int) -> Derivation:
    _, _, a = _find(premise, active_id)
    if not isinstance(a.formula, Eq):
        raise BuildError("qg2 discharges an equation")
    return _discharge("qg2", premise, (active_id,), term=a.formula.left, term2=a.formula.right)


def qg3(
    p0: Derivation, active0_id: int, p1: Derivation, active1_id: int,
    x: Term, eigen: str,
) -> Derivation:
    _actives("qg3", (p0, active0_id), (p1, active1_id))
    ante, succ, lineage = _merge_ctx(p0, {active0_id}, p1, {active1_id})
    return Derivation(
        "qg3", Sequent(ante, succ), (p0, p1),
        actives=((0, active0_id), (1, active1_id)), lineage=lineage,
        term=x, var=eigen,
    )


# ---------------------------------------------------------------------------
# The recursion axioms discharged by qg4..qg7, each stated once


#: rule -> the axiom instance it discharges, as a function of the rule's
#: instantiating terms x (and y), which the node carries as ``term`` (and
#: ``term2``).  The kernel checks against it and ``arith`` rewrites with it.
AXIOMS: dict[str, Callable[..., Formula]] = {
    "qg4": lambda x: Eq(Plus(x, Zero()), x),
    "qg5": lambda x, y: Eq(Plus(x, Suc(y)), Suc(Plus(x, y))),
    "qg6": lambda x: Eq(Times(x, Zero()), Zero()),
    "qg7": lambda x, y: Eq(Times(x, Suc(y)), Plus(Times(x, y), x)),
}


def _term_paths(shape) -> list[tuple[str, ...]]:
    """The field names leading to the first pre-order occurrence of each of
    ``shape``'s parameters in the formula it builds."""
    holes = [Var(f"?{i}") for i in range(shape.__code__.co_argcount)]
    found: dict[Term, tuple[str, ...]] = {}
    stack = [(shape(*holes), ())]
    while stack:
        t, path = stack.pop()
        if t in holes:
            found.setdefault(t, path)
        else:
            stack += reversed([(getattr(t, f.name), path + (f.name,))
                               for f in fields(t) if f.init])
    return [found[h] for h in holes]


#: rule -> where a discharged formula holds each instantiating term, so a
#: script reads them back as ``reduce(getattr, path, formula)``
AXIOM_TERMS = {rule: _term_paths(shape) for rule, shape in AXIOMS.items()}


def discharge_axiom(rule: str, premise: Derivation, active_id: int,
                    *terms: Term) -> Derivation:
    """``rule`` (qg4..qg7) discharging the axiom instance ``active_id``
    for the instantiating terms ``terms``."""
    return _discharge(rule, premise, (active_id,),
                      **dict(zip(("term", "term2"), terms)))
