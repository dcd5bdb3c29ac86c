"""Smart constructors for rule applications.

Every rule node is built by :func:`_node` from the (premise, occurrence id)
pairs it consumes: the rule's shape (:data:`.deriv.RULE_SHAPES`) gives its
premises, the side each active must sit on, and where its principal goes,
and the conclusion's occurrences are fresh and wired positionally to the
premises.  Each logical rule's formula relation is stated once, in
:data:`LOGICAL_RULES`: ``_node`` makes principals by it, the kernel,
``invert`` and the script reader break principals into its parts, and
:func:`logical` finds the parts in the premises.  Search alone still
restates it, because on the table its actives for a conjunction of equal
conjuncts, and with them the benchmark's inputs, would change.  Every leaf
is built by :func:`leaf`.  Each axiom shape is stated once: which formulas
a leaf rule's principal may be in :data:`LEAF_AXIOMS`, and the instances
qg4..qg7 discharge in :data:`AXIOMS`; the kernel checks against both, and
the script reader, search and ``arith`` build with them.  Builders only do
bookkeeping; the kernel re-checks every side condition from scratch.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .coding import DecodeError, decode_sentence, encode, quote
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
    BOT,
    SIGNATURE,
    TOP,
    And,
    Bot,
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
    Top,
    Tr,
    Var,
    Zero,
    is_base_atom,
    is_zero,
    numeral_value,
    substitute,
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
    checked against the side its rule's shape gives it."""
    hits = []
    for (premise, occ_id), (_, side) in zip(consumed, RULE_SHAPES[rule].actives):
        hit = _find(premise, occ_id)
        if hit[0] != side:
            raise BuildError(f"active must be in the {SIDE_NAMES[side]}")
        hits.append(hit)
    return hits


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


def _fresh_ctx(premise: Derivation, consumed: set[int]):
    """Copy the premise contexts (minus consumed occurrences) with fresh ids."""
    lineage: dict[int, tuple[tuple[int, int], ...]] = {}

    def side(occs):
        out = []
        for o in occs:
            if o.id not in consumed:
                c = copy_occ(o)
                lineage[c.id] = ((0, o.id),)
                out.append(c)
        return tuple(out)

    return side(premise.conclusion.ante), side(premise.conclusion.succ), lineage


def _merge_ctx(p0: Derivation, consumed0: set[int], p1: Derivation, consumed1: set[int]):
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
# The logical rules' formula relation, each stated once


class LogicalRule(NamedTuple):
    """One logical rule's formula relation.  ``make`` makes a principal of
    class ``principal`` from the actives' formulas (forallr has none: its
    caller names the universal), and ``parts(principal, instance)`` gives
    them back in the order of the rule's shape, which says their premises
    and sides; the instance is a universal's witness term or eigenvariable.
    ``parts`` raises DecodeError for a T atom that names no sentence and
    CaptureError for an instance the universal would capture.  The kernel
    reports a principal of another class with the (reason code, message) of
    ``malformed``, and an active that is not its part with its entry in
    ``mismatch``; a message may name the principal ``p``, the active ``a``
    and the part ``want``.  ``keeps``: the premise keeps the principal, as
    its first active."""

    principal: type
    make: Callable[..., Formula] | None
    parts: Callable[[Formula, Term | None], tuple[Formula, ...]]
    malformed: tuple[str, str]
    mismatch: tuple[tuple[str, str], ...]
    keeps: bool = False


def _disquote(p: Tr, _) -> tuple[Formula]:
    n = numeral_value(p.term)
    if n is None:
        raise DecodeError(f"truth-rule principal term {p.term!r} is not a numeral")
    return (decode_sentence(n),)


#: the kernel's report of a truth rule's active that its numeral does not code
_UNCODED = (("NUMERAL_DECODE_MISMATCH",
             "numeral {label} codes {want!r}, not the premise active {a!r}"),)


#: logical rule -> its formula relation, which the kernel checks, ``invert``
#: and cut reduction invert into, and the script reader reads lines by
LOGICAL_RULES: dict[str, LogicalRule] = {
    "Tl": LogicalRule(
        Tr, lambda a: Tr(quote(a)), _disquote,
        ("MALFORMED_RULE", "truth-rule principal must be a T atom in the antecedent"),
        _UNCODED),
    "Tr": LogicalRule(
        Tr, lambda a: Tr(quote(a)), _disquote,
        ("MALFORMED_RULE", "truth-rule principal must be a T atom in the succedent"),
        _UNCODED),
    "negl": LogicalRule(
        Not, Not, lambda p, _: (p.body,),
        ("PRINCIPAL_MISMATCH", "neg-left principal {p!r} does not negate the active"),
        (("PRINCIPAL_MISMATCH", "neg-left principal {p!r} does not negate the active"),)),
    "negr": LogicalRule(
        Not, Not, lambda p, _: (p.body,),
        ("PRINCIPAL_MISMATCH", "neg-right principal {p!r} does not negate the active"),
        (("PRINCIPAL_MISMATCH", "neg-right principal {p!r} does not negate the active"),)),
    "andl": LogicalRule(
        And, And, lambda p, _: (p.left, p.right),
        ("MALFORMED_RULE", "and-left principal must be a conjunction in the antecedent"),
        (("PRINCIPAL_MISMATCH", "and-left actives do not match the conjuncts"),) * 2),
    "andr": LogicalRule(
        And, And, lambda p, _: (p.left, p.right),
        ("MALFORMED_RULE", "and-right principal must be a conjunction in the succedent"),
        (("PRINCIPAL_MISMATCH", "and-right actives do not match the conjuncts"),) * 2),
    "foralll": LogicalRule(
        Forall, lambda kept, inst: kept, lambda p, t: (p, substitute(p.body, p.var, t)),
        ("MALFORMED_RULE", "forall-left principal must be universal in the antecedent"),
        (("PRINCIPAL_MISMATCH", "forall-left must keep the universal formula in the premise"),
         ("WITNESS_MISMATCH", "forall-left instance is {a!r}, expected {want!r}")),
        keeps=True),
    "forallr": LogicalRule(
        Forall, None, lambda p, y: (substitute(p.body, p.var, y),),
        ("MALFORMED_RULE", "forall-right principal must be a universal formula"),
        (("PRINCIPAL_MISMATCH", "forall-right premise active is {a!r}, expected {want!r}"),)),
}


def logical(rule: str, premises, parts, principal: Formula | None = None,
            instance: Term | None = None) -> Derivation | None:
    """The ``rule`` node over ``premises`` with ``principal`` (else made)
    and a universal's term or eigenvariable ``instance``, whose actives are
    the first occurrences of ``parts`` on their premise and side, each not
    picked already; None if a part is missing."""
    shape, ids = RULE_SHAPES[rule], []
    for f, (pi, side) in zip(parts, shape.actives):
        ids.append(premises[pi].conclusion.first(side, f, ids))
        if ids[-1] is None:
            return None
    data = {}
    if instance is not None:  # forallr binds an eigenvariable, foralll a term
        data = {"var": instance.name} if shape.binds is not None else {"term": instance}
    return _node(rule, [(premises[pi], i) for (pi, _), i in zip(shape.actives, ids)],
                 principal, **data)


#: rules whose principal takes its first active's place; any other
#: principal goes at the end of its side
_IN_PLACE = ("Tl", "Tr", "foralll")


def _node(rule: str, consumed, principal: Formula | None = None, **data) -> Derivation:
    """The ``rule`` node consuming ``consumed``, one (premise, occurrence id)
    per active of the rule's shape.  Its context is its premise's unconsumed
    occurrences, or its two premises' paired by :func:`match_contexts`, each
    copied with a fresh id; then comes the principal, ``principal`` or made
    by :data:`LOGICAL_RULES`, if the rule has one.  ``data`` is the node's
    instantiation data."""
    shape = RULE_SHAPES[rule]
    hits = _actives(rule, *consumed)
    if shape.premises == 1:
        premises = (consumed[0][0],)
        ante, succ, lineage = _fresh_ctx(premises[0], {oid for _, oid in consumed})
    else:  # each premise holds one active
        (p0, id0), (p1, id1) = consumed
        premises = (p0, p1)
        ante, succ, lineage = _merge_ctx(p0, {id0}, p1, {id1})
    sides = {"ante": ante, "succ": succ}
    ps = ()
    if shape.principals:
        [side] = shape.principals
        if principal is None:
            principal = LOGICAL_RULES[rule].make(*[o.formula for _, _, o in hits])
        p = occ(principal)
        ctx = sides[side]
        i = hits[0][1] if rule in _IN_PLACE else len(ctx)
        sides[side] = ctx[:i] + (p,) + ctx[i:]
        ps = (p.id,)
    return Derivation(
        rule, Sequent(sides["ante"], sides["succ"]), premises, principal=ps,
        actives=tuple([(pi, oid) for (_, oid), (pi, _) in zip(consumed, shape.actives)]),
        lineage=lineage, **data,
    )


# ---------------------------------------------------------------------------
# Leaves


#: leaf rule -> which formulas its principal may be, in the order search
#: tries the leaf rules of its system
LEAF_AXIOMS: dict[str, Callable[[Formula], bool]] = {
    "top": lambda f: isinstance(f, Top),
    "bot": lambda f: isinstance(f, Bot),
    "init": is_base_atom,
    "qg1": lambda f: isinstance(f, Eq) and isinstance(f.left, Suc) and is_zero(f.right),
}


def leaf(rule: str, gamma, phi: Formula, delta) -> Derivation:
    """The ``rule`` leaf with context ``gamma`` => ``delta`` and ``phi`` as
    each principal, at the end of the antecedent or the start of the
    succedent.  Fresh ids go to the principals, then Γ, then Δ."""
    sides = RULE_SHAPES[rule].principals
    ps = [occ(phi) for _ in sides]
    ante, succ = [occ(f) for f in gamma], [occ(f) for f in delta]
    for side, p in zip(sides, ps):
        if side == "ante":
            ante.append(p)
        else:
            succ.insert(0, p)
    return Derivation(rule, Sequent(tuple(ante), tuple(succ)),
                      principal=tuple([p.id for p in ps]))


def leaf_principal(rule: str, ante, succ, admits=None):
    """``(Γ, φ, Δ)`` such that ``leaf(rule, Γ, φ, Δ)`` concludes ante =>
    succ, with φ the first formula on its last principal's side that the
    rule's axiom (or ``admits``) admits and that every principal side holds;
    None if there is none."""
    *others, last = RULE_SHAPES[rule].principals
    fs = {"ante": ante, "succ": succ}
    admits = admits or LEAF_AXIOMS[rule]
    for phi in fs[last]:
        if admits(phi) and all(phi in fs[s] for s in others):
            fs = {s: list(f) for s, f in fs.items()}
            for s in (*others, last):
                fs[s].remove(phi)
            return fs["ante"], phi, fs["succ"]
    return None


def init_leaf(gamma, phi: Formula, delta) -> Derivation:
    return leaf("init", gamma, phi, delta)


def top_leaf(gamma, delta) -> Derivation:
    return leaf("top", gamma, TOP, delta)


def bot_leaf(gamma, delta) -> Derivation:
    return leaf("bot", gamma, BOT, delta)


def qg1_leaf(gamma, s: Term, delta) -> Derivation:
    return leaf("qg1", gamma, Eq(Suc(s), Zero()), delta)


# ---------------------------------------------------------------------------
# Truth, logical and structural rules


def truth_left(premise: Derivation, active_id: int) -> Derivation:
    return _node("Tl", ((premise, active_id),))


def truth_right(premise: Derivation, active_id: int) -> Derivation:
    return _node("Tr", ((premise, active_id),))


def comp_node(p0: Derivation, id_phi: int, p1: Derivation, id_psi: int) -> Derivation:
    (_, _, a), (_, _, b) = _actives("comp", (p0, id_phi), (p1, id_psi))
    principal = Tr(SynApp("anddot", (Num(encode(a.formula)), Num(encode(b.formula)))))
    return _node("comp", ((p0, id_phi), (p1, id_psi)), principal)


def neg_left(premise: Derivation, active_id: int) -> Derivation:
    return _node("negl", ((premise, active_id),))


def neg_right(premise: Derivation, active_id: int) -> Derivation:
    return _node("negr", ((premise, active_id),))


def and_left(premise: Derivation, id_phi: int, id_psi: int) -> Derivation:
    return _node("andl", ((premise, id_phi), (premise, id_psi)))


def and_right(p0: Derivation, id_phi: int, p1: Derivation, id_psi: int) -> Derivation:
    return _node("andr", ((p0, id_phi), (p1, id_psi)))


def forall_left(
    premise: Derivation, kept_id: int, inst_id: int, term: Term
) -> Derivation:
    return _node("foralll", ((premise, kept_id), (premise, inst_id)), term=term)


def forall_right(
    premise: Derivation, active_id: int, forall_formula: Forall, eigen: str
) -> Derivation:
    return _node("forallr", ((premise, active_id),), forall_formula, var=eigen)


def cut(p0: Derivation, right_id: int, p1: Derivation, left_id: int) -> Derivation:
    (_, _, a0), (_, _, a1) = _actives("cut", (p0, right_id), (p1, left_id))
    if a0.formula != a1.formula:
        raise BuildError("cut formulas differ")
    return _node("cut", ((p0, right_id), (p1, left_id)))


# ---------------------------------------------------------------------------
# Geometric rules: each discharges active formulas from premise antecedents.


def eq1(premise: Derivation, active_id: int) -> Derivation:
    _, _, a = _find(premise, active_id)
    if not (isinstance(a.formula, Eq) and a.formula.left == a.formula.right):
        raise BuildError("discharges a reflexive equation")
    return _node("eq1", ((premise, active_id),))


def eq2(
    premise: Derivation,
    discharged_id: int,
    template_var: str,
    template: Formula,
    s: Term,
    t: Term,
) -> Derivation:
    return _node("eq2", ((premise, discharged_id),),
                 template=(template_var, template), term=s, term2=t)


def qg2(premise: Derivation, active_id: int) -> Derivation:
    _, _, a = _find(premise, active_id)
    if not isinstance(a.formula, Eq):
        raise BuildError("discharges an equation")
    return _node("qg2", ((premise, active_id),))


def qg3(
    p0: Derivation, active0_id: int, p1: Derivation, active1_id: int,
    x: Term, eigen: str,
) -> Derivation:
    return _node("qg3", ((p0, active0_id), (p1, active1_id)), term=x, var=eigen)


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
            stack += reversed([(getattr(t, f), path + (f,))
                               for f in SIGNATURE[type(t)].kids])
    return [found[h] for h in holes]


#: rule -> where a discharged formula holds each instantiating term, so a
#: script reads them back as ``reduce(getattr, path, formula)``
AXIOM_TERMS = {rule: _term_paths(shape) for rule, shape in AXIOMS.items()}


def discharge_axiom(rule: str, premise: Derivation, active_id: int,
                    *terms: Term) -> Derivation:
    """``rule`` (qg4..qg7) discharging the axiom instance ``active_id``
    for the instantiating terms ``terms``."""
    return _node(rule, ((premise, active_id),),
                 **dict(zip(("term", "term2"), terms)))
