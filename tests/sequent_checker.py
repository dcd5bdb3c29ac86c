"""A second, id-free checker of derivations, for cross-checking the kernel.

The kernel checks each rule instance through occurrence ids and lineage.
This checker reads a derivation the textbook way instead: each node's
conclusion must be an instance of its rule over its premises' sequents, read
as multisets of formulas.  It states each rule's relation between premise and
conclusion sequents itself, as a schema over the rule's actives and
principal, and reads only data from ``truthcut``: the rule shapes
(``deriv.RULE_SHAPES``), the leaf axioms (``build.LEAF_AXIOMS``), the
recursion axioms (``build.AXIOMS``) and the rule sets
(``kernel.SYSTEM_RULES``).  It uses neither the kernel's checker nor the
logical rules' table in ``build``.

By design it cannot see what only ids show: an occurrence id used twice, or
lineage that pairs the wrong occurrences of equal formulas.  So on a
derivation the kernel finds valid it must find nothing, and where it finds
nothing the kernel may report only ``OCC_ID_REUSE`` and ``LINEAGE_BROKEN``.

Usage::

    problems = check(derivation, system)   # [(path, rule, reason)], [] if it fits
"""

from __future__ import annotations

from collections import Counter

from truthcut.build import AXIOMS, LEAF_AXIOMS
from truthcut.coding import encode
from truthcut.deriv import RULE_SHAPES
from truthcut.kernel import SYSTEM_RULES
from truthcut.syntax import (
    And,
    CaptureError,
    Eq,
    Forall,
    Not,
    Num,
    Suc,
    SynApp,
    Tr,
    Var,
    bound_vars,
    free_vars,
    is_base_atom,
    is_sentence,
    is_zero,
    numeral_value,
    substitute,
)

A, S = "ante", "succ"


def _sequent(node) -> dict[str, Counter]:
    """side -> the multiset of ``node``'s conclusion formulas there."""
    c = node.conclusion
    return {A: Counter(o.formula for o in c.ante),
            S: Counter(o.formula for o in c.succ)}


def _fits(premise, concl, drop=(), add=()) -> bool:
    """Whether ``concl`` is ``premise`` less the (side, formula) pairs of
    ``drop`` and plus those of ``add``, as multisets."""
    want = {side: Counter(fs) for side, fs in premise.items()}
    for side, f in drop:
        if not want[side][f]:
            return False
        want[side][f] -= 1
    for side, f in add:
        want[side][f] += 1
    return all(+want[side] == concl[side] for side in (A, S))


def _inst(body, var, t):
    """``body`` with ``t`` for ``var``, or None where that would capture."""
    try:
        return substitute(body, var, t)
    except CaptureError:
        return None


def _names(t, phi) -> bool:
    """Whether ``t`` is a numeral of the code of the sentence ``phi``."""
    return is_sentence(phi) and numeral_value(t) == encode(phi)


def _free_in(y, seq) -> bool:
    return any(y in free_vars(f) for side in (A, S) for f in seq[side])


# ---------------------------------------------------------------------------
# Each rule's schema: (node, premise sequents, conclusion sequent) -> bool,
# where a node carries its rule's witness term, eigenvariable and template.
# A schema's context is whatever its actives and principal leave over, the
# same in every premise as in the conclusion.


def _leaf(node, ps, c):
    # the axiom's formula on every principal side, any context
    sides = RULE_SHAPES[node.rule].principals
    return any(LEAF_AXIOMS[node.rule](f) and all(c[s][f] for s in sides)
               for f in c[sides[-1]])


def _cut(node, ps, c):
    # G => D, f   and   f, G => D   give   G => D
    p0, p1 = ps
    return any(_fits(c, p0, add=[(S, f)]) and _fits(c, p1, add=[(A, f)])
               for f in p0[S])


def _truth(side):
    # f on ``side`` becomes T<f>, with f a sentence
    def schema(node, ps, c):
        [p] = ps
        return any(isinstance(g, Tr) and _names(g.term, f)
                   and _fits(p, c, drop=[(side, f)], add=[(side, g)])
                   for f in p[side] for g in c[side])
    return schema


def _neg(side, active):
    # f on the ``active`` side becomes not-f on the other
    def schema(node, ps, c):
        [p] = ps
        return any(_fits(p, c, drop=[(active, f)], add=[(side, Not(f))])
                   for f in p[active])
    return schema


def _andl(node, ps, c):
    # f, g, G => D   gives   f & g, G => D
    [p] = ps
    return any(isinstance(h, And) and _fits(
        p, c, drop=[(A, h.left), (A, h.right)], add=[(A, h)]) for h in c[A])


def _andr(node, ps, c):
    # G => D, f   and   G => D, g   give   G => D, f & g
    p0, p1 = ps
    return any(isinstance(h, And)
               and _fits(c, p0, drop=[(S, h)], add=[(S, h.left)])
               and _fits(c, p1, drop=[(S, h)], add=[(S, h.right)])
               for h in c[S])


def _foralll(node, ps, c):
    # all x.f, f(t), G => D   gives   all x.f, G => D   (t the witness)
    [p] = ps
    return node.term is not None and any(
        isinstance(h, Forall) and p[A][h]
        and _fits(p, c, drop=[(A, _inst(h.body, h.var, node.term))])
        for h in c[A])


def _forallr(node, ps, c):
    # G => D, f(y)   gives   G => D, all x.f   with y free in neither
    [p] = ps
    y = node.var
    return y is not None and not _free_in(y, c) and any(
        isinstance(h, Forall) and _fits(
            p, c, drop=[(S, _inst(h.body, h.var, Var(y)))], add=[(S, h)])
        for h in c[S])


def _comp(node, ps, c):
    # G => D, f   and   G => D, g   give   G => D, T(anddot #f #g)
    p0, p1 = ps
    return any(
        isinstance(h, Tr) and _fits(c, p0, drop=[(S, h)], add=[(S, f)])
        and _fits(c, p1, drop=[(S, h)], add=[(S, g)])
        and is_sentence(f) and is_sentence(g)
        and h.term == SynApp("anddot", (Num(encode(f)), Num(encode(g))))
        for h in c[S] for f in p0[S] for g in p1[S])


def _eq1(node, ps, c):
    # t = t, G => D   gives   G => D
    [p] = ps
    return any(isinstance(f, Eq) and f.left == f.right
               and _fits(p, c, drop=[(A, f)]) for f in p[A])


def _eq2(node, ps, c):
    # chi(s), G => D   gives   G => D   with s = t and chi(t) in G,
    # chi an equation over the template variable
    [p] = ps
    if node.template is None or node.term is None or node.term2 is None:
        return False
    v, chi = node.template
    s, t = node.term, node.term2
    return (is_base_atom(chi) and c[A][Eq(s, t)] > 0
            and c[A][substitute(chi, v, t)] > 0
            and _fits(p, c, drop=[(A, substitute(chi, v, s))]))


def _qg2(node, ps, c):
    # s = t, G => D   gives   G => D   with S(s) = S(t) in G
    [p] = ps
    return any(isinstance(f, Eq) and c[A][Eq(Suc(f.left), Suc(f.right))] > 0
               and _fits(p, c, drop=[(A, f)]) for f in p[A])


def _qg3(node, ps, c):
    # x = 0, G => D   and   y = S(x), G => D   give   G => D
    # with y free in neither x = 0 nor G => D
    p0, p1 = ps
    x, y = node.term, node.var
    if x is None or y is None or _free_in(y, c):
        return False
    case = Eq(Var(y), Suc(x))
    return _fits(c, p1, add=[(A, case)]) and any(
        isinstance(f, Eq) and f.left == x and is_zero(f.right)
        and y not in free_vars(f) and _fits(c, p0, add=[(A, f)])
        for f in p0[A])


def _axiom(node, ps, c):
    # the rule's recursion axiom instance, G => D   gives   G => D
    [p] = ps
    shape = AXIOMS[node.rule]
    terms = (node.term, node.term2)[:shape.__code__.co_argcount]
    return None not in terms and _fits(p, c, drop=[(A, shape(*terms))])


SCHEMAS = {
    "init": _leaf, "top": _leaf, "bot": _leaf, "qg1": _leaf,
    "cut": _cut,
    "Tl": _truth(A), "Tr": _truth(S),
    "negl": _neg(A, S), "negr": _neg(S, A),
    "andl": _andl, "andr": _andr,
    "foralll": _foralll, "forallr": _forallr,
    "comp": _comp,
    "eq1": _eq1, "eq2": _eq2, "qg2": _qg2, "qg3": _qg3,
    **{rule: _axiom for rule in AXIOMS},
}

#: rules that bind an eigenvariable, which the node carries
_BINDERS = {"forallr", "qg3"}


def check(d, system: str) -> list[tuple[tuple[int, ...], str, str]]:
    """(path, rule, reason) for every node of ``d`` that is not an instance
    of its rule in ``system``, then every breach of the pure variable
    convention (outside ``lgt``): eigenvariables pairwise distinct, each
    free only in the subtree of its node, and no variable both free and
    bound in one sequent."""
    problems = []
    nodes = list(d.iter_paths())
    for path, node in nodes:
        rule = node.rule
        if rule not in SYSTEM_RULES[system]:
            problems.append((path, rule, f"not a rule of {system}"))
        elif len(node.premises) != RULE_SHAPES[rule].premises:
            problems.append((path, rule, "wrong number of premises"))
        elif not SCHEMAS[rule](node, [_sequent(p) for p in node.premises],
                               _sequent(node)):
            problems.append((path, rule, "conclusion is not an instance"))
    if system == "lgt":
        return problems
    seen: set[str] = set()
    for path, node in nodes:
        if node.rule not in _BINDERS or node.var is None:
            continue
        y = node.var
        if y in seen:
            problems.append((path, node.rule, f"eigenvariable {y} reused"))
        seen.add(y)
        for other, n in nodes:
            if other[:len(path)] != path and _free_in(y, _sequent(n)):
                problems.append((path, node.rule,
                                 f"eigenvariable {y} free outside its subtree"))
                break
    for path, node in nodes:
        fs = [o.formula for o in node.conclusion.all_occurrences()]
        free = set().union(*map(free_vars, fs)) if fs else set()
        bound = set().union(*map(bound_vars, fs)) if fs else set()
        if free & bound:
            problems.append((path, node.rule, "a variable is free and bound"))
    return problems
