"""Cut-free geometric-rule derivations deciding closed equations.

``prove_equation`` and ``refute_equation`` build linear derivations from a
leaf (initial sequent or zero-successor axiom) through a planned sequence of
discharging rule applications.  The plan rewrites the equation to numeral
form using the recursion axioms for + and x as replacement triggers, strips
successors pairwise, and cleans up every auxiliary hypothesis, so the end
sequent carries no residue.

Terms must be closed and built from {0, S, +, x} (no numeral literals, no
syntax functions), except that syntactically identical sides are handled for
arbitrary terms via reflexivity alone.
"""

from __future__ import annotations

from . import build as B
from .deriv import Derivation
from .syntax import (
    Eq,
    Formula,
    Plus,
    Suc,
    Term,
    Times,
    Var,
    Zero,
    children,
    is_chain_closed,
    rebuild,
)
from .coding import eval_term


class ArithError(Exception):
    pass


_TEMPLATE_VAR = "w_"


def chain_numerals(k: int) -> list[Term]:
    """S^0(0), ..., S^k(0) as explicit successor chains, one ``Suc`` per
    step."""
    out: list[Term] = [Zero()]
    for _ in range(k):
        out.append(Suc(out[-1]))
    return out


# ---------------------------------------------------------------------------
# Innermost rewriting with the recursion axioms


#: (operator, right operand) of a redex -> the axiom that contracts it
_REDEX_RULE = {(Plus, Zero): "qg4", (Plus, Suc): "qg5",
               (Times, Zero): "qg6", (Times, Suc): "qg7"}


def _find_redex(t: Term | Eq, path=()):
    """Innermost-leftmost redex: (path, redex, contractum, axiom_step)."""
    for i, c in enumerate(children(t)):
        r = _find_redex(c, path + (i,))
        if r is not None:
            return r
    if not isinstance(t, (Plus, Times)):
        return None
    kind = _REDEX_RULE.get((type(t), type(t.right)))
    if kind is None:
        return None
    args = (t.left,) if isinstance(t.right, Zero) else (t.left, t.right.child)
    return (path, t, B.AXIOMS[kind](*args).right, (kind, args))


def _replace_at(e: Term | Eq, path, new: Term) -> Term | Eq:
    """``e`` with ``new`` at ``path``, a path of child indices."""
    if not path:
        return new
    kids = list(children(e))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return rebuild(e, kids)


def _rewrite_chain(f0: Eq):
    """Normalize both sides.  Returns (forms, rw, triggers) with
    forms[0] = f0, forms[-1] in numeral form, rw[i] = (template, redex,
    contractum) carrying forms[i] to forms[i+1], and triggers[i] the axiom
    discharge step for the equation redex=contractum."""
    forms = [f0]
    rw = []
    triggers = []
    cur = f0
    while True:
        hit = _find_redex(cur)
        if hit is None:
            break
        path, u, v, step = hit
        rw.append((_replace_at(cur, path, Var(_TEMPLATE_VAR)), u, v))
        triggers.append(step)
        cur = _replace_at(cur, path, v)
        forms.append(cur)
    return forms, rw, triggers


# ---------------------------------------------------------------------------
# Plan execution


def _apply_axiom(d: Derivation, step) -> Derivation:
    kind, args = step
    axiom = B.AXIOMS[kind](*args)
    return B.discharge_axiom(kind, d, d.conclusion.first("ante", axiom), *args)


def prove_equation(gamma, s: Term, t: Term, delta) -> Derivation:
    """Cut-free geometric derivation of Gamma => s=t, Delta for a true closed
    equation."""
    goal = Eq(s, t)
    if s == t:
        leaf = B.init_leaf(list(gamma), goal, list(delta))
        return B.eq1(leaf, leaf.conclusion.first("ante", goal))
    if not (is_chain_closed(s) and is_chain_closed(t)):
        raise ArithError(
            "non-identical sides must be closed {0,S,+,x} terms"
        )
    if eval_term(s) != eval_term(t):
        raise ArithError(f"{goal!r} is false; cannot prove it")
    forms, rw, triggers = _rewrite_chain(goal)
    if forms[-1].left != forms[-1].right:
        raise ArithError("normalization did not reach a reflexive equation")
    hyps = list(forms[1:]) + [Eq(u, v) for _, u, v in rw]
    d = B.init_leaf(list(gamma) + hyps, goal, list(delta))
    for i, (chi, u, v) in enumerate(rw):
        d = B.eq2(d, d.conclusion.first("ante", forms[i]), _TEMPLATE_VAR, chi, u, v)
    d = B.eq1(d, d.conclusion.first("ante", forms[-1]))
    for step in triggers:
        d = _apply_axiom(d, step)
    return d


def refute_equation(gamma, s: Term, t: Term, delta) -> Derivation:
    """Cut-free geometric derivation of Gamma, s=t => Delta for a false
    closed equation."""
    goal = Eq(s, t)
    if not (is_chain_closed(s) and is_chain_closed(t)):
        raise ArithError("refutation needs closed {0,S,+,x} terms")
    a, b = eval_term(s), eval_term(t)
    if a == b:
        raise ArithError(f"{goal!r} is true; cannot refute it")
    forms, rw, _triggers = _rewrite_chain(goal)
    r = len(rw)
    # forms[-1] == Eq(chain(a), chain(b))
    flip = a < b
    p, q = (b, a) if flip else (a, b)
    chain = chain_numerals(p)
    strips = [Eq(chain[p - j], chain[q - j]) for j in range(q + 1)]
    if flip:
        strips[0] = Eq(chain[p], chain[q])  # == flipped form
    principal = strips[q]  # Eq(S(chain(p-q-1)), 0)

    # hypothesis multiset (everything discharged above the root)
    hyps: list[Formula] = []
    hyps += strips[1:q + 1]
    if flip:
        hyps.append(strips[0])
        hyps.append(Eq(chain[p], chain[p]))
    hyps += forms[1:]
    rev_triggers = [(Eq(v, u), Eq(u, v), Eq(v, v), step)
                    for (chi, u, v), step in zip(rw, _triggers)]
    for rvu, auv, evv, _step in rev_triggers:
        hyps += [rvu, auv, evv]
    # the qg1 leaf supplies one copy of its principal formula
    gamma_leaf = list(gamma) + [goal] + hyps
    gamma_leaf.remove(principal)

    d = B.qg1_leaf(gamma_leaf, chain[p - q - 1], list(delta))

    # phase 1: strip successors (top-down j = q .. 1)
    for j in range(q, 0, -1):
        f = strips[j]
        d = B.qg2(d, d.conclusion.first("ante", f))
    # phase 2: un-flip
    if flip:
        nb, na = chain[p], chain[q]
        chi = Eq(nb, Var(_TEMPLATE_VAR))
        d = B.eq2(d, d.conclusion.first("ante", strips[0]), _TEMPLATE_VAR, chi, na, nb)
        d = B.eq1(d, d.conclusion.first("ante", Eq(nb, nb)))
    # phase 3: rewind the rewrite chain with reversed triggers
    for i in range(r - 1, -1, -1):
        chi, u, v = rw[i]
        d = B.eq2(d, d.conclusion.first("ante", forms[i + 1]), _TEMPLATE_VAR, chi, v, u)
    # phase 4: discharge reversed triggers by symmetry, then axioms
    for rvu, auv, evv, step in rev_triggers:
        w2 = "w2_"
        chi = Eq(rvu.left, Var(w2))
        d = B.eq2(d, d.conclusion.first("ante", rvu), w2, chi, auv.left, auv.right)
        d = B.eq1(d, d.conclusion.first("ante", evv))
        d = _apply_axiom(d, step)
    return d


def can_prove(s: Term, t: Term) -> bool:
    if s == t:
        return True
    return (
        is_chain_closed(s) and is_chain_closed(t)
        and eval_term(s) == eval_term(t)
    )


def can_refute(s: Term, t: Term) -> bool:
    return (
        is_chain_closed(s) and is_chain_closed(t)
        and eval_term(s) != eval_term(t)
    )
