"""Reference answers that do not come from the code under test.

Workload generators describe every sentence they make as a small tuple tree
and keep it beside the truthcut object built from it.  This module evaluates
those trees directly, so a verdict here never goes through truthcut's coding,
kernel or semantics.

Terms:    ("0",) | ("S", t) | ("+", t, u) | ("*", t, u) | ("var", name)
Formulas: ("=", t, u) | ("not", f) | ("and", f, g) | ("T", f)
          | ("forall", name, f) | ("liar",) | ("teller",)

``("T", f)`` is the truth ascription to the quoted sentence ``f``.  The liar
and the truth-teller are ungrounded: ``holds`` returns None for them and for
anything whose value depends on them.
"""

from __future__ import annotations

from collections import Counter

UNGROUNDED = ("liar", "teller")


def value(t, env=None) -> int:
    tag = t[0]
    if tag == "0":
        return 0
    if tag == "S":
        return value(t[1], env) + 1
    if tag == "+":
        return value(t[1], env) + value(t[2], env)
    if tag == "*":
        return value(t[1], env) * value(t[2], env)
    if tag == "var":
        return env[t[1]]
    raise ValueError(f"not a term tree: {t!r}")


def holds(f, bound: int = 0, env=None):
    """Truth of a closed formula tree; None when it is ungrounded.

    A universal sentence is read over the instances 0..bound, the finite
    range the fixed-point semantics decides it on."""
    tag = f[0]
    if tag == "=":
        return value(f[1], env) == value(f[2], env)
    if tag == "not":
        inner = holds(f[1], bound, env)
        return None if inner is None else not inner
    if tag == "and":
        left, right = holds(f[1], bound, env), holds(f[2], bound, env)
        if left is False or right is False:
            return False
        return None if left is None or right is None else True
    if tag == "T":
        return holds(f[1], bound, env)
    if tag == "forall":
        outs = [holds(f[2], bound, {**(env or {}), f[1]: k})
                for k in range(bound + 1)]
        if False in outs:
            return False
        return None if None in outs else True
    if tag in UNGROUNDED:
        return None
    raise ValueError(f"not a formula tree: {f!r}")


def chain(k: int):
    t = ("0",)
    for _ in range(k):
        t = ("S", t)
    return t


def script_length(text: str) -> int:
    """Height of the proof tree a script describes (a leaf has height 0),
    read from the premise lists alone (``<id>: <rule> [<premise ids>] ...``)."""
    height: dict[int, int] = {}
    last = None
    for line in text.splitlines():
        line = line.split(";", 1)[0].strip()
        if not line:
            continue
        head, rest = line.split(":", 1)
        premises = rest[rest.index("[") + 1:rest.index("]")]
        ids = [int(p) for p in premises.split(",") if p.strip()]
        last = int(head)
        height[last] = 1 + max(height[i] for i in ids) if ids else 0
    return height[last]


def tree_facts(d):
    """(node count, whether any node is a cut) by an explicit-stack walk."""
    nodes, has_cut, stack = 0, False, [d]
    while stack:
        node = stack.pop()
        nodes += 1
        has_cut = has_cut or node.rule == "cut"
        stack.extend(node.premises)
    return nodes, has_cut


def proves(d, ante, succ) -> bool:
    """Whether d's end sequent has exactly the antecedent and succedent
    multisets ``ante`` and ``succ``."""
    return (
        Counter(o.formula for o in d.conclusion.ante) == Counter(ante)
        and Counter(o.formula for o in d.conclusion.succ) == Counter(succ)
    )
