"""Line-oriented proof scripts.

One node per line, premises before use, exactly one root:

    <id>: <rule> [<premise-ids>] <antecedent> => <succedent>

with the prefix formula grammar of the syntax module.  Only rule tags and
sequents are written; occurrence wiring and rule instantiation data (cut
formulas, universal witnesses, eigenvariables, replacement templates) are
re-inferred from the sequent differences when a script is loaded, and the
kernel re-validates the result, so scripts cannot smuggle in bad wiring.
"""

from __future__ import annotations

import re
from functools import reduce

from . import build as B
from .deriv import (
    RULE_SHAPES,
    SIDE_NAMES,
    Derivation,
    Occurrence,
    Sequent,
    fold,
    fresh_id,
    minus,
    remake,
    same_multiset,
)
from .sexpr import ParseError, format_formula, format_sequent, parse_sequent
from .syntax import (
    SIGNATURE,
    And,
    Eq,
    Forall,
    Formula,
    Plus,
    Suc,
    Term,
    Times,
    Var,
    children,
    free_vars,
    rebuild,
)


class ScriptError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


_LINE = re.compile(r"^\s*(\d+)\s*:\s*([A-Za-z0-9_]+)\s*\[([^\]]*)\]\s*(.*)$")


# ---------------------------------------------------------------------------
# Printing


def print_script(d: Derivation) -> str:
    """Nodes in post-order, numbered from 1.  Each distinct formula is
    formatted once per call."""
    lines: list[str] = []
    texts: dict[Formula, str] = {}

    def fmt(f: Formula) -> str:
        s = texts.get(f)
        if s is None:
            s = texts[f] = format_formula(f)
        return s

    def step(node: Derivation, pids: list[int]) -> int:
        seq = format_sequent(
            node.conclusion.ante_formulas(), node.conclusion.succ_formulas(), fmt
        )
        lines.append(
            f"{len(lines) + 1}: {node.rule} [{', '.join(map(str, pids))}] {seq}"
        )
        return len(lines)

    fold(d, step)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pattern matching (for witness / eigenvariable / template inference)


def _match(pattern, var: str, inst, binding) -> bool:
    """Whether ``inst`` is ``pattern`` with one term, kept in ``binding``,
    for the free occurrences of the variable ``var``."""
    cls = type(pattern)
    if cls is Var and pattern.name == var:
        if binding["t"] is None:
            binding["t"] = inst
            return True
        return binding["t"] == inst
    if cls is not type(inst):
        return False
    datum = SIGNATURE[cls].datum
    if datum is not None and getattr(pattern, datum) != getattr(inst, datum):
        return False
    if cls is Forall and pattern.var == var:
        return pattern.body == inst.body
    for a, b in zip(children(pattern), children(inst)):
        if not _match(a, var, b, binding):
            return False
    return True


def _infer_instance(quantified: Forall, inst: Formula) -> Term | None:
    """Term t with inst == quantified.body[var := t], if one exists."""
    binding = {"t": None}
    if _match(quantified.body, quantified.var, inst, binding):
        return binding["t"] if binding["t"] is not None else Var(quantified.var)
    return None


#: what template inference descends through, with the child fields of
#: each: the equation, then S, + and x; never a syntax function, since
#: the templates scripts infer depend on it
_THROUGH = {cls: SIGNATURE[cls].kids for cls in (Eq, Suc, Plus, Times)}


def _generalize(d, k, s: Term, t: Term, var: str):
    """``d`` with ``var`` at the positions, reached through :data:`_THROUGH`,
    where ``d`` holds ``s`` and ``k`` holds ``t``, if ``d`` and ``k`` agree
    everywhere else; else None."""
    if d == k:
        return d
    if d == s and k == t:
        return Var(var)
    if type(d) is not type(k) or type(d) not in _THROUGH:
        return None
    kids = []
    for f in _THROUGH[type(d)]:
        c = _generalize(getattr(d, f), getattr(k, f), s, t, var)
        if c is None:
            return None
        kids.append(c)
    return rebuild(d, kids)


def _reach(eq: Eq) -> set:
    """Each subexpression ``_generalize`` can reach in ``eq``."""
    seen = set()
    stack = [eq]
    while stack:
        e = stack.pop()
        seen.add(e)
        for f in _THROUGH.get(type(e), ()):
            stack.append(getattr(e, f))
    return seen


def _eq2_template(d: Eq, ante):
    """(template, trigger) of the first (trigger, kept) pair, in ante × ante
    order, whose generalization of ``d`` against ``kept`` mentions ``w_``.

    Unless ``w_`` is already free in ``d``, the template can mention it only
    where ``d`` holds the trigger's left side, so only the triggers whose
    left side ``d`` holds are tried."""
    eqs = [f for f in ante if isinstance(f, Eq)]
    reach = None if "w_" in free_vars(d) else _reach(d)
    for trig in eqs:
        if trig.left == trig.right or (
                reach is not None and trig.left not in reach):
            continue
        for kept in eqs:
            chi = _generalize(d, kept, trig.left, trig.right, "w_")
            if chi is not None and "w_" in free_vars(chi):
                return chi, trig
    return None


# ---------------------------------------------------------------------------
# Node reconstruction


#: leaf rule -> the refusal when no formula of the line fits its axiom
_NO_LEAF = {
    "init": "no formula shared between the two sides",
    "top": "needs top in the succedent",
    "bot": "needs bot in the antecedent",
    "qg1": "needs S(t)=0 in the antecedent",
}

#: one-premise rule with one active -> its builder from that active's id,
#: for the rules that need nothing else
_ONE_ACTIVE = {
    "Tl": B.truth_left, "Tr": B.truth_right, "negl": B.neg_left,
    "negr": B.neg_right, "eq1": B.eq1, "qg2": B.qg2,
}


def _rebuild(rule: str, premises, ante, succ, line: int) -> Derivation:
    def err(msg):
        raise ScriptError(f"{rule}: {msg}", line)

    shape = RULE_SHAPES.get(rule)
    if shape is None:
        raise ScriptError(f"unknown rule tag {rule!r}", line)
    if len(premises) != shape.premises:
        err(("needs no premises", "needs exactly one premise",
             "needs exactly two premises")[shape.premises])

    if not shape.premises:
        hit = B.leaf_principal(rule, ante, succ)
        if hit is None and rule == "init":
            # any shared formula, so that the kernel names the restriction
            hit = B.leaf_principal(rule, ante, succ, admits=lambda f: True)
        if hit is None:
            err(_NO_LEAF[rule])
        return B.leaf(rule, *hit)

    if shape.premises == 1:
        p = premises[0]
        ra = minus(p.conclusion.ante_formulas(), ante)
        rs = minus(p.conclusion.succ_formulas(), succ)

        if len(shape.actives) == 1:
            [(_, side)] = shape.actives
            gone, other = (ra, rs) if side == "ante" else (rs, ra)
            if len(gone) != 1 or other:
                err(f"moves exactly one formula from the {SIDE_NAMES[side]}"
                    if shape.principals and shape.principals[0] != side else
                    f"discharges exactly one {SIDE_NAMES[side]} formula")
            [f] = gone
            aid = p.conclusion.first(side, f)
            if rule in _ONE_ACTIVE:
                return _ONE_ACTIVE[rule](p, aid)
            if rule == "forallr":
                p_succ = p.conclusion.succ_formulas()
                for g in succ:
                    if isinstance(g, Forall) and succ.count(g) > p_succ.count(g):
                        t = _infer_instance(g, f)
                        if isinstance(t, Var):
                            return B.forall_right(p, aid, g, t.name)
                err("no quantified succedent formula matches the instance")
            if rule == "eq2":
                if not isinstance(f, Eq):
                    err("discharged formula must be an equation")
                hit = _eq2_template(f, ante)
                if hit is None:
                    err("no trigger equation and kept instance fit the discharge")
                chi, trig = hit
                return B.eq2(p, aid, "w_", chi, trig.left, trig.right)
            if rule in B.AXIOMS:
                try:
                    terms = [reduce(getattr, path, f) for path in B.AXIOM_TERMS[rule]]
                except AttributeError:
                    err("discharged formula does not instantiate the axiom")
                return B.discharge_axiom(rule, p, aid, *terms)
        if rule == "andl":
            if len(ra) != 2 or rs:
                err("discharges exactly two antecedent formulas")
            for g in ante:
                if isinstance(g, And) and same_multiset(ra, [g.left, g.right]):
                    i0 = p.conclusion.first("ante", g.left)
                    i1 = p.conclusion.first("ante", g.right, (i0,))
                    if i0 is not None and i1 is not None:
                        return B.and_left(p, i0, i1)
            err("no conjunction in the antecedent matches the discharge")
        if rule == "foralll":
            if len(ra) != 1 or rs:
                err("adds exactly one instance in the premise")
            inst = ra[0]
            for g in ante:
                if isinstance(g, Forall):
                    t = _infer_instance(g, inst)
                    if t is not None:
                        kept = p.conclusion.first("ante", g)
                        iid = p.conclusion.first("ante", inst, (kept,))
                        if kept is not None and iid is not None:
                            return B.forall_left(p, kept, iid, t)
            err("no quantified antecedent formula matches the instance")

    p0, p1 = premises
    if rule == "andr":
        for g in succ:
            if isinstance(g, And):
                i0 = p0.conclusion.first("succ", g.left)
                i1 = p1.conclusion.first("succ", g.right)
                if i0 is not None and i1 is not None:
                    return B.and_right(p0, i0, p1, i1)
        err("no conjunction in the succedent matches the premises")
    if rule == "cut":
        rs = minus(p0.conclusion.succ_formulas(), succ)
        if len(rs) != 1:
            err("cannot identify the cut formula")
        f = rs[0]
        i0 = p0.conclusion.first("succ", f)
        i1 = p1.conclusion.first("ante", f)
        if i1 is None:
            err("cut formula missing from the right premise")
        return B.cut(p0, i0, p1, i1)
    if rule == "comp":
        rs0 = minus(p0.conclusion.succ_formulas(), succ)
        rs1 = minus(p1.conclusion.succ_formulas(), succ)
        if len(rs0) != 1 or len(rs1) != 1:
            err("each premise discharges one succedent sentence")
        return B.comp_node(p0, p0.conclusion.first("succ", rs0[0]),
                           p1, p1.conclusion.first("succ", rs1[0]))
    if rule == "qg3":
        ra0 = minus(p0.conclusion.ante_formulas(), ante)
        ra1 = minus(p1.conclusion.ante_formulas(), ante)
        if len(ra0) != 1 or len(ra1) != 1:
            err("each premise discharges one case equation")
        f0, f1 = ra0[0], ra1[0]
        try:
            x = f0.left
            y = f1.left.name
        except AttributeError:
            err("case equations are malformed")
        return B.qg3(p0, p0.conclusion.first("ante", f0),
                     p1, p1.conclusion.first("ante", f1), x, y)


def _force_side(concl: Sequent, side: str, stated) -> tuple:
    """Pair the stated formulas of one side with the built occurrences.

    Exact formula matches keep their occurrence's id; leftover stated
    formulas are paired positionally with leftover built occurrences (keeping
    the built occurrence id so rule wiring survives), and any remainder gets
    fresh, lineage-less occurrences.  The kernel then reports the
    discrepancy."""
    ids: list = []
    for f in stated:
        ids.append(concl.first(side, f, ids))
    spare = [o.id for o in getattr(concl, side) if o.id not in ids][::-1]
    return tuple(
        Occurrence(f, i if i is not None else spare.pop() if spare else fresh_id())
        for f, i in zip(stated, ids)
    )


def _force_conclusion(node: Derivation, ante, succ) -> Derivation:
    """Replace the built conclusion with the script's stated sequent."""
    new_ante = _force_side(node.conclusion, "ante", ante)
    new_succ = _force_side(node.conclusion, "succ", succ)
    surviving = {o.id for o in new_ante + new_succ}
    return remake(
        node,
        conclusion=Sequent(new_ante, new_succ),
        principal=tuple(i for i in node.principal if i in surviving),
        lineage={i: ps for i, ps in node.lineage.items() if i in surviving},
    )


# ---------------------------------------------------------------------------
# Parsing


def _read_id(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        if len(text) > 40:
            raise ScriptError(f"{what} of {len(text)} digits is too long", line) from None
        raise ScriptError(f"bad {what} {text!r}", line) from None


def parse_script(text: str) -> Derivation:
    """The root of the script's derivation.

    Lines restate their premises' contexts, so one memo, kept for this call
    only, reads each distinct formula text once: it saves reading, since
    equal formulas are one object whatever text they were read from."""
    nodes: dict[int, Derivation] = {}
    used: set[int] = set()
    order: list[int] = []
    memo: dict[str, Formula] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ScriptError(f"malformed line: {raw!r}", lineno)
        nid = _read_id(m.group(1), "node id", lineno)
        rule = m.group(2)
        pid_text = m.group(3).strip()
        pids = []
        if pid_text:
            for part in re.split(r"[,\s]+", pid_text):
                if part:
                    if not part.isdigit():
                        raise ScriptError(
                            f"bad premise id {part!r}", lineno
                        )
                    pids.append(_read_id(part, "premise id", lineno))
        if nid in nodes:
            raise ScriptError(f"duplicate node id {nid}", lineno)
        for pid in pids:
            if pid not in nodes:
                raise ScriptError(
                    f"premise {pid} not defined before use", lineno
                )
            if pid in used:
                raise ScriptError(f"premise {pid} used twice", lineno)
        try:
            ante, succ = parse_sequent(m.group(4), memo)
        except ParseError as e:
            raise ScriptError(str(e), lineno) from e
        premises = [nodes[pid] for pid in pids]
        try:
            node = _rebuild(rule, premises, ante, succ, lineno)
        except B.BuildError as e:
            raise ScriptError(f"{rule}: {e}", lineno) from e
        if not (
            same_multiset(node.conclusion.ante_formulas(), ante)
            and same_multiset(node.conclusion.succ_formulas(), succ)
        ):
            # the stated conclusion disagrees with the rule's actual output;
            # keep the stated sequent so the kernel can report the violation
            node = _force_conclusion(node, ante, succ)
        nodes[nid] = node
        used.update(pids)
        order.append(nid)
    roots = [nid for nid in order if nid not in used]
    if len(roots) != 1:
        raise ScriptError(
            f"script must have exactly one root, found {len(roots)}"
        )
    return nodes[roots[0]]


# ---------------------------------------------------------------------------
# Structural fingerprint (round-trip comparison ignores occurrence ids)


def fingerprint(d: Derivation) -> tuple:
    """Per node in post-order: rule, number of premises and the sorted
    formula texts of each side.  A flat tuple, so comparing two of them
    needs no recursion."""
    out: list[tuple] = []

    def step(node: Derivation, _) -> None:
        out.append((
            node.rule,
            len(node.premises),
            tuple(sorted(map(format_formula, node.conclusion.ante_formulas()))),
            tuple(sorted(map(format_formula, node.conclusion.succ_formulas()))),
        ))

    fold(d, step)
    return tuple(out)
