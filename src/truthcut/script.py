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
    CaptureError,
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

#: one-premise geometric rule with one active -> its builder from that
#: active's id, for the rules that need nothing else
_ONE_ACTIVE = {"eq1": B.eq1, "qg2": B.qg2}

#: one-premise rule with two actives -> the refusal of a line that does
#: not drop them from the premise
_MISFIT = {
    "andl": "discharges exactly two antecedent formulas",
    "foralll": "adds exactly one instance in the premise",
}

#: logical rule whose line states its principal -> the refusal when no
#: formula of the line is one
_UNMATCHED = {
    "andl": "no conjunction in the antecedent matches the discharge",
    "andr": "no conjunction in the succedent matches the premises",
    "foralll": "no quantified antecedent formula matches the instance",
    "forallr": "no quantified succedent formula matches the instance",
}


def _logical(rule: str, premises, stated, gone, err) -> Derivation:
    """The node of the logical ``rule`` (:data:`.build.LOGICAL_RULES`) over
    ``premises`` for a line stating ``stated`` (side -> formulas); over one
    premise, ``gone`` are the formulas the line drops from it.

    A rule with one active makes its principal from the dropped formula, so
    the line need not state it (where it states another, the kernel names
    the mismatch).  Otherwise the principal is the first formula on its side
    of the line that is of the rule's class and whose parts the premises
    hold (:func:`.build.logical`), a universal's term or eigenvariable
    inferred from the dropped instance.  Over one premise, the parts but a
    principal the premise keeps must be the dropped formulas, and a
    universal, which its instance does not make, must be new in the line."""
    entry, shape = B.LOGICAL_RULES[rule], RULE_SHAPES[rule]
    if entry.make is not None and len(shape.actives) == 1:
        return B.logical(rule, premises, gone)
    [side] = shape.principals
    for g in stated[side]:
        if not isinstance(g, entry.principal):
            continue
        t = None
        if entry.principal is Forall:
            t = _infer_instance(g, gone[-1])
            if t is None or (shape.binds is not None and not isinstance(t, Var)):
                continue
        try:
            parts = entry.parts(g, t)
        except CaptureError:  # the kernel names the capture
            parts = (g,) * entry.keeps + tuple(gone)
        if gone is not None and not same_multiset(gone, parts[entry.keeps:]) or (
                entry.make is None and stated[side].count(g) <= sum(
                    o.formula == g for o in getattr(premises[0].conclusion, side))):
            continue
        node = B.logical(rule, premises, parts, g, t)
        if node is not None:
            return node
    err(_UNMATCHED[rule])


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

    stated = {"ante": ante, "succ": succ}
    logical = B.LOGICAL_RULES.get(rule)
    if shape.premises == 1:
        p = premises[0]
        # every active is on one side; the line drops one formula there per
        # active but a principal the premise keeps, and none elsewhere
        [side] = {s for _, s in shape.actives}
        gone = {s: minus([o.formula for o in getattr(p.conclusion, s)], fs)
                for s, fs in stated.items()}
        if (len(gone[side]) != len(shape.actives) - bool(logical and logical.keeps)
                or any(fs for s, fs in gone.items() if s != side)):
            err(_MISFIT.get(rule) or (
                f"moves exactly one formula from the {SIDE_NAMES[side]}"
                if shape.principals and shape.principals[0] != side else
                f"discharges exactly one {SIDE_NAMES[side]} formula"))
        gone = gone[side]
        if logical:
            return _logical(rule, premises, stated, gone, err)
        [f] = gone
        aid = p.conclusion.first(side, f)
        if rule in _ONE_ACTIVE:
            return _ONE_ACTIVE[rule](p, aid)
        if rule == "eq2":
            if not isinstance(f, Eq):
                err("discharged formula must be an equation")
            hit = _eq2_template(f, ante)
            if hit is None:
                err("no trigger equation and kept instance fit the discharge")
            chi, trig = hit
            return B.eq2(p, aid, "w_", chi, trig.left, trig.right)
        try:
            terms = [reduce(getattr, path, f) for path in B.AXIOM_TERMS[rule]]
        except AttributeError:
            err("discharged formula does not instantiate the axiom")
        return B.discharge_axiom(rule, p, aid, *terms)

    if logical:
        return _logical(rule, premises, stated, None, err)
    p0, p1 = premises
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

    Lines restate their premises' contexts, so each sequent is read through
    one memo for the whole script and :func:`~.sexpr.parse_sequent`'s
    per-process formula-text cache: a formula text is read once, not once
    per line, nor once per script when one process reads several that share
    it.  The cache keeps recently read formulas alive, up to its bound on
    their text; what is returned or raised depends on neither."""
    memo: dict = {}
    nodes: dict[int, Derivation] = {}
    used: set[int] = set()
    order: list[int] = []
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
