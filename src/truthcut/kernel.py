"""Derivation validation for the four rule systems.

Systems:

* ``lgt``       — restricted initial sequents (principal must be an atomic
                  T-free equation), top/bot axioms, truth rules, the
                  not/and/forall rules, and cut.
* ``qg``        — lgt minus top/bot and minus the truth rules, plus the
                  equality rules (eq1, eq2) and the geometric arithmetic
                  rules (qg1..qg7).
* ``lptn``      — qg plus the truth rules over numerals.
* ``lptn_comp`` — lptn plus the pointwise compositional truth rule.

Validation never raises on bad derivations: every problem becomes a
:class:`Violation` with a node path and a stable reason code.

The kernel walks a derivation once, in pre-order, on the children hook of
:func:`.deriv.fold`.  It numbers the nodes, keeps each node's parent and
premise index, and builds a node's path only for a violation it reports;
an eigenvariable's subtree is an interval of node numbers.  Occurrence-id
reuse is reported first, then the node checks in pre-order, then the pure
variable convention (outside ``lgt``).

Each node is checked in three steps: its rule against the system
(:data:`SYSTEM_RULES`), its wiring (:meth:`_Checker.check_wiring`), and its
shape against the rule's entry in :data:`.deriv.RULE_SHAPES` (premise count,
then the side of each principal, then the premise and side of each active),
where each rule's shape is stated once.  A logical rule's principal is then
checked against its class in :data:`.build.LOGICAL_RULES`, where each logical
rule's formula relation is stated once.  Only then does the rule's own
``rule_*`` method run, on the principal and active occurrences, and it checks
formulas alone: a logical rule's actives against the parts of its principal
(after its own preconditions), the leaf rules against
:data:`.build.LEAF_AXIOMS` and qg4..qg7 against :data:`.build.AXIOMS`, where
each axiom shape is stated once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import AXIOM_TERMS, AXIOMS, LEAF_AXIOMS, LOGICAL_RULES, comp_term
from .coding import DecodeError, code_label
from .deriv import RULE_SHAPES, SIDE_NAMES, Derivation, Occurrence, RuleShape, fold
from .syntax import (
    CaptureError,
    Eq,
    Suc,
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

SYSTEMS = ("lgt", "qg", "lptn", "lptn_comp")

_LOGICAL_CORE = (
    "init", "cut", "negl", "negr", "andl", "andr", "foralll", "forallr",
)
_GEOMETRIC = ("eq1", "eq2", "qg1", "qg2", "qg3", "qg4", "qg5", "qg6", "qg7")

SYSTEM_RULES: dict[str, tuple[str, ...]] = {
    "lgt": _LOGICAL_CORE + ("top", "bot", "Tl", "Tr"),
    "qg": _LOGICAL_CORE + _GEOMETRIC,
    "lptn": _LOGICAL_CORE + _GEOMETRIC + ("Tl", "Tr"),
    "lptn_comp": _LOGICAL_CORE + _GEOMETRIC + ("Tl", "Tr", "comp"),
}

# reason codes
UNKNOWN_RULE = "UNKNOWN_RULE"
RULE_NOT_IN_SYSTEM = "RULE_NOT_IN_SYSTEM"
MALFORMED_RULE = "MALFORMED_RULE"
REF_MINUS_T_PRINCIPAL = "REF_MINUS_T_PRINCIPAL"
PRINCIPAL_MISMATCH = "PRINCIPAL_MISMATCH"
LINEAGE_BROKEN = "LINEAGE_BROKEN"
OCC_ID_REUSE = "OCC_ID_REUSE"
EIGENVAR_CLASH = "EIGENVAR_CLASH"
PURE_VARIABLE_CLASH = "PURE_VARIABLE_CLASH"
NUMERAL_DECODE_MISMATCH = "NUMERAL_DECODE_MISMATCH"
NOT_A_SENTENCE = "NOT_A_SENTENCE"
WITNESS_MISMATCH = "WITNESS_MISMATCH"
TEMPLATE_MISMATCH = "TEMPLATE_MISMATCH"
COMP_TERM_MISMATCH = "COMP_TERM_MISMATCH"


@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    code: str
    message: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"[{self.code}] at {where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    system: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class _Checker:
    def __init__(self, system: str):
        self.system = system
        self.violations: list[Violation] = []
        #: OCC_ID_REUSE reports, which come before every other report
        self.reused: list[Violation] = []
        #: per node, numbered in pre-order (``at``): its parent's number and
        #: its premise index there
        self.up: list[tuple[int, int]] = []
        self.eigen_nodes: list[tuple[int, str]] = []
        #: node -> the free variables of its sequent, where there are any
        self.frees: dict[int, set[str]] = {}
        #: (node, the variables both free and bound in its sequent)
        self.clashes: list[tuple[int, set[str]]] = []

    def path(self, at: int) -> tuple[int, ...]:
        out = []
        while at:
            at, i = self.up[at]
            out.append(i)
        return tuple(reversed(out))

    def bad(self, at, code, message) -> None:
        self.violations.append(Violation(self.path(at), code, message))

    # -- plumbing ----------------------------------------------------------

    def walk(self, d: Derivation) -> None:
        """One pre-order walk on :func:`~.deriv.fold`'s children hook: each
        node is numbered, its occurrence ids are checked for reuse, its
        sequent's variables are recorded and the node itself is checked."""
        seen: set[int] = set()

        def visit(item):
            node, parent, pi = item
            at = len(self.up)
            self.up.append((parent, pi))
            frees: set[str] = set()
            bounds: set[str] = set()
            for o in node.conclusion.all_occurrences():
                if o.id in seen:
                    self.reused.append(Violation(self.path(at), OCC_ID_REUSE,
                                                 f"occurrence id {o.id} reused"))
                seen.add(o.id)
                frees |= free_vars(o.formula)
                bounds |= bound_vars(o.formula)
            if frees:
                self.frees[at] = frees
                if frees & bounds:
                    self.clashes.append((at, frees & bounds))
            self.check_node(at, node)
            return [(p, at, i) for i, p in enumerate(node.premises)]

        fold((d, 0, 0), lambda item, done: None, visit)

    def check_wiring(self, at, node: Derivation) -> bool:
        """Lineage/active bookkeeping: every premise occurrence is consumed
        exactly once; every conclusion occurrence is principal or descends
        from exactly one occurrence per premise; formulas pass through
        contexts unchanged.  Returns False, having reported why, if too
        broken to rule-check.

        Each premise's occurrences are indexed by id once, and a consumed
        one is popped from a copy of that index, so the copy ends up holding
        exactly the occurrences not carried into the conclusion.  One loop
        over the conclusion follows each context occurrence's parents,
        comparing their premise indices with 0, 1, ... as it goes and
        sorting them only if that fails.  An occurrence counts as in the
        antecedent when its id is there, also for a copy in the succedent
        that reuses the id."""
        start = len(self.violations)
        premises = node.premises
        n = len(premises)
        occ_of: list[dict[int, Occurrence]] = []
        ante_ids: list[set[int]] = []
        for p in premises:
            c = p.conclusion
            occ_of.append({o.id: o for o in c.ante + c.succ})
            ante_ids.append({o.id for o in c.ante})
        unconsumed = [m.copy() for m in occ_of]

        for pi, oid in node.actives:
            if not 0 <= pi < n or unconsumed[pi].pop(oid, None) is None:
                self.bad_reference(at, occ_of, pi, oid)

        principal = node.principal
        concl = node.conclusion
        if principal:
            principal = set(principal)
            concl_ids = {o.id for o in concl.all_occurrences()}
            for pid in principal:
                if pid not in concl_ids:
                    self.bad(at, LINEAGE_BROKEN,
                             f"principal id {pid} not in conclusion")
        lineage = node.lineage
        if not premises:
            if lineage:
                for o in concl.all_occurrences():
                    if o.id not in principal and lineage.get(o.id):
                        self.bad(at, LINEAGE_BROKEN, "leaf node has lineage")
            return len(self.violations) == start

        concl_ante = {o.id for o in concl.ante}
        for o in concl.all_occurrences():
            cid = o.id
            if cid in principal:
                continue
            parents = lineage.get(cid)
            if parents is None:
                self.bad(at, LINEAGE_BROKEN,
                         f"context occurrence {cid} has no lineage")
                continue
            mark = len(self.violations)
            in_order = len(parents) == n
            in_ante = cid in concl_ante
            k = 0
            for pi, oid in parents:
                if pi != k:
                    in_order = False
                k += 1
                parent = unconsumed[pi].pop(oid, None) if 0 <= pi < n else None
                if parent is None:
                    parent = self.bad_reference(at, occ_of, pi, oid)
                    if parent is None:
                        continue
                if parent.formula != o.formula:
                    self.bad(at, LINEAGE_BROKEN,
                             f"context occurrence {cid} changes formula")
                if (oid in ante_ids[pi]) != in_ante:
                    self.bad(at, LINEAGE_BROKEN,
                             f"context occurrence {cid} changes side")
            if not in_order and sorted(pi for pi, _ in parents) != list(range(n)):
                # reported before what the parents' own checks found
                self.violations.insert(mark, Violation(
                    self.path(at), LINEAGE_BROKEN,
                    f"occurrence {cid} must have one parent per premise"))
        for pi, rest in enumerate(unconsumed):
            if rest:
                self.bad(at, LINEAGE_BROKEN,
                         f"premise {pi} occurrences {sorted(rest)} not "
                         "carried into the conclusion")
        return len(self.violations) == start

    def bad_reference(self, at, occ_of, pi, oid) -> Occurrence | None:
        """Report a (premise, id) reference with no unconsumed occurrence
        behind it: a premise occurrence consumed twice, which is returned,
        or no premise occurrence at all."""
        if 0 <= pi < len(occ_of) and oid in occ_of[pi]:
            self.bad(at, LINEAGE_BROKEN,
                     f"premise occurrence {oid} consumed twice")
            return occ_of[pi][oid]
        self.bad(at, LINEAGE_BROKEN,
                 f"reference ({pi},{oid}) is not a premise occurrence")
        return None

    # -- the shape check, then the per-rule formula conditions -------------

    def check_node(self, at, node: Derivation) -> None:
        rule = node.rule
        if rule not in SYSTEM_RULES.get(self.system, ()):
            known = any(rule in rules for rules in SYSTEM_RULES.values())
            self.bad(at, RULE_NOT_IN_SYSTEM if known else UNKNOWN_RULE,
                     f"rule {rule!r} is not part of system {self.system}")
            return
        if not self.check_wiring(at, node):
            return
        occs = self.check_shape(at, node, RULE_SHAPES[rule])
        if occs is None:
            return
        ps, acts = occs
        logical = LOGICAL_RULES.get(rule)
        if logical and not isinstance(ps[0].formula, logical.principal):
            code, message = logical.malformed
            self.bad(at, code, message.format(p=ps[0].formula))
            return
        getattr(self, f"rule_{rule}")(at, node, ps, acts)

    def check_shape(self, at, node, shape: RuleShape):
        """``node`` against its rule's shape: premise count, then the side of
        each principal, then the premise and side of each active.  Returns
        (principal occurrences, active occurrences), or None once one is
        wrong.  Wiring is checked, so every id is found."""
        rule = node.rule
        if len(node.premises) != shape.premises:
            self.bad(at, MALFORMED_RULE, f"{rule} takes {shape.premises} "
                     f"premise(s), got {len(node.premises)}")
            return None
        n = len(shape.principals)
        if len(node.principal) != n:
            self.bad(at, MALFORMED_RULE,
                     f"{rule} needs {n} principal occurrence(s), got "
                     f"{len(node.principal)}" if n else
                     f"{rule} has no principal formula")
            return None
        ps = []
        for pid, want in zip(node.principal, shape.principals):
            side, _, o = node.conclusion.find(pid)
            if side != want:
                self.bad(at, MALFORMED_RULE,
                         f"{rule} principal must be in the {SIDE_NAMES[want]}")
                return None
            ps.append(o)
        if len(node.actives) != len(shape.actives):
            self.bad(at, MALFORMED_RULE,
                     f"{rule} needs {len(shape.actives)} active occurrence(s), "
                     f"got {len(node.actives)}")
            return None
        acts = []
        for (want_pi, want), (pi, oid) in zip(shape.actives, node.actives):
            if pi != want_pi:
                self.bad(at, MALFORMED_RULE,
                         f"{rule} active in wrong premise ({pi})")
                return None
            side, _, o = node.premises[pi].conclusion.find(oid)
            if side != want:
                self.bad(at, MALFORMED_RULE,
                         f"{rule} active on wrong side ({side})")
                return None
            acts.append(o)
        return ps, acts

    def rule_init(self, at, node, ps, acts) -> None:
        left, right = ps
        if left.formula != right.formula:
            self.bad(at, PRINCIPAL_MISMATCH,
                     "initial sequent principal formulas differ")
            return
        if not LEAF_AXIOMS["init"](left.formula):
            self.bad(at, REF_MINUS_T_PRINCIPAL,
                     "initial sequent principal must be an atomic T-free "
                     f"equation, got {left.formula!r}")

    def _constant_axiom(self, at, node, ps, acts) -> None:
        if not LEAF_AXIOMS[node.rule](ps[0].formula):
            side = SIDE_NAMES[RULE_SHAPES[node.rule].principals[0]]
            self.bad(at, MALFORMED_RULE, f"{node.rule} axiom principal must "
                     f"be {node.rule} in the {side}")

    rule_top = rule_bot = _constant_axiom

    def rule_cut(self, at, node, ps, acts) -> None:
        if acts[0].formula != acts[1].formula:
            self.bad(at, PRINCIPAL_MISMATCH, "cut formulas differ")

    def _parts_fit(self, at, node, ps, acts, instance=None, **fields) -> bool:
        """Whether the actives are the principal's parts, for a universal's
        ``instance``; if not, the first that is not is reported."""
        p, rule = ps[0].formula, LOGICAL_RULES[node.rule]
        for a, want, (code, message) in zip(acts, rule.parts(p, instance),
                                            rule.mismatch):
            if a.formula != want:
                self.bad(at, code, message.format(p=p, a=a.formula, want=want,
                                                  **fields))
                return False
        return True

    rule_negl = rule_negr = rule_andl = rule_andr = _parts_fit

    def _truth_rule(self, at, node, ps, acts) -> None:
        if not is_sentence(acts[0].formula):
            self.bad(at, NOT_A_SENTENCE,
                     f"truth rule disquotes a non-sentence: {acts[0].formula!r}")
            return
        n = numeral_value(ps[0].formula.term)  # its code names the mismatch
        try:
            self._parts_fit(at, node, ps, acts,
                            label=None if n is None else code_label(n))
        except DecodeError as e:
            self.bad(at, NUMERAL_DECODE_MISMATCH, str(e))

    rule_Tl = rule_Tr = _truth_rule

    def rule_comp(self, at, node, ps, acts) -> None:
        p = ps[0]
        if not isinstance(p.formula, Tr):
            self.bad(at, MALFORMED_RULE,
                     "compositional principal must be a T atom in the succedent")
            return
        for a in acts:
            if not is_sentence(a.formula):
                self.bad(at, NOT_A_SENTENCE,
                         f"compositional rule combines a non-sentence: {a.formula!r}")
                return
        want = comp_term(acts[0].formula, acts[1].formula)
        if p.formula.term != want:
            self.bad(at, COMP_TERM_MISMATCH,
                     f"compositional term must be {want!r}, got {p.formula.term!r}")

    def rule_foralll(self, at, node, ps, acts) -> None:
        if node.term is None:
            self.bad(at, WITNESS_MISMATCH, "forall-left is missing its witness term")
            return
        try:
            self._parts_fit(at, node, ps, acts, node.term)
        except CaptureError as e:
            self.bad(at, WITNESS_MISMATCH, f"witness capture: {e}")

    def rule_forallr(self, at, node, ps, acts) -> None:
        y = node.var
        if y is None:
            self.bad(at, EIGENVAR_CLASH, "forall-right is missing its eigenvariable")
            return
        try:
            if not self._parts_fit(at, node, ps, acts, Var(y)):
                return
        except CaptureError as e:
            self.bad(at, EIGENVAR_CLASH, f"eigenvariable capture: {e}")
            return
        self._bind(at, y, "eigenvariable")

    def _bind(self, at, y, name) -> None:
        """Record ``y`` as node ``at``'s eigenvariable, unless it is free in
        the node's conclusion, which is reported instead."""
        if y in self.frees.get(at, ()):
            self.bad(at, EIGENVAR_CLASH, f"{name} {y} occurs free in the conclusion")
        else:
            self.eigen_nodes.append((at, y))

    # geometric rules ------------------------------------------------------

    def rule_eq1(self, at, node, ps, acts) -> None:
        f = acts[0].formula
        if not (isinstance(f, Eq) and f.left == f.right):
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"eq1 discharges a reflexive equation, got {f!r}")

    def rule_eq2(self, at, node, ps, acts) -> None:
        if node.template is None or node.term is None or node.term2 is None:
            self.bad(at, TEMPLATE_MISMATCH,
                     "eq2 needs a replacement template and both equation sides")
            return
        v, chi = node.template
        s, t = node.term, node.term2
        if not is_base_atom(chi):
            self.bad(at, TEMPLATE_MISMATCH,
                     f"eq2 template must be an atomic T-free equation, got {chi!r}")
            return
        want_discharged = substitute(chi, v, s)
        if acts[0].formula != want_discharged:
            self.bad(at, TEMPLATE_MISMATCH,
                     f"eq2 discharges {acts[0].formula!r}, expected {want_discharged!r}")
            return
        ante = node.conclusion.ante_formulas()
        if Eq(s, t) not in ante:
            self.bad(at, TEMPLATE_MISMATCH,
                     f"eq2 requires the equation {Eq(s, t)!r} in the antecedent")
            return
        if substitute(chi, v, t) not in ante:
            self.bad(at, TEMPLATE_MISMATCH,
                     "eq2 requires the replaced instance in the antecedent")

    def rule_qg1(self, at, node, ps, acts) -> None:
        f = ps[0].formula
        if not LEAF_AXIOMS["qg1"](f):
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"qg1 axiom needs S(t)=0 in the antecedent, got {f!r}")

    def rule_qg2(self, at, node, ps, acts) -> None:
        f = acts[0].formula
        if not isinstance(f, Eq):
            self.bad(at, PRINCIPAL_MISMATCH, "qg2 discharges an equation")
            return
        succ_eq = Eq(Suc(f.left), Suc(f.right))
        if succ_eq not in node.conclusion.ante_formulas():
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"qg2 requires {succ_eq!r} in the conclusion antecedent")

    def rule_qg3(self, at, node, ps, acts) -> None:
        x, y = node.term, node.var
        if x is None or y is None:
            self.bad(at, MALFORMED_RULE,
                     "qg3 needs its case term and eigenvariable")
            return
        f0, f1 = acts[0].formula, acts[1].formula
        if not (isinstance(f0, Eq) and f0.left == x and is_zero(f0.right)):
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"qg3 zero-case active must be {x!r}=0, got {f0!r}")
            return
        if f1 != Eq(Var(y), Suc(x)):
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"qg3 successor-case active must be {y}=S({x!r}), got {f1!r}")
            return
        if y in free_vars(f0):
            self.bad(at, EIGENVAR_CLASH,
                     f"qg3 eigenvariable {y} occurs in the zero case")
            return
        self._bind(at, y, "qg3 eigenvariable")

    def _axiom_discharge(self, at, node, ps, acts) -> None:
        """qg4..qg7: the one antecedent active is the rule's axiom
        (:data:`.build.AXIOMS`) instantiated with the node's terms."""
        nargs = len(AXIOM_TERMS[node.rule])
        args = (node.term, node.term2)[:nargs]
        if any(a is None for a in args):
            self.bad(at, MALFORMED_RULE,
                     f"{node.rule} needs {nargs} instantiating term(s)")
            return
        want = AXIOMS[node.rule](*args)
        if acts[0].formula != want:
            self.bad(at, PRINCIPAL_MISMATCH,
                     f"{node.rule} discharges {acts[0].formula!r}, "
                     f"expected {want!r}")

    rule_qg4 = rule_qg5 = rule_qg6 = rule_qg7 = _axiom_discharge

    # global conventions ---------------------------------------------------

    def check_pure_variables(self) -> None:
        """Pure variable convention: eigenvariables are pairwise distinct and
        confined to the subtree above their node, and no variable occurs both
        free and bound in one sequent.  Node ``at``'s subtree is the nodes
        numbered from ``at`` up to ``end[at]``."""
        end = list(range(1, len(self.up) + 1))
        for at in range(len(end) - 1, 0, -1):
            p = self.up[at][0]
            end[p] = max(end[p], end[at])
        seen: dict[str, int] = {}
        for at, y in self.eigen_nodes:
            if y in seen:
                self.bad(at, PURE_VARIABLE_CLASH,
                         f"eigenvariable {y} reused (also at node "
                         f"{'/'.join(map(str, self.path(seen[y]))) or 'root'})")
            else:
                seen[y] = at
        for at, y in self.eigen_nodes:
            for other, frees in self.frees.items():
                if y in frees and not at <= other < end[at]:
                    where = "/".join(map(str, self.path(other))) or "root"
                    self.bad(at, PURE_VARIABLE_CLASH,
                             f"eigenvariable {y} occurs outside its subtree "
                             f"(node {where})")
                    break
        for at, clash in self.clashes:
            self.bad(at, PURE_VARIABLE_CLASH,
                     f"variable(s) {sorted(clash)} occur both free and "
                     "bound in one sequent")


def check_derivation(d: Derivation, system: str) -> ValidationReport:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    ck = _Checker(system)
    ck.walk(d)
    if system != "lgt":
        ck.check_pure_variables()
    return ValidationReport(system, tuple(ck.reused + ck.violations))
