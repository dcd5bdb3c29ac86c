"""Sequents as multisets of tracked formula occurrences, derivation trees,
and the measure triple (length, cut rank, proof T-complexity).

Every occurrence carries an id that is unique within its derivation; two
occurrences of the same formula are distinct objects.  Each node's conclusion
has its own occurrences; the ``lineage`` map links every non-principal
conclusion occurrence to the corresponding occurrence(s) in the premises.
The T-complexity of an occurrence is computed from this lineage structure:
a principal takes the maximum over its rule's actives plus the rule's
``unquotes`` (one for the truth rules and ``comp``), and a context
occurrence the maximum over its parents.

Each rule's shape (premise count, principal sides, active premises and
sides, the truth-rule steps it adds to T-complexity, and the premise above
which it binds an eigenvariable) is stated once, in :data:`RULE_SHAPES`,
which the kernel, the builders, the script reader, the measures and the
transforms read.  It lives here because every one of them imports this
module and this module imports none of them.  Which formulas a logical
rule's actives hold is its formula relation, stated once beside the
builders, in :data:`.build.LOGICAL_RULES`; the actives' premises and sides
stay here.

Every walk over a derivation goes through one explicit-stack traversal, so
no derivation is too tall to walk: :func:`fold` is the post-order walk (the
measures, :func:`refresh_ids`, script printing and the transform rebuilds)
and :meth:`Derivation.iter_nodes` the pre-order one (searches over nodes;
:meth:`Derivation.iter_paths` adds each node's path, for output that
prints it).
Given a children function, :func:`fold` also walks the ancestry of chosen
occurrences, for the transforms that follow them up the tree (see
:mod:`.transform`); that function sees every item in pre-order, which is
how the kernel walks a derivation once.

Formulas are matched first-fit, in one place each: :meth:`Sequent.first`
finds the first occurrence of a formula on one side, and :func:`minus` is
the multiset difference of two formula lists, on which
:func:`same_multiset` is stated.  The script reader, search and the
arithmetic macros build every rule with them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, TypeVar

from .syntax import Formula, Term, is_base_formula, logical_complexity


_ids = itertools.count(1)


def fresh_id() -> int:
    return next(_ids)


@dataclass(frozen=True, slots=True)
class Occurrence:
    formula: Formula
    id: int


def occ(phi: Formula) -> Occurrence:
    return Occurrence(phi, fresh_id())


def copy_occ(o: Occurrence) -> Occurrence:
    return Occurrence(o.formula, fresh_id())


@dataclass(frozen=True, slots=True)
class Sequent:
    ante: tuple[Occurrence, ...]
    succ: tuple[Occurrence, ...]

    def all_occurrences(self) -> tuple[Occurrence, ...]:
        return self.ante + self.succ

    def ante_formulas(self) -> list[Formula]:
        return [o.formula for o in self.ante]

    def succ_formulas(self) -> list[Formula]:
        return [o.formula for o in self.succ]

    def find(self, occ_id: int) -> tuple[str, int, Occurrence] | None:
        for i, o in enumerate(self.ante):
            if o.id == occ_id:
                return ("ante", i, o)
        for i, o in enumerate(self.succ):
            if o.id == occ_id:
                return ("succ", i, o)
        return None

    def first(self, side: str, phi: Formula, skip=()) -> int | None:
        """The id of the first occurrence of ``phi`` on ``side`` (``ante``
        or ``succ``) whose id is not in ``skip``, or None."""
        for o in getattr(self, side):
            if o.formula == phi and o.id not in skip:
                return o.id
        return None


def minus(xs, ys) -> list:
    """Multiset difference: a copy of ``xs`` with one equal element removed
    for each element of ``ys`` that still has one there.  Order is kept, and
    first copies go first."""
    out = list(xs)
    for y in ys:
        try:
            out.remove(y)
        except ValueError:
            pass
    return out


def same_multiset(xs, ys) -> bool:
    return len(xs) == len(ys) and not minus(xs, ys)


class RuleShape(NamedTuple):
    premises: int
    #: the side of each principal occurrence, in ``Derivation.principal`` order
    principals: tuple[str, ...]
    #: the (premise index, side) of each active, in ``Derivation.actives`` order
    actives: tuple[tuple[int, str], ...]
    #: truth-rule applications the principal adds to its actives' tau
    unquotes: int = 0
    #: the premise above which the rule binds its eigenvariable, if it has one
    binds: int | None = None


_A, _S = "ante", "succ"
#: side -> its name in messages
SIDE_NAMES = {_A: "antecedent", _S: "succedent"}

#: rule -> its shape (the rule sets live in :data:`.kernel.SYSTEM_RULES`)
RULE_SHAPES: dict[str, RuleShape] = {
    "init": RuleShape(0, (_A, _S), ()),
    "top": RuleShape(0, (_S,), ()),
    "bot": RuleShape(0, (_A,), ()),
    "qg1": RuleShape(0, (_A,), ()),
    "cut": RuleShape(2, (), ((0, _S), (1, _A))),
    "Tl": RuleShape(1, (_A,), ((0, _A),), unquotes=1),
    "Tr": RuleShape(1, (_S,), ((0, _S),), unquotes=1),
    "comp": RuleShape(2, (_S,), ((0, _S), (1, _S)), unquotes=1),
    "negl": RuleShape(1, (_A,), ((0, _S),)),
    "negr": RuleShape(1, (_S,), ((0, _A),)),
    "andl": RuleShape(1, (_A,), ((0, _A), (0, _A))),
    "andr": RuleShape(2, (_S,), ((0, _S), (1, _S))),
    "foralll": RuleShape(1, (_A,), ((0, _A), (0, _A))),
    "forallr": RuleShape(1, (_S,), ((0, _S),), binds=0),
    "eq1": RuleShape(1, (), ((0, _A),)),
    "eq2": RuleShape(1, (), ((0, _A),)),
    "qg2": RuleShape(1, (), ((0, _A),)),
    "qg3": RuleShape(2, (), ((0, _A), (1, _A)), binds=1),
    **{r: RuleShape(1, (), ((0, _A),)) for r in ("qg4", "qg5", "qg6", "qg7")},
}


@dataclass(eq=False, frozen=True, slots=True)
class Derivation:
    """One rule application; premises are the direct subderivations.

    ``principal`` lists conclusion occurrence ids introduced by the rule,
    ``actives`` the premise occurrences ((premise index, occurrence id)) the
    rule consumes, and ``lineage`` maps every other conclusion occurrence id
    to its ancestors, one per premise it descends from.  ``term``,
    ``term2``, ``var`` and ``template`` carry the rule instantiation data the
    kernel checks: the foralll witness, the eq2 equation sides and template,
    the qg3 case term, the qg4..qg7 instantiating terms, and the forallr and
    qg3 eigenvariables.
    """

    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    principal: tuple[int, ...] = ()
    actives: tuple[tuple[int, int], ...] = ()
    lineage: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    term: Term | None = None
    term2: Term | None = None
    var: str | None = None
    template: tuple[str, Formula] | None = None

    def iter_nodes(self) -> Iterator["Derivation"]:
        """Every node, in pre-order (a node before its premises, premises
        left to right)."""
        stack: list[Derivation] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))

    def iter_paths(self) -> Iterator[tuple[tuple[int, ...], "Derivation"]]:
        """:meth:`iter_nodes` with each node's path of premise indices from
        this one, for output that prints where a node is."""
        stack: list[tuple[tuple[int, ...], Derivation]] = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in range(len(node.premises) - 1, -1, -1):
                stack.append((path + (i,), node.premises[i]))


#: :func:`remake` keeps the instantiation datum passed as this
_KEEP = object()


def remake(node: Derivation, *, conclusion=None, premises=None, principal=None,
           actives=None, lineage=None, term=_KEEP, term2=_KEEP, var=_KEEP,
           template=_KEEP) -> Derivation:
    """``node`` with the given fields replaced and every other one kept.
    Every rebuild of a node goes through here; it calls the constructor
    directly, at about half the cost of ``dataclasses.replace``."""
    return Derivation(
        node.rule,
        node.conclusion if conclusion is None else conclusion,
        node.premises if premises is None else premises,
        node.principal if principal is None else principal,
        node.actives if actives is None else actives,
        node.lineage if lineage is None else lineage,
        node.term if term is _KEEP else term,
        node.term2 if term2 is _KEEP else term2,
        node.var if var is _KEEP else var,
        node.template if template is _KEEP else template,
    )


R = TypeVar("R")


def fold(d, step: Callable[[object, list], R], children=None) -> R:
    """Post-order walk with an explicit stack: ``step(item, results)`` runs on
    every item after all of its children, ``results`` holding the children's
    own results left to right.  The items are ``d`` and what
    ``children(item)`` lists below it; by default an item is a derivation
    and its children are its premises.  ``children`` runs on an item before
    any item below it.  Returns the root's result."""
    results: list = []
    stack: list = [d]
    while stack:
        item = stack.pop()
        if item is None:  # the item below has all its children's results
            k = stack.pop()
            item = stack.pop()
            done = results[-k:]
            del results[-k:]
            results.append(step(item, done))
            continue
        below = item.premises if children is None else children(item)
        if below:
            stack += (item, len(below), None, *reversed(below))
        else:
            results.append(step(item, []))
    return results[0]


def refresh_ids(d: Derivation) -> Derivation:
    """Structurally identical derivation with all-new occurrence ids."""

    def step(node: Derivation, done) -> tuple[Derivation, dict[int, int]]:
        idmap = {
            o.id: fresh_id() for o in node.conclusion.all_occurrences()
        }
        concl = Sequent(
            tuple(Occurrence(o.formula, idmap[o.id]) for o in node.conclusion.ante),
            tuple(Occurrence(o.formula, idmap[o.id]) for o in node.conclusion.succ),
        )
        prem_maps = [m for _, m in done]
        lineage = {
            idmap[cid]: tuple((pi, prem_maps[pi][oid]) for pi, oid in parents)
            for cid, parents in node.lineage.items()
        }
        new = remake(
            node, conclusion=concl, premises=tuple(p for p, _ in done),
            principal=tuple(idmap[i] for i in node.principal),
            actives=tuple((pi, prem_maps[pi][oid]) for pi, oid in node.actives),
            lineage=lineage,
        )
        return new, idmap

    return fold(d, step)[0]


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class Measures:
    length: int
    cut_rank: int
    proof_tau: int
    tau: dict[int, int]

    def triple(self) -> tuple[int, int, int]:
        return (self.length, self.cut_rank, self.proof_tau)


def cut_rank(phi: Formula) -> int:
    """The rank of a cut on ``phi``: its logical complexity plus one."""
    return logical_complexity(phi) + 1


class MeasureError(Exception):
    """The derivation's lineage bookkeeping is broken."""


def compute_measures(d: Derivation) -> Measures:
    """Length, cut rank, proof T-complexity, and the per-occurrence tau map.

    One post-order :func:`fold` yields all of them.  Assumes the derivation
    is structurally well-formed (kernel-validated); raises
    :class:`MeasureError` on broken lineage.
    """
    tau: dict[int, int] = {}
    cut_ranks: list[int] = []

    def step(node: Derivation, heights: list[int]) -> int:
        for cid, parents in node.lineage.items():
            try:
                if len(parents) == 1:  # one premise: tau passes unchanged
                    tau[cid] = tau[parents[0][1]]
                else:
                    tau[cid] = max(tau[oid] for _, oid in parents)
            except KeyError as e:
                raise MeasureError(f"lineage refers to unknown occurrence: {e}")
        for pid in node.principal:
            tau[pid] = max([tau[oid] for _, oid in node.actives], default=0) \
                + RULE_SHAPES[node.rule].unquotes
        for o in node.conclusion.all_occurrences():
            if o.id not in tau:
                if node.premises:
                    raise MeasureError(
                        f"occurrence {o.id} at rule {node.rule} has no lineage"
                    )
                tau[o.id] = 0
            if is_base_formula(o.formula):
                tau[o.id] = 0
        if node.rule == "cut":
            _, _, a = node.premises[0].conclusion.find(node.actives[0][1])
            cut_ranks.append(cut_rank(a.formula))
        return 1 + max(heights) if heights else 0

    length = fold(d, step)
    return Measures(
        length=length,
        cut_rank=max(cut_ranks, default=0),
        proof_tau=max(tau.values(), default=0),
        tau=tau,
    )
