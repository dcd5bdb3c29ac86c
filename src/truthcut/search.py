"""Bounded backward cut-free proof search.

Backward application of the logical and truth rules, with three budgets:
``max_depth`` (backward rule applications per branch), ``max_term_index``
(largest successor-chain numeral tried for universal instantiation), and
``max_tau_unfold`` (truth-rule unquotings per branch, which caps liar-driven
divergence).  Goals are closed by initial sequents, top/bot, the
zero-successor axiom, and — in the systems with geometric rules — by the
closed-equation macros of :mod:`truthcut.arith`; macro closures consume no
depth (they are axiom-level decisions, not search steps).

Expansion is one loop over the goal's formulas, each expanded by its rule
in :data:`_RULES` (read off :data:`.build.LOGICAL_RULES`).  Search decides
goals and builds no proof: a closed goal records a plan, the builder call
that makes its node (:func:`.build.leaf`, :func:`.build.logical`,
:func:`.arith.refute_equation` or :func:`.arith.prove_equation`) with its
arguments and the plans of its premises.  ``found`` reads the plan and
builds nothing; ``derivation`` builds the proof from it on first read, by
one :func:`.deriv.fold`, and keeps it.  :func:`.build.logical` builds each
logical node, so two equal parts take two occurrences.  A built derivation
validates in the kernel, contains no cut and concludes its goal;
``exhausted`` results carry the frontier.

Terms and formulas are interned, so equal ones are one object, and one
search keeps memos keyed by those objects: each closed equation's
refutability and provability, each truth ascription's unquoted sentence,
each formula's closed subterms, each universal's instance at each closed
term (the instance memo, so ``foralll`` builds an instance once per search
however many goals try it), and the numerals ``0..max_term_index``.
A goal's key for the loop check and the failure memo is its two sides, each
sorted by object identity: equal formulas have one identity, and the key
keeps them alive, so this is exact for multisets.  The key only looks goals
up; proofs and frontiers are built in the order the goal lists its
formulas.  A goal is answered in this order: the loop check, then the
failure memo, then the closures, then expansion.  A goal either check
answers failed to close when it was first met, so checking them first
changes no proof or frontier.  Every memo lives on one ``_Searcher``, so
nothing outlives one call of :func:`search_cut_free`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from . import build as B
from .arith import can_prove, can_refute, chain_numerals, prove_equation, refute_equation
from .coding import DecodeError, decode_sentence, quoted_sentence
from .deriv import RULE_SHAPES, fold, minus
from .kernel import SYSTEM_RULES
from .syntax import (
    CaptureError,
    Eq,
    Formula,
    SynApp,
    Term,
    Var,
    children,
    is_closed,
    numeral_value,
    substitute,
)

_GEOMETRIC_SYSTEMS = tuple(s for s, r in SYSTEM_RULES.items() if "qg1" in r)
_SIDES = ("ante", "succ")


class _Rule(NamedTuple):
    """A logical rule as search applies it backward."""

    name: str
    parts: Callable[[Formula, Term | None], tuple[Formula, ...]]
    keeps: bool
    unquotes: int
    binds: bool
    #: per premise, the slices of the parts its antecedent and succedent gain
    gains: tuple[tuple[slice, slice], ...]


def _rule(name: str) -> _Rule:
    """``name``'s formula relation and shape, read for search.  Each part
    goes where the shape puts its active, except a kept principal, which
    stays where it is.  A premise's parts on one side are adjacent in shape
    order, in every logical rule, so a slice takes them."""
    shape, spec = RULE_SHAPES[name], B.LOGICAL_RULES[name]
    gains = []
    for pi in range(shape.premises):
        ix = [[i for i, a in enumerate(shape.actives) if i >= spec.keeps and a == (pi, side)]
              for side in _SIDES]
        gains.append(tuple(slice(x[0], x[-1] + 1) if x else slice(0) for x in ix))
    return _Rule(name, spec.parts, spec.keeps, shape.unquotes, shape.binds is not None,
                 tuple(gains))


#: system -> side -> principal class -> the rule that expands a formula of
#: that class on that side
_RULES: dict[str, dict[str, dict[type, _Rule]]] = {
    system: {side: {spec.principal: _rule(r) for r, spec in B.LOGICAL_RULES.items()
                    if r in rules and RULE_SHAPES[r].principals == (side,)}
             for side in _SIDES}
    for system, rules in SYSTEM_RULES.items()
}


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 12
    max_term_index: int = 8
    max_tau_unfold: int = 6

    def __post_init__(self):
        if self.max_depth < 0 or self.max_term_index < 0 or self.max_tau_unfold < 0:
            raise ValueError("budgets must be non-negative")


class _Plan(NamedTuple):
    """A found proof's node, not yet built: the builder that makes it, its
    arguments, and the plans of its premises.  A logical node's builder,
    :func:`.build.logical`, takes the built premises after its rule name."""

    build: Callable
    args: tuple
    premises: tuple["_Plan", ...] = ()


def _build(plan: _Plan, premises: list):
    """The node ``plan`` names, over its premises as built."""
    if not premises:
        return plan.build(*plan.args)
    rule, *rest = plan.args
    d = plan.build(rule, premises, *rest)
    if d is None:  # a premise proof lacks a part its goal was given
        raise B.BuildError(f"{rule}: a premise lacks one of {rest[0]!r}")
    return d


@dataclass
class SearchResult:
    """The plan of the proof found, or None and the frontier."""

    plan: _Plan | None
    frontier: list[tuple[tuple[Formula, ...], tuple[Formula, ...]]] = field(
        default_factory=list
    )

    @property
    def found(self) -> bool:
        return self.plan is not None

    @cached_property
    def derivation(self):
        """The proof found, built from the plan on first read and kept; None
        when the search is exhausted."""
        return None if self.plan is None else fold(self.plan, _build)


def _key(ante, succ):
    """The goal as a pair of multisets: each side sorted by identity, which
    is exact because equal formulas are one object and the key keeps them
    alive.  Used only to look goals up, never to order output."""
    return tuple(sorted(ante, key=id)), tuple(sorted(succ, key=id))


def _closed_subterms(phi: Formula) -> list[Term]:
    """Closed terms occurring in ``phi``, in first-seen pre-order; the
    arguments of a syntax-function application are not listed."""
    out: dict[Term, None] = {}
    stack: list = [phi]
    while stack:
        x = stack.pop()
        if isinstance(x, Term):
            if is_closed(x):
                out[x] = None  # a key set again keeps its first place
            if isinstance(x, SynApp):
                continue
        stack += reversed(children(x))
    return list(out)


class _Searcher:
    def __init__(self, budget: SearchBudget, system: str):
        self.system = system
        #: the system's leaf rules, in the order they are tried
        self.leaf_rules = [r for r in B.LEAF_AXIOMS if r in SYSTEM_RULES[system]]
        self.frontier: list = []
        self.fail_memo: set = set()
        self._eigen = 0
        #: per-call memos keyed by interned nodes: an equation's
        #: refutability and provability, a truth ascription's unquoted
        #: sentence, a formula's closed subterms, a universal's instance
        #: at a closed term
        self._refutable: dict[Eq, bool] = {}
        self._provable: dict[Eq, bool] = {}
        self._unquoted: dict[Formula, Formula | None] = {}
        self._closed: dict[Formula, list[Term]] = {}
        self._inst: dict[tuple[Formula, Term], Formula] = {}
        self._numerals = chain_numerals(budget.max_term_index)

    # -- closures ----------------------------------------------------------

    def close(self, ante, succ) -> _Plan | None:
        for rule in self.leaf_rules:
            hit = B.leaf_principal(rule, ante, succ)
            if hit is not None:
                return _Plan(B.leaf, (rule, *hit))
        if self.system in _GEOMETRIC_SYSTEMS:
            for f in ante:
                if isinstance(f, Eq) and self._decide(self._refutable, can_refute, f):
                    return _Plan(refute_equation,
                                 (minus(ante, [f]), f.left, f.right, list(succ)))
            for f in succ:
                if isinstance(f, Eq) and self._decide(self._provable, can_prove, f):
                    return _Plan(prove_equation,
                                 (list(ante), f.left, f.right, minus(succ, [f])))
        return None

    @staticmethod
    def _decide(memo: dict, decide, f: Eq) -> bool:
        verdict = memo.get(f)
        if verdict is None:
            verdict = memo[f] = decide(f.left, f.right)
        return verdict

    # -- expansion ---------------------------------------------------------

    def prove(self, ante, succ, depth, tau, visited) -> _Plan | None:
        # a goal open on this branch or in the failure memo failed to close
        # when first met, so both checks come before the closures
        key = _key(ante, succ)
        if key in visited:
            # loop check: an identical goal is already open on this branch
            self.frontier.append((tuple(ante), tuple(succ)))
            return None
        if (key, depth, tau) in self.fail_memo:
            return None
        plan = self.close(ante, succ)
        if plan is not None:
            return plan
        if depth == 0:
            self.frontier.append((tuple(ante), tuple(succ)))
            self.fail_memo.add((key, depth, tau))
            return None
        visited = visited | {key}
        plan = self._expand(ante, succ, depth, tau, visited)
        if plan is None:
            self.fail_memo.add((key, depth, tau))
        return plan

    def _expand(self, ante, succ, depth, tau, visited) -> _Plan | None:
        """The plan of a proof of the goal by a backward logical or truth
        rule, or None; a goal no rule applies to is a frontier leaf.  Each
        formula, antecedent first and in goal order, is tried by its rule in
        :data:`_RULES`.  Each premise goal drops the formula, unless the rule
        keeps it, and gains the parts the rule's ``gains`` slices take."""
        applied = False
        for side, formulas in zip(_SIDES, (ante, succ)):
            rules = _RULES[self.system][side]
            for f in formulas:
                r = rules.get(type(f))
                if r is None:
                    continue
                if r.unquotes:  # the memoized unquoting, not decoding
                    phi = self._unquote(f) if tau else None
                    if phi is None:
                        continue
                    tries = (((phi,), None),)
                elif r.keeps:
                    tries = self._instance_tries(f, ante, succ)
                elif r.binds:  # a fresh eigenvariable
                    self._eigen += 1
                    y = Var(f"ev{self._eigen}")
                    try:
                        tries = ((r.parts(f, y), y),)
                    except CaptureError:
                        tries = ()
                else:
                    tries = ((r.parts(f, None), None),)
                applied = True
                a, s = ante, succ
                if not r.keeps:
                    if side == "ante":
                        a = tuple(minus(ante, [f]))
                    else:
                        s = tuple(minus(succ, [f]))
                for parts, instance in tries:
                    premises = []
                    for to_ante, to_succ in r.gains:
                        p = self.prove(a + parts[to_ante], s + parts[to_succ],
                                       depth - 1, tau - r.unquotes, visited)
                        if p is None:
                            break
                        premises.append(p)
                    else:
                        return _Plan(B.logical, (r.name, parts, f, instance),
                                     tuple(premises))
        if not applied:
            self.frontier.append((tuple(ante), tuple(succ)))
        return None

    def _instance_tries(self, f, ante, succ):
        """(parts, term) of each ``foralll`` instance of ``f`` not already
        in ``ante``, built lazily, once per search (the instance memo)."""
        for t in self._instances(ante, succ):
            inst = self._inst.get((f, t))
            if inst is None:  # a closed term is never captured
                inst = self._inst[f, t] = substitute(f.body, f.var, t)
            if inst not in ante:
                yield (f, inst), t

    def _unquote(self, f: Formula) -> Formula | None:
        if f in self._unquoted:
            return self._unquoted[f]
        phi = quoted_sentence(f.term)
        if phi is None:
            n = numeral_value(f.term)
            if n is not None:
                try:
                    phi = decode_sentence(n)
                except DecodeError:
                    pass
        self._unquoted[f] = phi
        return phi

    def _instances(self, ante, succ) -> list[Term]:
        out = list(self._numerals)
        seen = set(out)
        for f in ante + succ:
            closed = self._closed.get(f)
            if closed is None:
                closed = self._closed[f] = _closed_subterms(f)
            for t in closed:
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return out


def search_cut_free(ante, succ, budget: SearchBudget, system: str) -> SearchResult:
    """Backward search for a cut-free derivation of ante => succ."""
    searcher = _Searcher(budget, system)
    plan = searcher.prove(
        tuple(ante), tuple(succ), budget.max_depth, budget.max_tau_unfold,
        frozenset(),
    )
    if plan is None:  # the frontier's first goal of each multiset key
        first: dict = {}
        for goal in searcher.frontier:
            first.setdefault(_key(*goal), goal)
        return SearchResult(None, list(first.values()))
    return SearchResult(plan, [])
