"""Bounded backward cut-free proof search.

Backward application of the logical and truth rules, with three budgets:
``max_depth`` (backward rule applications per branch), ``max_term_index``
(largest successor-chain numeral tried for universal instantiation), and
``max_tau_unfold`` (truth-rule unquotings per branch, which caps liar-driven
divergence).  Goals are closed by initial sequents, top/bot, the
zero-successor axiom, and — in the systems with geometric rules — by the
closed-equation macros of :mod:`truthcut.arith`; macro closures consume no
depth (they are axiom-level decisions, not search steps).

``exhausted`` results carry the frontier of unproved leaves.  A returned
derivation always validates in the kernel and contains no cut.

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

from . import build as B
from .arith import can_prove, can_refute, chain_numerals, prove_equation, refute_equation
from .coding import DecodeError, decode_sentence, quoted_sentence
from .deriv import Derivation, minus
from .kernel import SYSTEM_RULES
from .syntax import (
    And,
    CaptureError,
    Eq,
    Forall,
    Formula,
    Not,
    SynApp,
    Term,
    Tr,
    Var,
    children,
    is_closed,
    numeral_value,
    substitute,
)

_GEOMETRIC_SYSTEMS = tuple(s for s, r in SYSTEM_RULES.items() if "qg1" in r)
_TRUTH_SYSTEMS = tuple(s for s, r in SYSTEM_RULES.items() if "Tr" in r)


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 12
    max_term_index: int = 8
    max_tau_unfold: int = 6

    def __post_init__(self):
        if self.max_depth < 0 or self.max_term_index < 0 or self.max_tau_unfold < 0:
            raise ValueError("budgets must be non-negative")


@dataclass
class SearchResult:
    derivation: Derivation | None
    frontier: list[tuple[tuple[Formula, ...], tuple[Formula, ...]]] = field(
        default_factory=list
    )

    @property
    def found(self) -> bool:
        return self.derivation is not None


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
        self.budget = budget
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
        self._unquoted: dict[Tr, Formula | None] = {}
        self._closed: dict[Formula, list[Term]] = {}
        self._inst: dict[tuple[Forall, Term], Formula] = {}
        self._numerals = chain_numerals(budget.max_term_index)

    def fresh_eigen(self) -> str:
        self._eigen += 1
        return f"ev{self._eigen}"

    # -- closures ----------------------------------------------------------

    def close(self, ante, succ) -> Derivation | None:
        for rule in self.leaf_rules:
            hit = B.leaf_principal(rule, ante, succ)
            if hit is not None:
                return B.leaf(rule, *hit)
        if self.system in _GEOMETRIC_SYSTEMS:
            for f in ante:
                if isinstance(f, Eq) and self._decide(self._refutable, can_refute, f):
                    return refute_equation(
                        minus(ante, [f]), f.left, f.right, list(succ)
                    )
            for f in succ:
                if isinstance(f, Eq) and self._decide(self._provable, can_prove, f):
                    return prove_equation(
                        list(ante), f.left, f.right, minus(succ, [f])
                    )
        return None

    @staticmethod
    def _decide(memo: dict, decide, f: Eq) -> bool:
        verdict = memo.get(f)
        if verdict is None:
            verdict = memo[f] = decide(f.left, f.right)
        return verdict

    # -- expansion ---------------------------------------------------------

    def prove(self, ante, succ, depth, tau, visited) -> Derivation | None:
        # a goal open on this branch or in the failure memo failed to close
        # when first met, so both checks come before the closures
        key = _key(ante, succ)
        if key in visited:
            # loop check: an identical goal is already open on this branch
            self.frontier.append((tuple(ante), tuple(succ)))
            return None
        if (key, depth, tau) in self.fail_memo:
            return None
        d = self.close(ante, succ)
        if d is not None:
            return d
        if depth == 0:
            self.frontier.append((tuple(ante), tuple(succ)))
            self.fail_memo.add((key, depth, tau))
            return None
        visited = visited | {key}
        d = self._expand(ante, succ, depth, tau, visited)
        if d is None:
            self.fail_memo.add((key, depth, tau))
        return d

    def _expand(self, ante, succ, depth, tau, visited) -> Derivation | None:
        """A proof of the goal by a backward rule, or None; a goal no
        backward rule applies to is a frontier leaf."""
        truth_ok = self.system in _TRUTH_SYSTEMS
        applied = False
        for f in ante:
            if isinstance(f, (Not, And, Forall)):
                applied = True
            if isinstance(f, Not):
                p = self.prove(
                    tuple(minus(ante, [f])), succ + (f.body,), depth - 1, tau, visited
                )
                if p is not None:
                    return B.neg_left(p, p.conclusion.first("succ", f.body))
            elif isinstance(f, And):
                p = self.prove(
                    (*minus(ante, [f]), f.left, f.right), succ,
                    depth - 1, tau, visited,
                )
                if p is not None:
                    return B.and_left(p, p.conclusion.first("ante", f.left),
                                      p.conclusion.first("ante", f.right))
            elif isinstance(f, Tr) and truth_ok and tau > 0:
                phi = self._unquote(f)
                if phi is not None:
                    applied = True
                    p = self.prove(
                        (*minus(ante, [f]), phi), succ,
                        depth - 1, tau - 1, visited,
                    )
                    if p is not None:
                        return B.truth_left(p, p.conclusion.first("ante", phi))
            elif isinstance(f, Forall):
                for t in self._instances(ante, succ):
                    inst = self._instance(f, t)
                    if inst in ante:
                        continue
                    p = self.prove(
                        ante + (inst,), succ, depth - 1, tau, visited
                    )
                    if p is not None:
                        return B.forall_left(p, p.conclusion.first("ante", f),
                                             p.conclusion.first("ante", inst), t)
        for f in succ:
            if isinstance(f, (Not, And, Forall)):
                applied = True
            if isinstance(f, Not):
                p = self.prove(
                    ante + (f.body,), tuple(minus(succ, [f])), depth - 1, tau, visited
                )
                if p is not None:
                    return B.neg_right(p, p.conclusion.first("ante", f.body))
            elif isinstance(f, And):
                p0 = self.prove(
                    ante, (*minus(succ, [f]), f.left), depth - 1, tau, visited
                )
                if p0 is None:
                    continue
                p1 = self.prove(
                    ante, (*minus(succ, [f]), f.right), depth - 1, tau, visited
                )
                if p1 is None:
                    continue
                return B.and_right(p0, p0.conclusion.first("succ", f.left),
                                   p1, p1.conclusion.first("succ", f.right))
            elif isinstance(f, Tr) and truth_ok and tau > 0:
                phi = self._unquote(f)
                if phi is not None:
                    applied = True
                    p = self.prove(
                        ante, (*minus(succ, [f]), phi),
                        depth - 1, tau - 1, visited,
                    )
                    if p is not None:
                        return B.truth_right(p, p.conclusion.first("succ", phi))
            elif isinstance(f, Forall):
                y = self.fresh_eigen()
                try:
                    inst = substitute(f.body, f.var, Var(y))
                except CaptureError:
                    continue
                p = self.prove(
                    ante, (*minus(succ, [f]), inst), depth - 1, tau, visited
                )
                if p is not None:
                    return B.forall_right(p, p.conclusion.first("succ", inst), f, y)
        if not applied:
            self.frontier.append((tuple(ante), tuple(succ)))
        return None

    def _unquote(self, f: Tr) -> Formula | None:
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

    def _instance(self, f: Forall, t: Term) -> Formula:
        inst = self._inst.get((f, t))
        if inst is None:
            # a closed term is never captured
            inst = self._inst[f, t] = substitute(f.body, f.var, t)
        return inst

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
    d = searcher.prove(
        tuple(ante), tuple(succ), budget.max_depth, budget.max_tau_unfold,
        frozenset(),
    )
    if d is None:
        frontier = []
        seen = set()
        for goal in searcher.frontier:
            k = _key(goal[0], goal[1])
            if k not in seen:
                seen.add(k)
                frontier.append(goal)
        return SearchResult(None, frontier)
    return SearchResult(d, [])


@dataclass
class ConservativityReport:
    entries: list[dict]

    @property
    def symmetric(self) -> bool:
        return all(e["lptn"] == e["qg"] for e in self.entries)

    def asymmetries(self) -> list[dict]:
        return [e for e in self.entries if e["lptn"] != e["qg"]]


def check_conservativity(sequents, budget: SearchBudget) -> ConservativityReport:
    """For T-free sequents, provability-within-budget must coincide between
    the truth system and its arithmetical base."""
    entries = []
    for ante, succ in sequents:
        r_lptn = search_cut_free(ante, succ, budget, "lptn")
        r_qg = search_cut_free(ante, succ, budget, "qg")
        entries.append({
            "ante": tuple(ante),
            "succ": tuple(succ),
            "lptn": r_lptn.found,
            "qg": r_qg.found,
        })
    return ConservativityReport(entries)
