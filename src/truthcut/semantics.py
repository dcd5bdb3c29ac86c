"""Finite-stage fixed-point semantics of self-applicable truth.

A monotone step operator over sets of sentences is evaluated on a finite,
dependency-closed universe.  Its clauses mirror the positive inductive
definition of grounded truth: true/false closed identities enter
unconditionally, a truth ascription enters when the ascribed sentence is
in, a negated truth ascription when the negated ascribed sentence is in,
double negations and (negated) conjunctions decompose, and universal
sentences are finitized to successor-chain numeral instances up to the
universe's term bound.  Iterating from the empty set saturates in at most
|universe| steps; the inductive norm of a member is the first stage
containing it.  Ungrounded sentences (liar, truth-teller) never enter.

Top and bot are not covered by the operator's printed clauses; they are
treated like the true and the false identity respectively (top and
not-bot enter at the first stage; bot and not-top never enter).

All thirteen cases are stated once, in :func:`_clause`, as a *clause*
``(any_, deps)``: the sentence enters S when any (``any_``) or all (not
``any_``) of its dependencies ``deps`` are in S, so the constant clauses
are ``TRUE = (False, ())`` and ``FALSE = (True, ())``.  A dependency is a
sentence: a conjunct, an instance, their negations, the body of a double
negation, or the sentence an ascribed term names.  A ``quote`` numeral
remembers that sentence (equal numerals are one object, so a numeral
written out remembers it too once anything quoted that sentence); any other
ascribed term is evaluated and its value decoded.  A value that codes no
sentence stays a bare int dependency, which never enters.

The universe, its clauses and the semi-naive iteration are keyed by
sentence, not by Goedel code: equal sentences are one object, so
``build_universe`` numbers each sentence of the closure once, in closure
order, and ``least_fixed_point`` records the stage at which each one
entered.  Quantifier instances, negations and conjuncts get no code.
``least_fixed_point`` iterates semi-naively (Bancilhon & Ramakrishnan,
1986): after the first stage it re-decides only the sentences that depend
on a sentence that entered at the previous stage, which gives the same
stages as applying the step operator to every sentence from the empty set
(``tests/test_semantics.py`` checks this against a reference operator).

The code-keyed fields (``SentenceUniverse.codes``, ``sentences``,
``code_of`` and ``clauses``; ``FixedPoint.stages``, ``members`` and
``norms``) are built from the sentences the first time a caller reads one.
Each code is built once per universe, through this module's ``encode``.
:meth:`FixedPoint.grounded`, :meth:`FixedPoint.is_member` and the
correspondence checks decide by sentence and build a code only to report
it.  The tests' reference operator reads the code fields.
A term whose evaluation would build a code longer than
``coding.MAX_CODE_BITS`` bits raises ``CodeSizeError``, an ``EvalError``, and
an ``EvalError`` makes a clause false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .arith import chain_numerals
from .coding import (
    DecodeError,
    EvalError,
    decode_sentence,
    encode,
    eval_term,
    quoted_sentence,
)
from .deriv import Derivation, compute_measures
from .syntax import (
    And,
    Bot,
    Eq,
    Forall,
    Formula,
    Not,
    Top,
    Tr,
    bound_vars,
    is_sentence,
    substitute,
)


class UniverseError(Exception):
    """Dependency closure exceeded the configured size cap."""


class CoverageError(Exception):
    """A formula needed by a check is not in the universe."""


#: ``(any_, deps)``: holds of S when any (``any_``) or all of ``deps`` are in S
Clause = tuple[bool, tuple[int, ...]]
#: a dependency: a sentence, or the value of a term that names no sentence
Dep = Formula | int
TRUE: Clause = (False, ())
FALSE: Clause = (True, ())


@dataclass(frozen=True, repr=False)
class SentenceUniverse:
    """A dependency-closed set of sentences, keyed by sentence; its
    code-keyed fields are built on first read."""

    seeds: tuple[Formula, ...]
    term_bound: int
    #: the sentences of the closure, in the order it reached them
    order: tuple[Formula, ...] = field(repr=False)
    #: sentence -> its place in ``order``
    index: dict[Formula, int] = field(compare=False, repr=False)
    #: per place, the sentence's clause over dependencies (:data:`Dep`)
    deps: tuple[tuple[bool, tuple[Dep, ...]], ...] = field(
        compare=False, repr=False)
    #: per place, the sentence's code once built
    _codes: list[int | None] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_codes", [None] * len(self.order))

    def code(self, i: int) -> int:
        """The code of ``order[i]``, built on the first call."""
        c = self._codes[i]
        if c is None:
            c = self._codes[i] = encode(self.order[i])
        return c

    @cached_property
    def codes(self) -> frozenset[int]:
        # a set filled in closure order, then frozen: the order it iterates
        # in, which the checks report in, follows from the closure's
        return frozenset(set(map(self.code, range(len(self.order)))))

    @cached_property
    def sentences(self) -> dict[int, Formula]:
        """code -> the sentence it decodes to"""
        return {self.code(i): phi for i, phi in enumerate(self.order)}

    @cached_property
    def code_of(self) -> dict[Formula, int]:
        """sentence -> its code; the inverse of ``sentences``"""
        return {phi: self.code(i) for i, phi in enumerate(self.order)}

    @cached_property
    def clauses(self) -> dict[int, Clause]:
        """code -> the clause under which its sentence enters the fixed
        point, over dependency codes"""
        index = self.index
        return {
            self.code(i): (any_, tuple(d if type(d) is int else self.code(index[d])
                                       for d in deps))
            for i, (any_, deps) in enumerate(self.deps)
        }

    def __contains__(self, code: int) -> bool:
        return code in self.codes

    def __repr__(self) -> str:
        return (f"SentenceUniverse(codes={self.codes!r}, seeds={self.seeds!r}, "
                f"term_bound={self.term_bound!r})")

    def _in_codes_order(self, places) -> list[int]:
        """``places`` sorted as their codes iterate in ``codes``; builds the
        codes only when there is a place to sort."""
        if not places:
            return []
        rank = {c: k for k, c in enumerate(self.codes)}
        return sorted(places, key=lambda i: rank[self.code(i)])


def _instances(phi: Forall, bound: int) -> list[Formula]:
    """``phi``'s body at S^k(0) for k = 0..bound; a closed numeral is never
    captured."""
    return [substitute(phi.body, phi.var, n) for n in chain_numerals(bound)]


def _ascribed(t) -> Dep:
    """The sentence ``t`` names, else its value; raises ``EvalError``."""
    phi = quoted_sentence(t)
    if phi is not None:
        return phi
    c = eval_term(t)
    try:
        return decode_sentence(c)
    except DecodeError:
        return c


def _identity(phi: Eq, holds_if_equal: bool) -> Clause:
    try:
        equal = eval_term(phi.left) == eval_term(phi.right)
    except EvalError:
        return FALSE
    return TRUE if equal == holds_if_equal else FALSE


def _clause(phi: Formula, bound: int) -> tuple[bool, tuple[Dep, ...]]:
    """When ``phi`` enters a stage, with its dependencies listed in the
    order the universe closure visits them."""
    if isinstance(phi, Eq):
        return _identity(phi, True)
    if isinstance(phi, Top):
        return TRUE
    if isinstance(phi, Tr):
        try:
            return (False, (_ascribed(phi.term),))
        except EvalError:
            return FALSE
    if isinstance(phi, And):
        return (False, (phi.left, phi.right))
    if isinstance(phi, Forall):
        insts = _instances(phi, bound)
        return (False, tuple(insts)) if insts else FALSE
    if isinstance(phi, Not):
        inner = phi.body
        if isinstance(inner, Eq):
            return _identity(inner, False)
        if isinstance(inner, Bot):
            return TRUE
        if isinstance(inner, Tr):
            try:
                named = _ascribed(inner.term)
            except EvalError:
                return FALSE
            return FALSE if type(named) is int else (False, (Not(named),))
        if isinstance(inner, Not):
            return (False, (inner.body,))
        if isinstance(inner, And):
            return (True, (Not(inner.left), Not(inner.right)))
        if isinstance(inner, Forall):
            return (True, tuple(Not(i) for i in _instances(inner, bound)))
    return FALSE  # bot, not-top


def _holds(clause: Clause, S) -> bool:
    any_, deps = clause
    if any_:
        return any(d in S for d in deps)
    return all(d in S for d in deps)


def build_universe(seeds, term_bound: int, max_size: int = 5000) -> SentenceUniverse:
    """Dependency-closed finite universe of sentences, with each sentence's
    clause."""
    seeds = tuple(seeds)
    for s in seeds:
        if not is_sentence(s):
            raise UniverseError(f"seed is not a sentence: {s!r}")
    order: list[Formula] = []
    index: dict[Formula, int] = {}
    deps: list[tuple[bool, tuple[Dep, ...]]] = []
    work = list(seeds)
    while work:
        phi = work.pop()
        if phi in index:
            continue
        index[phi] = len(order)
        order.append(phi)
        if len(order) > max_size:
            raise UniverseError(
                f"universe closure exceeded the size cap {max_size}"
            )
        clause = _clause(phi, term_bound)
        deps.append(clause)
        work.extend(d for d in clause[1] if type(d) is not int)
    return SentenceUniverse(seeds, term_bound, tuple(order), index, tuple(deps))


# ---------------------------------------------------------------------------
# Fixed point


@dataclass(frozen=True, repr=False)
class FixedPoint:
    """The least fixed point, keyed by sentence; its code-keyed fields are
    built on first read."""

    universe: SentenceUniverse
    saturation_index: int
    #: per place in ``universe.order``, the stage its sentence entered at
    #: (None: never)
    stage_of: tuple[int | None, ...]
    #: per stage, the places of the sentences that entered at it
    entered: tuple[tuple[int, ...], ...] = field(compare=False)

    @cached_property
    def stages(self) -> tuple[frozenset, ...]:
        """stages[i] = the codes of the operator iterated i+1 times"""
        code, S, out = self.universe.code, [], []
        for places in self.entered:
            S.extend(map(code, places))
            out.append(frozenset(S))
        return tuple(out)

    @cached_property
    def members(self) -> frozenset:
        code = self.universe.code
        return frozenset(code(i) for places in self.entered for i in places)

    @cached_property
    def norms(self) -> dict[int, int]:
        """code of each member -> the first stage containing it"""
        code = self.universe.code
        return {code(i): n for n, places in enumerate(self.entered)
                for i in places}

    def norm(self, code: int) -> int | None:
        return self.norms.get(code)

    def _norm_of(self, phi: Formula) -> int | None:
        i = self.universe.index.get(phi)
        return None if i is None else self.stage_of[i]

    def is_member(self, phi: Formula) -> bool:
        """Whether the sentence ``phi`` is in the fixed point."""
        return self._norm_of(phi) is not None

    def grounded(self, phi: Formula) -> bool:
        return self.is_member(phi) or self.is_member(Not(phi))

    def __repr__(self) -> str:
        return (f"FixedPoint(universe={self.universe!r}, stages={self.stages!r}, "
                f"members={self.members!r}, "
                f"saturation_index={self.saturation_index!r}, "
                f"norms={self.norms!r})")


def least_fixed_point(universe: SentenceUniverse) -> FixedPoint:
    """Iterate the step operator from the empty set to saturation.

    Stage 0 is the first application (so true identities have norm 0);
    norms record each member's first stage; the last stage repeats the one
    before it.  A sentence outside S_i can enter S_{i+1} only if a
    dependency of it entered at stage i, so after stage 0 only those
    sentences are re-decided."""
    index, n = universe.index, len(universe.order)
    clauses: list[Clause] = []
    users: list[list[int]] = [[] for _ in range(n)]
    for i, (any_, deps) in enumerate(universe.deps):
        places = tuple(index[d] for d in deps if type(d) is not int)
        if not any_ and len(places) < len(deps):
            any_, places = FALSE  # a bare int never enters, so nor does i
        clauses.append((any_, places))
        for d in places:
            users[d].append(i)
    S: set[int] = set()  # the places of the last stage's sentences
    stage_of: list[int | None] = [None] * n
    entered: list[tuple[int, ...]] = []
    todo = range(n)
    while True:
        new = [i for i in todo if i not in S and _holds(clauses[i], S)]
        for i in new:
            stage_of[i] = len(entered)
        S.update(new)
        entered.append(tuple(new))
        if not new:
            break
        todo = sorted({u for d in new for u in users[d]})
    return FixedPoint(universe, len(entered) - 1, tuple(stage_of), tuple(entered))


# ---------------------------------------------------------------------------
# Correspondence checks


@dataclass(frozen=True)
class SoundnessVerdict:
    holds: bool
    alpha: int
    witness_side: str | None = None
    witness: Formula | None = None
    witness_norm: int | None = None


def check_soundness(d: Derivation, fp: FixedPoint) -> SoundnessVerdict:
    """A cut-free derivation's end sequent must be semantically backed: some
    antecedent member's negation, or some succedent member, is grounded with
    norm at most the derivation's length."""
    alpha = compute_measures(d).length
    index = fp.universe.index
    missing = []
    for side, occs in (("ante", d.conclusion.ante), ("succ", d.conclusion.succ)):
        for o in occs:
            backer = Not(o.formula) if side == "ante" else o.formula
            i = index.get(backer)
            if i is None:
                missing.append(backer)
                continue
            n = fp.stage_of[i]
            if n is not None and n <= alpha:
                return SoundnessVerdict(True, alpha, side, o.formula, n)
    if missing:
        raise CoverageError(
            f"end-sequent formulas not covered by the universe: {missing!r}"
        )
    return SoundnessVerdict(False, alpha)


@dataclass(frozen=True)
class CompletenessVerdict:
    status: str  # "proved" | "refuted" | "vacuous" | "budget_failure"
    norm: int | None = None
    proof_length: int | None = None


def check_completeness(phi: Formula, fp: FixedPoint, budget) -> CompletenessVerdict:
    """Grounded quantifier-free sentences are provable (their negations
    refutable) by bounded cut-free search."""
    from .search import search_cut_free

    if bound_vars(phi):  # a bound variable, so a quantifier
        return CompletenessVerdict("vacuous")
    for status, member, ante, succ in (("proved", phi, [], [phi]),
                                       ("refuted", Not(phi), [phi], [])):
        n = fp._norm_of(member)
        if n is not None:
            r = search_cut_free(ante, succ, budget, "lptn")
            if r.found:
                return CompletenessVerdict(
                    status, n, compute_measures(r.derivation).length
                )
            return CompletenessVerdict("budget_failure", n)
    return CompletenessVerdict("vacuous")


def check_transparency(fp: FixedPoint) -> list[tuple[int, int]]:
    """Pairs (code of T-ascription, ascribed code) violating transparency;
    empty means the fixed point is transparent on in-universe pairs."""
    u, stage_of = fp.universe, fp.stage_of
    bad = {}
    for i, phi in enumerate(u.order):
        if isinstance(phi, Tr):
            # its one dependency: the ascribed sentence, in the universe, or
            # a value naming none; none at all when the term has no value
            deps = u.deps[i][1]
            if deps and type(deps[0]) is not int:
                j = u.index[deps[0]]
                if (stage_of[i] is None) != (stage_of[j] is None):
                    bad[i] = j
    return [(u.code(i), u.code(bad[i])) for i in u._in_codes_order(bad)]


def check_consistency(fp: FixedPoint) -> list[int]:
    """Codes whose sentence and negated sentence are both in the fixed point
    (must be empty)."""
    u, stage_of = fp.universe, fp.stage_of
    bad = []
    for j, phi in enumerate(u.order):  # j is a negation, i its body
        if isinstance(phi, Not) and stage_of[j] is not None:
            i = u.index.get(phi.body)
            if i is not None and stage_of[i] is not None:
                bad.append(i)
    return [u.code(i) for i in u._in_codes_order(bad)]
