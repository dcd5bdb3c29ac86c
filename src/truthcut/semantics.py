"""Finite-stage fixed-point semantics of self-applicable truth.

A monotone step operator over sets of sentence codes is evaluated on a
finite, dependency-closed universe.  Its clauses mirror the positive
inductive definition of grounded truth: true/false closed identities enter
unconditionally, a truth ascription enters when the ascribed code is in, a
negated truth ascription when the negated ascribed sentence's code is in,
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
``any_``) of the dependency codes ``deps`` are in S, so the constant clauses
are ``TRUE = (False, ())`` and ``FALSE = (True, ())``.  ``_clause`` gives
each dependency with its sentence wherever that is at hand: conjuncts,
instances, their negations, the body of a double negation, and the sentence
a ``quote`` numeral remembers (equal numerals are one object, so a numeral
written out remembers it too once anything quoted that sentence).
``build_universe`` decodes only codes that arrive as bare integers (values
of syntax-function terms, numerals no quote made, such as the liar's) and
keeps each code's sentence and clause, so the dependency graph is built
once.  It also keeps each sentence's code (``code_of``): equal sentences
are one object, so whether a sentence or its negation is in the fixed point
is a lookup there, with no code built to ask, and a sentence that has no
entry is not in the universe.  ``least_fixed_point`` iterates
semi-naively (Bancilhon & Ramakrishnan, 1986): after the first stage it
re-decides only the sentences that depend on a code that entered at the
previous stage, which gives the same stages as applying :func:`kripke_step`
from the empty set.  A term whose evaluation would build a code longer than
``coding.MAX_CODE_BITS`` bits raises ``CodeSizeError``, an ``EvalError``, and
an ``EvalError`` makes a clause false.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
#: a dependency's code, with its sentence where that is at hand (else None)
Dep = tuple[int, Formula | None]
TRUE: Clause = (False, ())
FALSE: Clause = (True, ())


@dataclass(frozen=True)
class SentenceUniverse:
    codes: frozenset[int]
    seeds: tuple[Formula, ...]
    term_bound: int
    #: code -> the sentence it decodes to
    sentences: dict[int, Formula] = field(compare=False, repr=False)
    #: sentence -> its code; the inverse of ``sentences``
    code_of: dict[Formula, int] = field(compare=False, repr=False)
    #: code -> the clause under which its sentence enters the fixed point
    clauses: dict[int, Clause] = field(compare=False, repr=False)

    def __contains__(self, code: int) -> bool:
        return code in self.codes


def _instances(phi: Forall, bound: int) -> list[Formula]:
    """``phi``'s body at S^k(0) for k = 0..bound; a closed numeral is never
    captured."""
    return [substitute(phi.body, phi.var, n) for n in chain_numerals(bound)]


def _dep(phi: Formula) -> Dep:
    return encode(phi), phi


def _ascribed(t) -> Dep:
    """The value of ``t`` and the sentence it names, if it remembers one;
    raises ``EvalError``."""
    return eval_term(t), quoted_sentence(t)


def _negated_ascribed(t) -> Dep | None:
    """The negation of the sentence named by ``t``, if any."""
    try:
        c, phi = _ascribed(t)
        if phi is None:
            phi = decode_sentence(c)
    except (EvalError, DecodeError):
        return None
    return _dep(Not(phi))


def _identity(phi: Eq, holds_if_equal: bool) -> Clause:
    try:
        equal = eval_term(phi.left) == eval_term(phi.right)
    except EvalError:
        return FALSE
    return TRUE if equal == holds_if_equal else FALSE


def _clause(phi: Formula, bound: int) -> tuple[bool, tuple[Dep, ...]]:
    """When ``phi`` enters a stage, with each dependency as a ``(code,
    sentence)`` pair; listed in the order the universe closure visits them."""
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
        return (False, (_dep(phi.left), _dep(phi.right)))
    if isinstance(phi, Forall):
        insts = _instances(phi, bound)
        return (False, tuple(_dep(i) for i in insts)) if insts else FALSE
    if isinstance(phi, Not):
        inner = phi.body
        if isinstance(inner, Eq):
            return _identity(inner, False)
        if isinstance(inner, Bot):
            return TRUE
        if isinstance(inner, Tr):
            dep = _negated_ascribed(inner.term)
            return FALSE if dep is None else (False, (dep,))
        if isinstance(inner, Not):
            return (False, (_dep(inner.body),))
        if isinstance(inner, And):
            return (True, (_dep(Not(inner.left)), _dep(Not(inner.right))))
        if isinstance(inner, Forall):
            return (True, tuple(_dep(Not(i)) for i in _instances(inner, bound)))
    return FALSE  # bot, not-top


def _holds(clause: Clause, S) -> bool:
    any_, deps = clause
    if any_:
        return any(d in S for d in deps)
    return all(d in S for d in deps)


def build_universe(seeds, term_bound: int, max_size: int = 5000) -> SentenceUniverse:
    """Dependency-closed finite universe of sentence codes, with each code's
    sentence and clause."""
    seeds = tuple(seeds)
    for s in seeds:
        if not is_sentence(s):
            raise UniverseError(f"seed is not a sentence: {s!r}")
    # A set of its own rather than the keys of ``sentences``: a frozenset
    # built from either holds the same codes but may iterate them in another
    # order, and the correspondence checks report in ``codes`` order.
    codes: set[int] = set()
    sentences: dict[int, Formula] = {}
    code_of: dict[Formula, int] = {}
    clauses: dict[int, Clause] = {}
    work = [_dep(s) for s in seeds]
    while work:
        c, phi = work.pop()
        if c in codes:
            continue
        if phi is None:  # a bare code: a term's value, not a quoted sentence
            try:
                phi = decode_sentence(c)
            except DecodeError:
                continue  # e.g. a truth ascription naming a non-sentence
        codes.add(c)
        if len(codes) > max_size:
            raise UniverseError(
                f"universe closure exceeded the size cap {max_size}"
            )
        sentences[c] = phi
        code_of[phi] = c
        any_, deps = _clause(phi, term_bound)
        clauses[c] = (any_, tuple(d for d, _ in deps))
        work.extend(deps)
    return SentenceUniverse(
        frozenset(codes), seeds, term_bound, sentences, code_of, clauses
    )


# ---------------------------------------------------------------------------
# Step operator and fixed point


def kripke_step(S, universe: SentenceUniverse) -> frozenset:
    """One application of the positive step operator; monotone in S."""
    S = frozenset(S)
    clauses = universe.clauses
    return frozenset(c for c in universe.codes if _holds(clauses[c], S))


@dataclass(frozen=True)
class FixedPoint:
    universe: SentenceUniverse
    stages: tuple[frozenset, ...]  # stages[i] = operator iterated i+1 times
    members: frozenset
    saturation_index: int
    norms: dict[int, int] = field(compare=False)

    def norm(self, code: int) -> int | None:
        return self.norms.get(code)

    def grounded(self, phi: Formula) -> bool:
        code_of = self.universe.code_of
        return (code_of.get(phi) in self.members
                or code_of.get(Not(phi)) in self.members)


def least_fixed_point(universe: SentenceUniverse) -> FixedPoint:
    """Iterate the step operator from the empty set to saturation.

    Stage 0 is the first application (so true identities have norm 0);
    norms record each member's first stage; the last stage repeats the one
    before it.  A sentence outside S_i can enter S_{i+1} only if a
    dependency of it entered at stage i, so after stage 0 only those
    sentences are re-decided."""
    clauses = universe.clauses
    users: dict[int, list[int]] = {}
    for c, (_, deps) in clauses.items():
        for d in deps:
            users.setdefault(d, []).append(c)
    stages: list[frozenset] = []
    norms: dict[int, int] = {}
    S: frozenset = frozenset()
    todo = universe.codes
    while True:
        entered = {c for c in todo if c not in S and _holds(clauses[c], S)}
        for c in entered:
            norms[c] = len(stages)
        stages.append(S | entered)
        if not entered:
            break
        S = stages[-1]
        todo = {u for d in entered for u in users.get(d, ())}
    return FixedPoint(universe, tuple(stages), S, len(stages) - 1, norms)


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
    code_of = fp.universe.code_of
    missing = []
    for side, occs in (("ante", d.conclusion.ante), ("succ", d.conclusion.succ)):
        for o in occs:
            backer = Not(o.formula) if side == "ante" else o.formula
            c = code_of.get(backer)
            if c is None:
                missing.append(backer)
                continue
            n = fp.norm(c)
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
    code_of = fp.universe.code_of
    for status, member, ante, succ in (("proved", phi, [], [phi]),
                                       ("refuted", Not(phi), [phi], [])):
        c = code_of.get(member)
        if c in fp.members:
            r = search_cut_free(ante, succ, budget, "lptn")
            if r.found:
                return CompletenessVerdict(
                    status, fp.norm(c), compute_measures(r.derivation).length
                )
            return CompletenessVerdict("budget_failure", fp.norm(c))
    return CompletenessVerdict("vacuous")


def check_transparency(fp: FixedPoint) -> list[tuple[int, int]]:
    """Pairs (code of T-ascription, ascribed code) violating transparency;
    empty means the fixed point is transparent on in-universe pairs."""
    bad = []
    for c in fp.universe.codes:
        phi = fp.universe.sentences[c]
        if isinstance(phi, Tr):
            try:
                inner = eval_term(phi.term)
            except EvalError:
                continue
            if inner in fp.universe.codes:
                if (c in fp.members) != (inner in fp.members):
                    bad.append((c, inner))
    return bad


def check_consistency(fp: FixedPoint) -> list[int]:
    """Codes whose sentence and negated sentence are both in the fixed point
    (must be empty)."""
    sentences, code_of = fp.universe.sentences, fp.universe.code_of
    return [
        c for c in fp.universe.codes
        if c in fp.members and code_of.get(Not(sentences[c])) in fp.members
    ]
