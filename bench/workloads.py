"""The three workloads: seeded input generation, the timed op, and the
reference check of each op's answer.

Every call into truthcut goes through a module attribute
(``script.parse_script``, ``transform.eliminate_cuts``, ...), so the
wrappers that ``tracing`` installs on those attributes see it.

Each pass draws a fresh input list from ``random.Random(f"{name}:{seed}:{index}")``
and never repeats an input an earlier pass of the same process saw (the
``seen`` set), so a cache that outlives one call can win only from sharing
inside genuinely different inputs.  Each pass has the same composition
(the same size classes in the same numbers); the seed picks contexts,
order, mutations and sentences within them.  That keeps one pass's cost
steady from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from truthcut import arith, build, coding, deriv, kernel, script, search, semantics, transform
from truthcut.sexpr import format_formula
from truthcut.syntax import And, Eq, Forall, Not, Plus, Suc, Times, Tr, Var, Zero

import reference as ref

# ---------------------------------------------------------------------------
# Trees -> truthcut syntax


def to_term(t):
    tag = t[0]
    if tag == "0":
        return Zero()
    if tag == "S":
        return Suc(to_term(t[1]))
    if tag == "+":
        return Plus(to_term(t[1]), to_term(t[2]))
    if tag == "*":
        return Times(to_term(t[1]), to_term(t[2]))
    if tag == "var":
        return Var(t[1])
    raise ValueError(f"not a term tree: {t!r}")


def to_formula(f):
    tag = f[0]
    if tag == "=":
        return Eq(to_term(f[1]), to_term(f[2]))
    if tag == "not":
        return Not(to_formula(f[1]))
    if tag == "and":
        return And(to_formula(f[1]), to_formula(f[2]))
    if tag == "T":
        return Tr(coding.quote(to_formula(f[1])))
    if tag == "forall":
        return Forall(f[1], to_formula(f[2]))
    if tag == "liar":
        return coding.liar()
    if tag == "teller":
        return coding.truth_teller()
    raise ValueError(f"not a formula tree: {f!r}")


def random_qf(rng: random.Random, depth: int, top: int = 3):
    """Closed quantifier-free formula tree over equations of chain numerals
    0..top, with at most ``depth`` connectives on any branch."""
    if depth == 0 or rng.random() < 0.4:
        return ("=", ref.chain(rng.randrange(top + 1)), ref.chain(rng.randrange(top + 1)))
    if rng.random() < 0.5:
        return ("not", random_qf(rng, depth - 1, top))
    return ("and", random_qf(rng, depth - 1, top), random_qf(rng, depth - 1, top))


def random_true_qf(rng: random.Random, depth: int):
    while True:
        f = random_qf(rng, depth)
        if ref.holds(f):
            return f


# ---------------------------------------------------------------------------
# check: script I/O + kernel + measures on one large proof per op


@dataclass(frozen=True)
class CheckInput:
    text: str
    mutated: bool
    length: int  # reference tree height, read from the script's premise lists


def _check_family():
    """(op, a, b, c) for every equation of one pass: 48 true products
    (20-36 nodes) and 53 false sums and products (15-63 nodes)."""
    true = [("*", a, b, a * b) for a, b in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4))]
    false = [("+", a, b, a + b + d) for a in (2, 3, 4) for b in (2, 3, 4)
             for d in (-2, -1, 1, 2, 3)]
    false += [("*", a, b, a * b + d) for a, b in ((2, 2), (3, 2), (2, 3), (4, 2))
              for d in (-1, 1)]
    return true * 8 + false


def _context_pool():
    eqs = [("=", ref.chain(i), ref.chain(j)) for i in range(6) for j in range(6)]
    return [to_formula(f) for f in eqs + [("not", e) for e in eqs]]


class Check:
    name = "check"
    system = "qg"
    pass_hint_s = 5.0  # one untraced pass, 2-core x86 VM, CPython 3.11

    def __init__(self):
        self.family = _check_family()
        self.contexts = _context_pool()

    def generate(self, seed: int, index: int, seen: set, limit: int | None = None):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        family = list(self.family)
        rng.shuffle(family)
        family = family[:limit] if limit else family
        mutated = set(rng.sample(range(len(family)), len(family) // 4))
        out = []
        for j, (op, a, b, c) in enumerate(family):
            lhs = (op, ref.chain(a), ref.chain(b))
            s, t = to_term(lhs), to_term(ref.chain(c))
            build_proof = arith.prove_equation if ref.value(lhs) == c else arith.refute_equation
            while True:
                phi = rng.choice(self.contexts)
                gamma, delta = ([phi], []) if rng.random() < 0.5 else ([], [phi])
                d = build_proof(gamma, s, t, delta)
                text = script.print_script(d)
                if j in mutated:
                    text = _smuggle(text, rng.choice(self.contexts))
                if text not in seen:
                    break
            seen.add(text)
            out.append(CheckInput(text, j in mutated, ref.script_length(text)))
        return out

    def op(self, inp: CheckInput):
        d = script.parse_script(inp.text)
        report = kernel.check_derivation(d, self.system)
        if not report.ok:
            return False, sorted(report.codes()), None
        return True, [], deriv.compute_measures(d).triple()

    def verdict(self, inp: CheckInput, answer) -> bool:
        ok, codes, triple = answer
        if inp.mutated:
            return not ok and codes == ["LINEAGE_BROKEN"]
        return ok and triple == (inp.length, 0, 0)


def _smuggle(text: str, phi) -> str:
    """Add one formula to the root line: a smuggled weakening."""
    lines = text.rstrip("\n").split("\n")
    root = lines[-1]
    sep = " " if root.endswith("=>") else ", "
    lines[-1] = root + sep + format_formula(phi)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# elim: transforms with their internal kernel and measure re-checks


class Elim:
    name = "elim"
    system = "lptn"
    pass_hint_s = 5.0
    budget = search.SearchBudget(max_depth=6, max_term_index=2, max_tau_unfold=3)

    def __init__(self):
        # premises skipped because search_cut_free raised BuildError, or
        # returned a proof of another end sequent
        self.counts = {"search_build_errors": 0, "search_wrong_sequent": 0}

    def _cut_formula(self, rng, kind: int):
        """A truth atom (kind 0), a negated atom (1) or a conjunction with a
        truth atom (2)."""
        atom = ("T", random_true_qf(rng, 3))
        if kind == 0:
            return atom
        other = rng.choice((("T", random_qf(rng, 2)), random_qf(rng, 0)))
        if kind == 1:
            return ("not", other)
        return ("and", atom, other) if rng.random() < 0.5 else ("and", other, atom)

    def _premise(self, ante, succ):
        try:
            r = search.search_cut_free(ante, succ, self.budget, self.system)
        except build.BuildError:
            self.counts["search_build_errors"] += 1
            return None
        if r.derivation is not None and not ref.proves(r.derivation, ante, succ):
            self.counts["search_wrong_sequent"] += 1
            return None
        return r.derivation

    def _one(self, rng, kinds):
        ncuts = len(kinds)
        goal = ("T", random_true_qf(rng, 2))
        cuts = [self._cut_formula(rng, kind) for kind in kinds]
        key = (goal, tuple(cuts))
        delta = [to_formula(goal)]

        def chain(k, gamma):
            if k == ncuts:
                return self._premise(gamma, delta)
            phi = to_formula(cuts[k])
            d0 = self._premise(gamma, delta + [phi])
            d1 = chain(k + 1, [phi] + gamma)
            if d0 is None or d1 is None:
                return None
            aid = next(o.id for o in d0.conclusion.succ if o.formula == phi)
            bid = next(o.id for o in d1.conclusion.ante if o.formula == phi)
            return build.cut(d0, aid, d1, bid)

        return key, chain(0, [])

    def generate(self, seed: int, index: int, seen: set, limit: int | None = None):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        # 40 inputs each with 2, 3 and 4 cuts; the kinds of cut formula
        # rotate with the slot, so every pass has the same mix
        plan = [[(j // 3 + i) % 3 for i in range(2 + j % 3)] for j in range(120)]
        rng.shuffle(plan)
        out = []
        for kinds in plan[:limit] if limit else plan:
            while True:
                key, d = self._one(rng, kinds)
                if d is not None and key not in seen:
                    break
            seen.add(key)
            out.append(d)
        return out

    def op(self, d):
        return transform.eliminate_cuts(d, self.system).derivation

    def verdict(self, d, out) -> bool:
        end = d.conclusion
        return not ref.tree_facts(out)[1] and ref.proves(
            out, [o.formula for o in end.ante], [o.formula for o in end.succ])


# ---------------------------------------------------------------------------
# fixpoint: search, coding and semantics; the kernel and transforms idle


@dataclass(frozen=True)
class FixpointInput:
    trees: tuple
    seeds: tuple
    term_bound: int


_X = ("var", "x")
_QUANT_TERMS = [
    _X, ("S", _X), ("+", _X, ("0",)), ("+", _X, ref.chain(1)), ("*", _X, ("0",)),
    ("*", _X, ref.chain(1)), ("*", _X, _X), ("0",), ref.chain(1), ref.chain(2),
]
_LIARS = [("liar",), ("teller",), ("not", ("liar",)), ("not", ("teller",))]


class Fixpoint:
    name = "fixpoint"
    pass_hint_s = 4.0
    budget = search.SearchBudget(max_depth=4, max_term_index=1, max_tau_unfold=3)

    @staticmethod
    def _target_bits(rank: float) -> float:
        """Code size for a slot at ``rank`` in [0, 1]: log-spaced from 2^6
        to 2^16 bits, because an op's cost follows its largest code."""
        return 2 ** (6 + 10 * rank)

    def _wrapped(self, rng, target: float, pattern: int):
        """Quantifier-free sentence under truth or negated-truth ascriptions
        whose code has about ``target`` bits.  Bit i of ``pattern`` picks
        ``T`` (0) or ``not T`` (1) for the i-th wrapper; ``T`` multiplies a
        code's bit length by about 4 and ``not T`` by about 8.  The base
        formula is the one of 12 drawn that comes closest to the target."""
        count = sum(target >= cut for cut in (256, 2048, 12_000))
        wrappers = [not (pattern >> i) & 1 for i in range(count)]
        scale = math.prod(4 if truth else 8 for truth in wrappers)

        def miss(f):
            return abs(math.log(coding.encode(to_formula(f)).bit_length() * scale / target))

        f = min((random_qf(rng, 2) for _ in range(12)), key=miss)
        for truth in wrappers:
            f = ("T", f) if truth else ("not", ("T", f))
        return f, to_formula(f)

    def _quantified(self, rng):
        body = ("=", rng.choice(_QUANT_TERMS), rng.choice(_QUANT_TERMS))
        if rng.random() < 0.3:
            body = ("not", body)
        return ("forall", "x", body)

    def generate(self, seed: int, index: int, seen: set, limit: int | None = None):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        n = 120
        # (first seed's code bits, second seed's, wrapper pattern, term bound)
        slots = [(self._target_bits(j / (n - 1)), self._target_bits(0.8 * (n - 1 - j) / (n - 1)),
                  j, 8 + j % 4) for j in range(n)]
        rng.shuffle(slots)
        out = []
        for big, small, pattern, tb in slots[:limit] if limit else slots:
            while True:
                (t1, p1) = self._wrapped(rng, big, pattern)
                (t2, p2) = self._wrapped(rng, small, pattern >> 3)
                t3 = self._quantified(rng)
                t4 = rng.choice(_LIARS)
                trees = (t1, t2, t3, t4)
                if (trees, tb) not in seen:
                    break
            seen.add((trees, tb))
            seeds = (p1, p2, to_formula(t3), to_formula(t4))
            out.append(FixpointInput(trees, seeds, tb))
        return out

    def op(self, inp: FixpointInput):
        found = []
        for phi in inp.seeds:
            right = search.search_cut_free([], [phi], self.budget, "lptn").found
            left = search.search_cut_free([phi], [], self.budget, "lptn").found
            found.append((right, left))
        universe = semantics.build_universe(inp.seeds, inp.term_bound)
        fp = semantics.least_fixed_point(universe)
        members = [coding.encode(phi) in fp.members for phi in inp.seeds]
        return (found, members, semantics.check_transparency(fp),
                semantics.check_consistency(fp))

    def verdict(self, inp: FixpointInput, answer) -> bool:
        found, members, opaque, inconsistent = answer
        if opaque or inconsistent:
            return False
        for tree, (right, left), member in zip(inp.trees, found, members):
            truth = ref.holds(tree, inp.term_bound)
            if truth is None:
                if right or left or member:
                    return False
                continue
            if member != truth or (right and not truth) or (left and truth):
                return False
        return True


WORKLOADS = {w.name: w for w in (Check, Elim, Fixpoint)}
