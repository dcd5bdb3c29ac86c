"""The logical rules' table (``build.LOGICAL_RULES``) and the builder that
finds a node's actives by their formulas (``build.logical``)."""

import pathlib
import random
import sys

from truthcut import build as B
from truthcut.kernel import check_derivation
from truthcut.script import _infer_instance
from truthcut.syntax import And, Eq, Forall, Not, Suc, Var, Zero, substitute

import proofgen

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/ holds the benchmark's input generators)

ZERO = Zero()
A = Eq(ZERO, ZERO)
AA = And(A, A)


def _sentences(rng, n):
    """``n`` closed formulas: half from ``workloads.random_qf``, half from
    ``proofgen``'s context and cut formulas."""
    pool = proofgen.CONTEXT_POOL + proofgen.CUT_FORMULAS
    return [workloads.to_formula(workloads.random_qf(rng, 3)) if k % 2
            else rng.choice(pool) for k in range(n)]


def _universal(rng, f):
    """A universal over ``x`` whose body holds ``f`` and ``x``."""
    atom = Eq(Var("x"), rng.choice((ZERO, Suc(ZERO), Suc(Var("x")))))
    return Forall("x", rng.choice((And(f, atom), And(atom, Not(f)), atom)))


def test_parts_of_a_made_principal_are_its_actives():
    # [DERIVED] for every rule with ``make``, ``parts`` gives back the
    # actives it was made from; forallr's universal, which its instance
    # does not make, gives back the instance that the script reader infers
    # the eigenvariable from
    rng = random.Random(41)
    for f, g in zip(_sentences(rng, 200), _sentences(rng, 200)):
        for rule in ("Tl", "Tr", "negl", "negr"):
            entry = B.LOGICAL_RULES[rule]
            assert entry.parts(entry.make(f), None) == (f,)
        for rule in ("andl", "andr"):
            entry = B.LOGICAL_RULES[rule]
            assert entry.parts(entry.make(f, g), None) == (f, g)
        u = _universal(rng, f)
        t = rng.choice((ZERO, Suc(ZERO), Suc(Suc(ZERO))))
        actives = (u, substitute(u.body, "x", t))
        entry = B.LOGICAL_RULES["foralll"]
        assert entry.parts(entry.make(*actives), t) == actives
        [inst] = B.LOGICAL_RULES["forallr"].parts(u, Var("y"))
        assert _infer_instance(u, inst) == Var("y")


def test_equal_parts_get_distinct_actives():
    # [DERIVED] each lookup skips the ids already picked, so andl over
    # (and A A) consumes both copies of A, and andr one in each premise
    two = B.init_leaf([A], A, [])          # A, A => A
    d = B.logical("andl", [two], (A, A))
    (_, i0), (_, i1) = d.actives
    assert i0 != i1
    assert d.conclusion.ante_formulas() == [AA]
    assert check_derivation(d, "lptn").ok
    p0, p1 = B.init_leaf([], A, []), B.init_leaf([], A, [])
    d = B.logical("andr", [p0, p1], (A, A))
    assert [pi for pi, _ in d.actives] == [0, 1]
    assert d.conclusion.succ_formulas() == [AA]
    assert check_derivation(d, "lptn").ok


def test_missing_part_builds_nothing():
    # [DERIVED] a part the premise does not hold twice is missing
    one = B.init_leaf([], A, [])           # A => A
    assert B.logical("andl", [one], (A, A)) is None
