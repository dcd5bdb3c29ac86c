"""Whole-derivation walks: the post-order fold, the pre-order node iterator,
and every walk on a proof far taller than Python's recursion limit,
including the transforms that follow occurrences up their ancestry."""

import random
import sys
import tracemalloc

import pytest

from truthcut import build as B
from truthcut.coding import truth_teller
from truthcut.deriv import compute_measures, fold, refresh_ids
from truthcut.kernel import check_derivation
from truthcut.script import fingerprint, print_script
from truthcut.syntax import Eq, Not, Var, Zero
from truthcut.transform import (
    contract,
    drop_context,
    eliminate_cuts,
    invert,
    reduce_cut,
    substitute_proof,
    weaken,
)

from proofgen import nested_cuts, truth_left, truth_right

X = Var("x")
E = Eq(X, X)
TAU = truth_teller()
TR_STEPS = 1500


def _tall_proof():
    """E => E, tau: a rank-1 cut of two init leaves on E, then TR_STEPS
    applications of Tr to the truth-teller tau = T<tau>, each of which
    keeps the sequent as it is."""
    d0 = B.init_leaf([], E, [E, TAU])      # E => E, E, tau
    d1 = B.init_leaf([E], E, [TAU])        # E, E => E, tau
    d = B.cut(d0, d0.conclusion.succ[0].id, d1, d1.conclusion.ante[1].id)
    for _ in range(TR_STEPS):
        d = truth_right(d, d.conclusion.succ[-1].id)
    return d


TALL = _tall_proof()


def _shallow(run):
    """Run ``run()`` with the recursion limit 50 frames above this call."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


def _recursive_pre_order(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _recursive_pre_order(p, path + (i,))


def _recursive_post_order(d):
    for p in d.premises:
        yield from _recursive_post_order(p)
    yield d


def test_walk_orders():
    # [DERIVED] iter_paths keeps the recursive pre-order (path, node)
    # sequence and iter_nodes its nodes; fold visits in recursive post-order and hands each node its
    # premises' results left to right
    rng = random.Random(11)
    for _ in range(20):
        d = None
        while d is None:
            d = nested_cuts(rng, 3)
        assert list(d.iter_paths()) == list(_recursive_pre_order(d))
        assert list(d.iter_nodes()) == [n for _, n in _recursive_pre_order(d)]
        seen = []

        def step(node, done):
            assert done == list(node.premises)
            seen.append(node)
            return node

        assert fold(d, step) is d
        assert seen == list(_recursive_post_order(d))


WALKS = {
    "iter_nodes": (lambda: [len(n.conclusion.all_occurrences())
                            for n in TALL.iter_nodes()],
                   lambda widths: len(widths) == TR_STEPS + 3
                   and set(widths) == {3, 4}),
    "check_derivation": (lambda: check_derivation(TALL, "lptn"),
                         lambda r: r.ok),
    "compute_measures": (lambda: compute_measures(TALL),
                         lambda m: m.triple() == (TR_STEPS + 1, 1, TR_STEPS)),
    "refresh_ids": (lambda: refresh_ids(TALL),
                    lambda d: check_derivation(d, "lptn").ok),
    "print_script": (lambda: print_script(TALL),
                     lambda text: text.count("\n") == TR_STEPS + 3),
    "fingerprint": (lambda: fingerprint(TALL),
                    lambda fp: fp == fingerprint(refresh_ids(TALL))),
    "weaken": (lambda: weaken(TALL, [Eq(Zero(), Zero())], [], "lptn"),
               lambda r: r.certificate.output_measures
               == (TR_STEPS + 1, 1, TR_STEPS)),
    "substitute_proof": (lambda: substitute_proof(TALL, "x", Zero(), "lptn"),
                         lambda r: r.derivation.conclusion.ante[0].formula
                         == Eq(Zero(), Zero())),
    "eliminate_cuts": (lambda: eliminate_cuts(TALL, "lptn"),
                       lambda r: r.certificate.output_measures
                       == (TR_STEPS, 0, TR_STEPS)),
}


@pytest.mark.parametrize("name", WALKS)
def test_walks_need_no_recursion(name):
    # [DERIVED] every whole-derivation walk runs on a 1503-node proof with
    # the recursion limit 50 frames above the caller
    run, check = WALKS[name]
    assert check(_shallow(run))


def _tower(d, left=False):
    """``d`` under TR_STEPS applications of Tr (Tl with ``left``) to the
    truth-teller, as in :func:`_tall_proof`."""
    for _ in range(TR_STEPS):
        if left:
            tau = next(o for o in d.conclusion.ante if o.formula == TAU)
            d = truth_left(d, tau.id)
        else:
            tau = next(o for o in d.conclusion.succ if o.formula == TAU)
            d = truth_right(d, tau.id)
    return d


def _side_formula_cut():
    """E => E, tau: a rank-1 cut on E whose left premise carries it as a side
    formula under the tower; the right premise is an init leaf."""
    d0 = _tower(B.init_leaf([], E, [E, TAU]))    # E => E, E, tau
    d1 = B.init_leaf([E], E, [TAU])              # E, E => E, tau
    return B.cut(d0, d0.conclusion.succ[1].id, d1, d1.conclusion.ante[1].id)


def _tall_push():
    """(d0, id, d1, id) of a cut on E whose left premise carries it as a side
    formula under the tower, against E, E => E, tau under one Tr step, so
    that the right premise is not an axiom."""
    d0 = _tower(B.init_leaf([], E, [E, TAU]))    # E => E, E, tau
    d1 = B.init_leaf([E], E, [TAU])              # E, E => E, tau
    d1 = truth_right(d1, d1.conclusion.succ[-1].id)
    return d0, d0.conclusion.succ[1].id, d1, d1.conclusion.ante[1].id


def _truth_teller_cut():
    """E => E: a cut on tau between E => E, tau under Tr steps and
    E, tau => E under Tl steps, principal on both sides at every level."""
    d0 = _tower(B.init_leaf([], E, [TAU]))              # E => E, tau
    d1 = _tower(B.init_leaf([TAU], E, []), left=True)   # tau, E => E
    return B.cut(d0, d0.conclusion.succ[-1].id, d1, d1.conclusion.ante[0].id)


NEG_E = Not(E)
#: ~E, E, E, E => E, tau under the tower; the first three are pure context
CONTEXT = _tower(B.init_leaf([NEG_E, E, E], E, [TAU]))
SIDE_CUT = _side_formula_cut()
TRUTH_CUT = _truth_teller_cut()
TALL_PUSH = _tall_push()


def _ante(f, nth=0):
    return [o.id for o in CONTEXT.conclusion.ante if o.formula == f][nth]


ANCESTRY_WALKS = {
    "eliminate_cuts side formula": (
        lambda: eliminate_cuts(SIDE_CUT, "lptn"),
        lambda r: r.certificate.output_measures
        == (TR_STEPS, 0, TR_STEPS)),
    "eliminate_cuts tall push": (
        lambda: eliminate_cuts(B.cut(*TALL_PUSH), "lptn"),
        lambda r: r.certificate.output_measures
        == (TR_STEPS, 0, TR_STEPS)),
    "reduce_cut tall push": (
        lambda: reduce_cut(*TALL_PUSH, "lptn"),
        lambda r: r.certificate.output_measures
        == (TR_STEPS, 0, TR_STEPS)),
    "eliminate_cuts truth-teller": (
        lambda: eliminate_cuts(TRUTH_CUT, "lptn"),
        lambda r: r.certificate.output_measures == (0, 0, 0)),
    "invert": (
        lambda: invert(CONTEXT, _ante(NEG_E), "lptn"),
        lambda r: r.derivation.conclusion.succ_formulas() == [E, TAU, E]
        and r.certificate.output_measures == (TR_STEPS, 0, TR_STEPS)),
    "contract": (
        lambda: contract(CONTEXT, _ante(E, 0), _ante(E, 1), "lptn"),
        lambda r: r.derivation.conclusion.ante_formulas() == [NEG_E, E, E]
        and r.certificate.output_measures == (TR_STEPS, 0, TR_STEPS)),
    "drop_context": (
        lambda: drop_context(CONTEXT, _ante(NEG_E)),
        lambda d: d.conclusion.ante_formulas() == [E, E, E]
        and check_derivation(d, "lptn").ok),
}


@pytest.mark.parametrize("name", ANCESTRY_WALKS)
def test_ancestry_walks_need_no_recursion(name):
    # [DERIVED] the transforms that follow occurrences up a 1500-node
    # ancestry run with the recursion limit 50 frames above the caller
    run, check = ANCESTRY_WALKS[name]
    assert check(_shallow(run))


def test_kernel_memory_is_linear_in_proof_height():
    # [DERIVED] the kernel keeps no path per node: on a 3000-high tower
    # its allocation peak stays under 8 MB (keeping every node's path took
    # 37 MB, growing with the square of the height)
    d = TALL
    for _ in range(3000 - TR_STEPS):
        d = truth_right(d, d.conclusion.succ[-1].id)
    tracemalloc.start()
    try:
        assert check_derivation(d, "lptn").ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
