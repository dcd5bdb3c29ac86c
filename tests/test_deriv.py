"""Occurrence-tracked derivations and the measure triple.

The ten hand-annotated derivations below exercise every T-complexity clause:
leaves, truth-left/right (+1), iterated truth rules, negation and
universal-right transfer, conjunction and universal-left maxima, context
maxima across two-premise rules, the pointwise compositional rule (+1), and
the forcing of T-free occurrences to zero.
"""

import random

import pytest

from truthcut import build as B
from truthcut.coding import quote
from truthcut.deriv import (
    MeasureError,
    compute_measures,
    minus,
    remake,
    same_multiset,
    sequent,
)
from truthcut.kernel import check_derivation
from truthcut.syntax import And, Eq, Forall, Not, Suc, Tr, Zero

from proofgen import (
    and_left,
    and_right,
    bot_leaf,
    forall_left,
    forall_right,
    neg_left,
    neg_right,
    truth_left,
    truth_right,
)

PHI = Eq(Zero(), Zero())
TPHI = Tr(quote(PHI))


def _ante(d, f, nth=0):
    hits = [o for o in d.conclusion.ante if o.formula == f]
    return hits[nth]


def _succ(d, f, nth=0):
    hits = [o for o in d.conclusion.succ if o.formula == f]
    return hits[nth]


def _check(d, system="lptn"):
    assert check_derivation(d, system).ok
    return compute_measures(d)


def test_tau_leaf_all_zero():
    # [DERIVED] annotation: every occurrence of a leaf has tau 0
    d = B.init_leaf([TPHI, Not(PHI)], PHI, [TPHI])
    m = _check(d)
    for o in d.conclusion.all_occurrences():
        assert m.tau[o.id] == 0
    assert m.triple() == (0, 0, 0)


def test_tau_truth_left():
    # [DERIVED] annotation: T-left principal gets active's tau + 1 = 1
    lf = B.init_leaf([PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    m = _check(d)
    assert m.tau[_ante(d, TPHI).id] == 1
    assert m.tau[_succ(d, PHI).id] == 0  # T-free, clause forces 0
    assert m.triple() == (1, 0, 1)


def test_tau_truth_right():
    # [DERIVED] annotation: T-right principal gets active's tau + 1 = 1
    lf = B.init_leaf([PHI], PHI, [])
    d = truth_right(lf, lf.conclusion.succ[0].id)
    m = _check(d)
    assert m.tau[_succ(d, TPHI).id] == 1
    assert m.triple() == (1, 0, 1)


def test_tau_iterated_truth():
    # [DERIVED] annotation: two stacked T-lefts give tau 2
    lf = B.init_leaf([PHI], PHI, [])
    d1 = truth_left(lf, lf.conclusion.ante[0].id)
    d2 = truth_left(d1, _ante(d1, TPHI).id)
    m = _check(d2)
    ttphi = Tr(quote(TPHI))
    assert m.tau[_ante(d2, ttphi).id] == 2
    assert m.proof_tau == 2


def test_tau_negation_transfer():
    # [DERIVED] annotation: neg-left and neg-right transfer the active's tau
    lf = B.init_leaf([PHI], PHI, [])
    d1 = truth_right(lf, lf.conclusion.succ[0].id)  # PHI => T<PHI>, tau 1
    d2 = neg_left(d1, _succ(d1, TPHI).id)           # not T<PHI>, PHI =>
    m = _check(d2)
    assert m.tau[_ante(d2, Not(TPHI)).id] == 1
    d3 = neg_right(d2, _ante(d2, PHI).id)           # not T<PHI> => not PHI
    m = _check(d3)
    assert m.tau[_succ(d3, Not(PHI)).id] == 0  # T-free
    assert m.tau[_ante(d3, Not(TPHI)).id] == 1


def test_tau_and_left_max():
    # [DERIVED] annotation: conjunction principal takes the max (1, 0) = 1
    lf = B.init_leaf([PHI, PHI], PHI, [])
    d1 = truth_left(lf, lf.conclusion.ante[0].id)  # T<PHI>, PHI, PHI => PHI
    d2 = and_left(d1, _ante(d1, TPHI).id, _ante(d1, PHI, 0).id)
    m = _check(d2)
    assert m.tau[_ante(d2, And(TPHI, PHI)).id] == 1


def test_tau_and_right_max():
    # [DERIVED] annotation: right conjunction takes max of premise actives
    a0 = B.init_leaf([], PHI, [])
    a1 = truth_right(a0, a0.conclusion.succ[0].id)  # PHI => T<PHI>
    b = B.init_leaf([], PHI, [])                      # PHI => PHI
    d = and_right(a1, _succ(a1, TPHI).id, b, b.conclusion.succ[0].id)
    m = _check(d)
    assert m.tau[_succ(d, And(TPHI, PHI)).id] == 1


def test_tau_cut_context_max_and_rank():
    # [DERIVED] annotation: the shared context T<PHI> has tau 1 in the left
    # premise and 0 in the right; the conclusion context takes the max = 1.
    # Cut rank = logical complexity of the atomic cut formula + 1 = 1.
    from truthcut.syntax import Bot

    a0 = B.init_leaf([Bot()], PHI, [])
    a1 = truth_left(a0, _ante(a0, PHI).id)          # bot, T<PHI> => PHI
    b = bot_leaf([PHI, TPHI], [])                   # PHI, T<PHI>, bot =>
    d = B.cut(a1, _succ(a1, PHI).id, b, _ante(b, PHI).id)
    m = _check(d, "lgt")
    assert m.tau[_ante(d, TPHI).id] == 1
    assert m.cut_rank == 1
    assert m.length == 2


def test_tau_forall_right_transfer():
    # [DERIVED] annotation: universal-right principal transfers the active's 1
    lf = B.init_leaf([PHI], PHI, [])
    d1 = truth_right(lf, lf.conclusion.succ[0].id)  # PHI => T<PHI>
    fa = Forall("x", TPHI)
    d2 = forall_right(d1, _succ(d1, TPHI).id, fa, "x")
    m = _check(d2)
    assert m.tau[_succ(d2, fa).id] == 1


def test_tau_forall_left_max():
    # [DERIVED] annotation: universal-left principal takes the max over the
    # kept quantified occurrence (0) and the instance (1)
    fa = Forall("x", TPHI)
    lf = B.init_leaf([fa, PHI], PHI, [])
    d1 = truth_left(lf, _ante(lf, PHI, 0).id)       # fa, T<PHI>, PHI => PHI
    d2 = forall_left(d1, _ante(d1, fa).id, _ante(d1, TPHI).id, Zero())
    m = _check(d2)
    assert m.tau[_ante(d2, fa).id] == 1


def test_tau_compositional_plus_one():
    # [DERIVED] annotation: compositional principal = max(1, 0) + 1 = 2
    a0 = B.init_leaf([], PHI, [])
    a1 = truth_right(a0, a0.conclusion.succ[0].id)  # PHI => T<PHI>
    b = B.init_leaf([], PHI, [])                      # PHI => PHI
    d = B.comp_node(a1, _succ(a1, TPHI).id, b, b.conclusion.succ[0].id)
    m = _check(d, "lptn_comp")
    principal = [o for o in d.conclusion.succ if isinstance(o.formula, Tr)][0]
    assert m.tau[principal.id] == 2
    assert m.proof_tau == 2


def _negl():
    """A negl node over an init leaf with a context occurrence each side."""
    leaf = B.init_leaf([PHI], PHI, [TPHI])
    return neg_left(leaf, leaf.conclusion.succ[0].id)


def test_measures_refuse_lineage_to_an_unknown_occurrence():
    # [DERIVED] a lineage entry whose parent no premise holds
    d = _negl()
    cid = d.conclusion.ante[0].id
    bad = remake(d, lineage={**d.lineage, cid: ((0, 99_999_999),)})
    with pytest.raises(MeasureError) as e:
        compute_measures(bad)
    assert str(e.value) == "lineage refers to unknown occurrence: 99999999"


def test_measures_refuse_a_context_occurrence_without_lineage():
    # [DERIVED]
    d = _negl()
    cid = d.conclusion.succ[0].id
    lineage = dict(d.lineage)
    del lineage[cid]
    with pytest.raises(MeasureError) as e:
        compute_measures(remake(d, lineage=lineage))
    assert str(e.value) == f"occurrence {cid} at rule negl has no lineage"


def test_length_is_tree_height():
    # [TRIVIAL] length counts rule applications on the longest branch
    lf = B.init_leaf([PHI, PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    d = truth_left(d, _ante(d, PHI, 0).id)
    d = neg_right(d, _ante(d, PHI).id)
    assert compute_measures(d).length == 3


def test_refresh_ids_preserves_structure():
    # [TRIVIAL]
    from truthcut.deriv import refresh_ids

    lf = B.init_leaf([PHI], PHI, [TPHI])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    d2 = refresh_ids(d)
    assert check_derivation(d2, "lptn").ok
    assert d2.conclusion.ante_formulas() == d.conclusion.ante_formulas()
    old = {o.id for o in d.conclusion.all_occurrences()}
    new = {o.id for o in d2.conclusion.all_occurrences()}
    assert old.isdisjoint(new)


def test_remake_keeps_every_field_it_is_not_given():
    # [TRIVIAL] a field passed is set, even to () or None; the rest stay
    from dataclasses import fields

    from truthcut.deriv import remake

    lf = B.init_leaf([PHI], PHI, [])
    d = truth_left(lf, lf.conclusion.ante[0].id)
    assert all(getattr(remake(d), f.name) is getattr(d, f.name)
               for f in fields(d))
    e = remake(d, term=Zero(), var="y")
    assert (e.term, e.var, e.premises) == (Zero(), "y", d.premises)
    e = remake(e, premises=(), principal=(), actives=(), lineage={},
               term=None, var=None)
    assert (e.premises, e.principal, e.actives, e.lineage, e.term, e.var) \
        == ((), (), (), {}, None, None)
    assert (e.rule, e.conclusion) == (d.rule, d.conclusion)


def test_no_module_rebuilds_nodes_with_dataclasses_replace():
    # [DERIVED] every rebuild goes through deriv.remake, which constructs
    # the node directly at about half the cost of dataclasses.replace
    import ast
    import pathlib

    import truthcut

    for path in pathlib.Path(truthcut.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                assert "replace" not in {a.name for a in node.names}, path.name
            if isinstance(node, ast.Attribute) and node.attr == "replace":
                assert not (isinstance(node.value, ast.Name)
                            and node.value.id == "dataclasses"), path.name


# ---------------------------------------------------------------------------
# First-fit matching


def test_first_honours_side_and_skip():
    # [DERIVED] the first occurrence of the formula on the side asked for,
    # passing over the ids in skip; None when none is left
    s = sequent([TPHI, PHI, PHI], [PHI, TPHI])
    a0, a1, a2 = (o.id for o in s.ante)
    s0, s1 = (o.id for o in s.succ)
    assert s.first("ante", PHI) == a1
    assert s.first("ante", PHI, (a1,)) == a2
    assert s.first("ante", PHI, {a1, a2}) is None
    assert s.first("succ", PHI) == s0
    assert s.first("succ", TPHI) == s1
    assert s.first("succ", PHI, (s0, a1)) is None
    assert s.first("ante", Not(PHI)) is None


def _first_fit_minus(xs, ys):
    """Reference: for each y in turn, drop the first x equal to it that is
    still there."""
    gone = set()
    for y in ys:
        for i, x in enumerate(xs):
            if i not in gone and x == y:
                gone.add(i)
                break
    return [x for i, x in enumerate(xs) if i not in gone]


def test_minus_and_same_multiset_match_a_first_fit_loop():
    # [DERIVED] on 2000 random lists over four formulas, with duplicates and
    # equal formulas built apart, minus keeps the order and the
    # very objects the reference loop keeps, and same_multiset is the
    # multiset equality of sorted texts
    rng = random.Random(17)
    makers = [lambda: Eq(Zero(), Zero()), lambda: Tr(quote(PHI)),
              lambda: Not(PHI), lambda: Eq(Suc(Zero()), Zero())]
    shared = [make() for make in makers]

    def draw():
        return [rng.choice(shared) if rng.random() < 0.7
                else rng.choice(makers)() for _ in range(rng.randrange(7))]

    for _ in range(2000):
        xs, ys = draw(), draw()
        got, want = minus(xs, ys), _first_fit_minus(xs, ys)
        assert got == want and all(g is w for g, w in zip(got, want))
        assert same_multiset(xs, ys) == (sorted(map(repr, xs)) == sorted(map(repr, ys)))
        assert same_multiset(xs, rng.sample(xs, len(xs)))
