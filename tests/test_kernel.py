"""Kernel validation: rule admissibility per system and reason codes."""

import random

import pytest

from truthcut import build as B
from truthcut.coding import quote
from truthcut.kernel import (
    SYSTEMS,
    check_derivation,
)
from truthcut.script import parse_script
from truthcut.syntax import Eq, Forall, Not, Suc, Tr, Var, Zero

from proofgen import random_derivation

PHI = Eq(Zero(), Zero())


def _codes(text, system):
    return check_derivation(parse_script(text), system).codes()


def test_systems_list():
    # [TRIVIAL]
    assert SYSTEMS == ("lgt", "qg", "lptn", "lptn_comp")


def test_valid_random_derivations_per_system():
    # [DERIVED] the generator only emits rule applications of the target system
    rng = random.Random(7)
    for _ in range(50):
        assert check_derivation(random_derivation(rng, system="lgt"), "lgt").ok
        assert check_derivation(random_derivation(rng, system="lptn"), "lptn").ok


def test_truth_free_initial_sequent_ok():
    # [TRIVIAL] equations are admissible initial principals, open or closed
    assert check_derivation(B.init_leaf([], Eq(Var("x"), Zero()), []), "qg").ok


def test_ref_restriction_rejects_truth_principal():
    # [DERIVED] a truth ascription may not be an initial principal
    t = "1: init [] (T (quote (= 0 0))) => (T (quote (= 0 0)))\n"
    assert _codes(t, "lgt") == {"REF_MINUS_T_PRINCIPAL"}


def test_ref_restriction_rejects_compound_principal():
    # [DERIVED]
    t = "1: init [] (not (= 0 0)) => (not (= 0 0))\n"
    assert _codes(t, "lgt") == {"REF_MINUS_T_PRINCIPAL"}


def test_rule_gating_by_system():
    # [DERIVED] truth rules are absent from the arithmetical base system;
    # top/bot leaves are absent outside the logical system; the pointwise
    # compositional rule needs its own system
    lf = B.init_leaf([PHI], PHI, [])
    d = B.truth_left(lf, lf.conclusion.ante[0].id)
    assert check_derivation(d, "lptn").ok
    assert check_derivation(d, "qg").codes() == {"RULE_NOT_IN_SYSTEM"}

    top = B.top_leaf([], [])
    assert check_derivation(top, "lgt").ok
    assert "RULE_NOT_IN_SYSTEM" in check_derivation(top, "lptn").codes()

    a = B.init_leaf([], PHI, [])
    b = B.init_leaf([], PHI, [])
    comp = B.comp_node(a, a.conclusion.succ[0].id, b, b.conclusion.succ[0].id)
    assert check_derivation(comp, "lptn_comp").ok
    assert "RULE_NOT_IN_SYSTEM" in check_derivation(comp, "lptn").codes()


def test_numeral_decode_mismatch():
    # [DERIVED] truth-rule principal must quote exactly the active formula
    t = "1: init [] (= 0 0) => (= 0 0)\n2: Tl [1] (T 999) => (= 0 0)\n"
    assert _codes(t, "lptn") == {"NUMERAL_DECODE_MISMATCH"}


def test_eigenvariable_clash():
    # [DERIVED] the eigenvariable may not occur free in the conclusion
    t = ("1: init [] (= y 0) => (= y 0), (= y y)\n"
         "2: forallr [1] (= y 0) => (= y 0), (forall x (= x x))\n")
    assert _codes(t, "lgt") == {"EIGENVAR_CLASH"}


def test_pure_variable_convention():
    # [DERIVED] outside the logical system, free and bound variables must be
    # disjoint across the derivation
    t = "1: init [] (forall x (= x x)), (= x 0) => (= x 0)\n"
    assert _codes(t, "qg") == {"PURE_VARIABLE_CLASH"}
    # the logical system does not impose the convention
    assert _codes(t, "lgt") == set()


def test_truth_rules_need_sentences():
    # [DERIVED] truth ascriptions are only formed over closed formulas
    t = "1: init [] (= x x) => (= x x)\n2: Tl [1] (T (quote (= x x))) => (= x x)\n"
    assert "NOT_A_SENTENCE" in _codes(t, "lptn")


def test_lineage_broken_on_smuggled_formula():
    # [DERIVED] a conclusion formula with no ancestry and no principal role
    t = ("1: init [] (= 0 0) => (= 0 0)\n"
         "2: negr [1] => (= (S 0) 0), (not (= 0 0)), (= 0 0)\n")
    assert "LINEAGE_BROKEN" in _codes(t, "lgt")


def test_qg1_leaf_and_geometric_rules_validate():
    # [DERIVED] zero-successor leaf and equality replacement validate in the
    # geometric systems but not in the purely logical one
    d = B.qg1_leaf([], Zero(), [])
    assert check_derivation(d, "qg").ok
    assert check_derivation(d, "lptn").ok
    assert "RULE_NOT_IN_SYSTEM" in check_derivation(d, "lgt").codes()


def test_eq1_reflexivity_discharge():
    # [DERIVED] reflexive equations can be discharged from the antecedent
    goal = Eq(Suc(Zero()), Suc(Zero()))
    leaf = B.init_leaf([], goal, [])  # goal => goal
    d = B.eq1(leaf, leaf.conclusion.ante[0].id)
    assert check_derivation(d, "qg").ok
    assert d.conclusion.ante_formulas() == []
    assert d.conclusion.succ_formulas() == [goal]


def test_unknown_system_raises():
    # [TRIVIAL]
    with pytest.raises(ValueError):
        check_derivation(B.init_leaf([], PHI, []), "nope")


def _sharing_proofs(forall_xx, x_is_0):
    """A valid qg proof of ``=> forall x (x = x)`` and a
    ``bad_pure_variables``-style leaf, built over the given formula objects."""
    ev = Var("ev1")
    leaf = B.init_leaf([], Eq(ev, ev), [])
    refl = B.eq1(leaf, leaf.conclusion.ante[0].id)
    ok = B.forall_right(refl, refl.conclusion.succ[0].id, forall_xx, "ev1")
    bad = B.init_leaf([forall_xx], x_is_0, [])
    return ok, bad


def test_shared_formula_objects_keep_reason_codes():
    # [DERIVED] facts cached on a formula object shared by two proofs do not
    # leak from one check into the other: each proof gets the codes it gets
    # when built from objects of its own, whichever is checked first
    def fresh():
        return Forall("x", Eq(Var("x"), Var("x"))), Eq(Var("x"), Zero())

    systems = ("qg", "lptn")
    want_ok = [check_derivation(_sharing_proofs(*fresh())[0], s).codes()
               for s in systems]
    want_bad = [check_derivation(_sharing_proofs(*fresh())[1], s).codes()
                for s in systems]
    assert want_ok == [set(), set()]
    assert want_bad == [{"PURE_VARIABLE_CLASH"}] * 2
    for ok_first in (True, False):
        ok, bad = _sharing_proofs(*fresh())
        for s, w_ok, w_bad in zip(systems, want_ok, want_bad):
            if ok_first:
                assert check_derivation(ok, s).codes() == w_ok
                assert check_derivation(bad, s).codes() == w_bad
            else:
                assert check_derivation(bad, s).codes() == w_bad
                assert check_derivation(ok, s).codes() == w_ok
