"""Kernel validation: rule admissibility per system and reason codes."""

import random
from dataclasses import replace

import pytest

from truthcut.arith import chain_numeral, prove_equation, refute_equation
from truthcut import build as B
from truthcut.coding import quote
from truthcut.deriv import RULE_SHAPES, Sequent, occ, remake
from truthcut.kernel import (
    SYSTEM_RULES,
    SYSTEMS,
    Violation,
    check_derivation,
)
from truthcut.script import parse_script
from truthcut.syntax import Eq, Forall, Not, Plus, Suc, Times, Tr, Var, Zero

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


# ---------------------------------------------------------------------------
# Rule shapes: every node is checked against its rule's entry in RULE_SHAPES

QG3_SCRIPT = ("1: init [] (= x 0), (= 0 0) => (= 0 0)\n"
              "2: init [] (= y (S x)), (= 0 0) => (= 0 0)\n"
              "3: qg3 [1, 2] (= 0 0) => (= 0 0)\n")


def _samples():
    """rule -> a valid derivation whose last rule it is."""
    leaf = B.init_leaf([], PHI, [])
    other = B.init_leaf([], PHI, [])
    wide = B.init_leaf([], PHI, [PHI])  # PHI => PHI, PHI
    deep = B.init_leaf([PHI], PHI, [])  # PHI, PHI => PHI
    pair = B.init_leaf([Not(PHI)], PHI, [])
    fa = Forall("x", Eq(Var("x"), Var("x")))
    inst = B.init_leaf([fa], PHI, [])
    ev = B.init_leaf([], Eq(Var("ev1"), Var("ev1")), [])
    refl = B.eq1(ev, ev.conclusion.ante[0].id)
    out = {
        "init": leaf,
        "top": B.top_leaf([], []),
        "bot": B.bot_leaf([], []),
        "qg1": B.qg1_leaf([], Zero(), []),
        "cut": B.cut(wide, wide.conclusion.succ[0].id,
                     deep, deep.conclusion.ante[0].id),
        "Tl": B.truth_left(leaf, leaf.conclusion.ante[0].id),
        "Tr": B.truth_right(leaf, leaf.conclusion.succ[0].id),
        "comp": B.comp_node(leaf, leaf.conclusion.succ[0].id,
                            other, other.conclusion.succ[0].id),
        "negl": B.neg_left(leaf, leaf.conclusion.succ[0].id),
        "negr": B.neg_right(leaf, leaf.conclusion.ante[0].id),
        "andl": B.and_left(pair, *(o.id for o in pair.conclusion.ante)),
        "andr": B.and_right(leaf, leaf.conclusion.succ[0].id,
                            other, other.conclusion.succ[0].id),
        "foralll": B.forall_left(inst, *(o.id for o in inst.conclusion.ante),
                                 Zero()),
        "forallr": B.forall_right(refl, refl.conclusion.succ[0].id, fa, "ev1"),
        "eq1": refl,
        "qg3": parse_script(QG3_SCRIPT),
    }
    one, three = chain_numeral(1), chain_numeral(3)
    for d in (prove_equation([], Times(one, one), one, []),
              refute_equation([], one, three, [])):
        for node in d.iter_nodes():
            out.setdefault(node.rule, node)
    return out


SAMPLES = _samples()


def _system_of(rule):
    """The first system with every rule of the sample for ``rule``."""
    used = {node.rule for node in SAMPLES[rule].iter_nodes()}
    return next(s for s in SYSTEMS if used <= set(SYSTEM_RULES[s]))


def _moved(seq, oid):
    """``seq`` with occurrence ``oid`` moved to the other side."""
    side, _, o = seq.find(oid)
    ante = tuple(x for x in seq.ante if x.id != oid)
    succ = tuple(x for x in seq.succ if x.id != oid)
    return Sequent(ante + (o,), succ) if side == "succ" else Sequent(ante, succ + (o,))


def _root_report(d, rule):
    return [(v.code, v.message)
            for v in check_derivation(d, _system_of(rule)).violations
            if v.path == ()]


def test_every_rule_has_one_shape_and_a_valid_sample():
    # [DERIVED] the shape table covers exactly the rules of the systems, and
    # every sample below passes the kernel as built
    rules = {r for rs in SYSTEM_RULES.values() for r in rs}
    assert set(RULE_SHAPES) == rules == set(SAMPLES)
    for rule, d in SAMPLES.items():
        assert d.rule == rule
        assert len(d.premises) == RULE_SHAPES[rule].premises
        assert check_derivation(d, _system_of(rule)).ok, rule


@pytest.mark.parametrize("rule", ["eq2", "qg2", "qg3", "qg4", "qg5", "qg6", "qg7"])
def test_rule_without_principal_refuses_a_smuggled_one(rule):
    # [DERIVED] a rule whose shape has no principal may not add a formula to
    # its conclusion; these seven rules used to accept one and report VALID
    d = SAMPLES[rule]
    extra = occ(Tr(quote(Eq(Zero(), Suc(Zero())))))
    c = d.conclusion
    bad = replace(d, conclusion=Sequent(c.ante, c.succ + (extra,)),
                  principal=(extra.id,))
    assert check_derivation(bad, _system_of(rule)).violations == (
        Violation((), "MALFORMED_RULE", f"{rule} has no principal formula"),)


@pytest.mark.parametrize(
    "rule", [r for r in RULE_SHAPES if RULE_SHAPES[r].premises])
def test_wrong_premise_count(rule):
    # [DERIVED] dropping the last premise (and what refers to it) leaves a
    # node with one premise fewer than its shape states
    d = SAMPLES[rule]
    n = RULE_SHAPES[rule].premises
    bad = replace(d, premises=d.premises[:-1],
                  actives=tuple(a for a in d.actives if a[0] != n - 1),
                  lineage={c: tuple(p for p in ps if p[0] != n - 1)
                           for c, ps in d.lineage.items()})
    assert _root_report(bad, rule) == [
        ("MALFORMED_RULE", f"{rule} takes {n} premise(s), got {n - 1}")]


@pytest.mark.parametrize(
    "rule", [r for r in RULE_SHAPES if RULE_SHAPES[r].principals])
def test_principal_on_the_wrong_side(rule):
    # [DERIVED] the first principal moved across the sequent arrow
    d = SAMPLES[rule]
    side = {"ante": "antecedent", "succ": "succedent"}[RULE_SHAPES[rule].principals[0]]
    bad = replace(d, conclusion=_moved(d.conclusion, d.principal[0]))
    assert _root_report(bad, rule) == [
        ("MALFORMED_RULE", f"{rule} principal must be in the {side}")]


@pytest.mark.parametrize(
    "rule", [r for r in RULE_SHAPES if RULE_SHAPES[r].actives])
def test_active_on_the_wrong_side(rule):
    # [DERIVED] the first active moved across its premise's sequent arrow;
    # the premise may report its own fault, the node reports the side
    d = SAMPLES[rule]
    pi, aid = d.actives[0]
    other = "succ" if RULE_SHAPES[rule].actives[0][1] == "ante" else "ante"
    premises = list(d.premises)
    premises[pi] = replace(premises[pi],
                           conclusion=_moved(premises[pi].conclusion, aid))
    bad = replace(d, premises=tuple(premises))
    assert _root_report(bad, rule) == [
        ("MALFORMED_RULE", f"{rule} active on wrong side ({other})")]


# -- wiring: one test per check_wiring message ------------------------------

PSI = Eq(Suc(Zero()), Zero())
CHI = Eq(Zero(), Suc(Zero()))


def _wired():
    """A negr node over an init leaf: antecedent ψ, χ; succedent φ, ψ, ¬φ.
    The leaf has ψ, χ, φ => φ, ψ, so ψ is a context formula on both
    sides."""
    leaf = B.init_leaf([PSI, CHI], PHI, [PSI])
    return B.neg_right(leaf, leaf.conclusion.ante[-1].id)


def _wiring_report(node):
    """The violations of ``node`` as the premise of a sound negl node, so
    each is reported at path (0,)."""
    outer = B.neg_left(node, node.conclusion.succ[-1].id)
    return list(check_derivation(outer, "lgt").violations)


def _broken(*messages):
    return [Violation((0,), "LINEAGE_BROKEN", m) for m in messages]


def _parent(node, o):
    """The premise occurrence id that conclusion occurrence ``o`` comes from."""
    [(_, oid)] = node.lineage[o.id]
    return oid


def test_wiring_reference_to_a_non_premise_occurrence():
    # [DERIVED] an active id the premise does not hold; the premise
    # occurrence that was the active is then left over
    d = _wired()
    [(_, aid)] = d.actives
    bad = remake(d, actives=((0, 99_999_999),))
    assert _wiring_report(bad) == _broken(
        "reference (0,99999999) is not a premise occurrence",
        f"premise 0 occurrences [{aid}] not carried into the conclusion")


@pytest.mark.parametrize("pi", [-1, -2])
def test_wiring_negative_active_premise_index(pi):
    # [DERIVED] a premise index below 0 names no premise: it is reported,
    # not read from the end of the premise list or raised as IndexError
    d = _wired()
    [(_, aid)] = d.actives
    bad = remake(d, actives=((pi, aid),))
    assert _wiring_report(bad) == _broken(
        f"reference ({pi},{aid}) is not a premise occurrence",
        f"premise 0 occurrences [{aid}] not carried into the conclusion")


def test_wiring_negative_lineage_premise_index():
    # [DERIVED] as for an active; the occurrence then has no parent in
    # premise 0, and that parent is left over
    d = _wired()
    chi = d.conclusion.ante[1]
    oid = _parent(d, chi)
    bad = remake(d, lineage={**d.lineage, chi.id: ((-2, oid),)})
    assert _wiring_report(bad) == _broken(
        f"occurrence {chi.id} must have one parent per premise",
        f"reference (-2,{oid}) is not a premise occurrence",
        f"premise 0 occurrences [{oid}] not carried into the conclusion")


def test_wiring_premise_occurrence_consumed_twice():
    # [DERIVED]
    d = _wired()
    bad = remake(d, actives=d.actives * 2)
    assert _wiring_report(bad) == _broken(
        f"premise occurrence {d.actives[0][1]} consumed twice")


def test_wiring_principal_not_in_conclusion():
    # [DERIVED]
    d = _wired()
    bad = remake(d, principal=d.principal + (99_999_999,))
    assert _wiring_report(bad) == _broken(
        "principal id 99999999 not in conclusion")


def test_wiring_leaf_with_lineage():
    # [DERIVED]
    leaf = B.init_leaf([PSI], PHI, [])
    psi = leaf.conclusion.ante[0]
    bad = remake(leaf, lineage={psi.id: ((0, psi.id),)})
    outer = B.neg_right(bad, bad.conclusion.ante[-1].id)
    assert list(check_derivation(outer, "lgt").violations) == _broken(
        "leaf node has lineage")


def test_wiring_context_occurrence_without_lineage():
    # [DERIVED] the occurrence's parent is then left over
    d = _wired()
    chi = d.conclusion.ante[1]
    lineage = dict(d.lineage)
    del lineage[chi.id]
    bad = remake(d, lineage=lineage)
    assert _wiring_report(bad) == _broken(
        f"context occurrence {chi.id} has no lineage",
        f"premise 0 occurrences [{_parent(d, chi)}] not carried into the "
        "conclusion")


def test_wiring_not_one_parent_per_premise():
    # [DERIVED] no parent at all in a one-premise node
    d = _wired()
    chi = d.conclusion.ante[1]
    bad = remake(d, lineage={**d.lineage, chi.id: ()})
    assert _wiring_report(bad) == _broken(
        f"occurrence {chi.id} must have one parent per premise",
        f"premise 0 occurrences [{_parent(d, chi)}] not carried into the "
        "conclusion")


def test_wiring_context_occurrence_changes_formula():
    # [DERIVED] ψ and χ swap parents: both stay in the antecedent
    d = _wired()
    psi, chi = d.conclusion.ante
    bad = remake(d, lineage={**d.lineage, psi.id: d.lineage[chi.id],
                              chi.id: d.lineage[psi.id]})
    assert _wiring_report(bad) == _broken(
        f"context occurrence {psi.id} changes formula",
        f"context occurrence {chi.id} changes formula")


def test_wiring_context_occurrence_changes_side():
    # [DERIVED] the two ψ swap parents: same formula, other side
    d = _wired()
    psi_a = d.conclusion.ante[0]
    psi_s = d.conclusion.succ[1]
    bad = remake(d, lineage={**d.lineage, psi_a.id: d.lineage[psi_s.id],
                              psi_s.id: d.lineage[psi_a.id]})
    assert _wiring_report(bad) == _broken(
        f"context occurrence {psi_a.id} changes side",
        f"context occurrence {psi_s.id} changes side")


def test_wiring_premise_occurrences_not_carried():
    # [DERIVED] χ dropped from the conclusion along with its lineage
    d = _wired()
    psi, chi = d.conclusion.ante
    lineage = dict(d.lineage)
    del lineage[chi.id]
    bad = remake(d, conclusion=Sequent((psi,), d.conclusion.succ),
                  lineage=lineage)
    assert _wiring_report(bad) == _broken(
        f"premise 0 occurrences [{_parent(d, chi)}] not carried into "
        "the conclusion")


def test_wiring_judges_an_id_on_both_sides_by_the_antecedent():
    # [DERIVED] (checked at the root) an occurrence repeated in the
    # succedent under its antecedent id is reused and consumes its parent
    # twice; as the id is in the antecedent, the copy is not reported as
    # changing side
    d = _wired()
    psi = d.conclusion.ante[0]
    bad = remake(d, conclusion=Sequent(d.conclusion.ante,
                                       (psi,) + d.conclusion.succ))
    assert list(check_derivation(bad, "lgt").violations) == [
        Violation((), "OCC_ID_REUSE", f"occurrence id {psi.id} reused"),
        Violation((), "LINEAGE_BROKEN",
                  f"premise occurrence {_parent(d, psi)} consumed twice")]
