"""Kernel validation: rule admissibility per system and reason codes."""

import random
from dataclasses import replace

import pytest

from truthcut.arith import prove_equation, refute_equation
from truthcut import build as B
from truthcut.coding import quote
from truthcut.deriv import RULE_SHAPES, Sequent, occ, refresh_ids, remake
from truthcut.kernel import (
    SYSTEM_RULES,
    SYSTEMS,
    Violation,
    check_derivation,
)
from truthcut.script import parse_script
from truthcut.syntax import Eq, Forall, Not, Plus, Suc, Times, Tr, Var, Zero

from proofgen import (
    and_left,
    and_right,
    bot_leaf,
    chain_numeral,
    forall_left,
    forall_right,
    neg_left,
    neg_right,
    random_derivation,
    top_leaf,
    truth_left,
    truth_right,
)

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
    d = truth_left(lf, lf.conclusion.ante[0].id)
    assert check_derivation(d, "lptn").ok
    assert check_derivation(d, "qg").codes() == {"RULE_NOT_IN_SYSTEM"}

    top = top_leaf([], [])
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
    ok = forall_right(refl, refl.conclusion.succ[0].id, forall_xx, "ev1")
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
        "top": top_leaf([], []),
        "bot": bot_leaf([], []),
        "qg1": B.qg1_leaf([], Zero(), []),
        "cut": B.cut(wide, wide.conclusion.succ[0].id,
                     deep, deep.conclusion.ante[0].id),
        "Tl": truth_left(leaf, leaf.conclusion.ante[0].id),
        "Tr": truth_right(leaf, leaf.conclusion.succ[0].id),
        "comp": B.comp_node(leaf, leaf.conclusion.succ[0].id,
                            other, other.conclusion.succ[0].id),
        "negl": neg_left(leaf, leaf.conclusion.succ[0].id),
        "negr": neg_right(leaf, leaf.conclusion.ante[0].id),
        "andl": and_left(pair, *(o.id for o in pair.conclusion.ante)),
        "andr": and_right(leaf, leaf.conclusion.succ[0].id,
                          other, other.conclusion.succ[0].id),
        "foralll": forall_left(inst, *(o.id for o in inst.conclusion.ante),
                               Zero()),
        "forallr": forall_right(refl, refl.conclusion.succ[0].id, fa, "ev1"),
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
    return neg_right(leaf, leaf.conclusion.ante[-1].id)


def _wiring_report(node):
    """The violations of ``node`` as the premise of a sound negl node, so
    each is reported at path (0,)."""
    outer = neg_left(node, node.conclusion.succ[-1].id)
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
    outer = neg_right(bad, bad.conclusion.ante[-1].id)
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


# -- refusals: one hand-built node per branch a rule check refuses by -------

X, Y = Var("x"), Var("y")


def _relabelled_andl():
    # an andl node read as negl: its wiring holds, its shape has one active
    pair = B.init_leaf([Not(PHI)], PHI, [])
    d = and_left(pair, *(o.id for o in pair.conclusion.ante))
    return replace(d, rule="negl"), "lgt", [
        ((), "MALFORMED_RULE", "negl needs 1 active occurrence(s), got 2")]


def _cut_actives_swapped():
    d = SAMPLES["cut"]
    return replace(d, actives=tuple(reversed(d.actives))), "lgt", [
        ((), "MALFORMED_RULE", "cut active in wrong premise (1)")]


def _cut_formulas_differ():
    d0 = B.init_leaf([], PHI, [PSI])  # PHI => PHI, PSI
    d1 = B.init_leaf([CHI], PHI, [])  # CHI, PHI => PHI
    d = B._node("cut", ((d0, d0.conclusion.succ[1].id), (d1, d1.conclusion.ante[0].id)))
    return d, "lgt", [((), "PRINCIPAL_MISMATCH", "cut formulas differ")]


def _comp_of_an_open_formula():
    x_is_x = Eq(X, X)
    d0 = B.init_leaf([PHI], x_is_x, [])  # PHI, x=x => x=x
    d1 = B.init_leaf([x_is_x], PHI, [])  # x=x, PHI => PHI
    d = B.comp_node(d0, d0.conclusion.succ[0].id, d1, d1.conclusion.succ[0].id)
    return d, "lptn_comp", [
        ((), "NOT_A_SENTENCE", f"compositional rule combines a non-sentence: {x_is_x!r}")]


def _foralll_without_witness():
    return replace(SAMPLES["foralll"], term=None), "lgt", [
        ((), "WITNESS_MISMATCH", "forall-left is missing its witness term")]


def _forallr_without_eigenvariable():
    return replace(SAMPLES["forallr"], var=None), "qg", [
        ((), "EIGENVAR_CLASH", "forall-right is missing its eigenvariable")]


def _forallr_of_another_variable():
    d = SAMPLES["forallr"]  # => forall x (x = x) from => ev1 = ev1
    a, want = d.premises[0].conclusion.succ[0].formula, Eq(Var("ev2"), Var("ev2"))
    return replace(d, var="ev2"), "qg", [
        ((), "PRINCIPAL_MISMATCH",
         f"forall-right premise active is {a!r}, expected {want!r}")]


def _eq1_of_an_equation_not_reflexive():
    leaf = B.init_leaf([], PSI, [])
    d = B._node("eq1", ((leaf, leaf.conclusion.ante[0].id),))
    return d, "qg", [
        ((), "PRINCIPAL_MISMATCH", f"eq1 discharges a reflexive equation, got {PSI!r}")]


def _eq2(*triggers):
    """eq2 discharging x=0 by the template w=0 from x to y, over a leaf whose
    antecedent also holds ``triggers``."""
    leaf = B.init_leaf([*triggers, Eq(X, Zero())], PHI, [])
    return B.eq2(leaf, leaf.conclusion.ante[len(triggers)].id, "w",
                 Eq(Var("w"), Zero()), X, Y)


def _eq2_without_template():
    return replace(_eq2(Eq(X, Y), Eq(Y, Zero())), template=None), "qg", [
        ((), "TEMPLATE_MISMATCH", "eq2 needs a replacement template and both equation sides")]


def _eq2_template_not_atomic():
    chi = Not(Eq(Var("w"), Zero()))
    return replace(_eq2(Eq(X, Y), Eq(Y, Zero())), template=("w", chi)), "qg", [
        ((), "TEMPLATE_MISMATCH", f"eq2 template must be an atomic T-free equation, got {chi!r}")]


def _eq2_without_its_equation():
    return _eq2(Eq(Y, Zero())), "qg", [
        ((), "TEMPLATE_MISMATCH", f"eq2 requires the equation {Eq(X, Y)!r} in the antecedent")]


def _eq2_without_the_replaced_instance():
    return _eq2(Eq(X, Y)), "qg", [
        ((), "TEMPLATE_MISMATCH", "eq2 requires the replaced instance in the antecedent")]


def _qg2_of_a_negation():
    leaf = B.init_leaf([Not(PHI)], PHI, [])
    d = B._node("qg2", ((leaf, leaf.conclusion.ante[0].id),))
    return d, "qg", [((), "PRINCIPAL_MISMATCH", "qg2 discharges an equation")]


def _qg2_without_the_successor_equation():
    leaf = B.init_leaf([CHI], PHI, [])
    d = B._node("qg2", ((leaf, leaf.conclusion.ante[0].id),))
    succ_eq = Eq(Suc(Zero()), Suc(Suc(Zero())))
    return d, "qg", [((), "PRINCIPAL_MISMATCH",
                      f"qg2 requires {succ_eq!r} in the conclusion antecedent")]


def _qg3_without_case_term():
    return replace(SAMPLES["qg3"], term=None), "qg", [
        ((), "MALFORMED_RULE", "qg3 needs its case term and eigenvariable")]


def _qg3_zero_case_of_another_term():
    z = Var("z")
    return replace(SAMPLES["qg3"], term=z), "qg", [
        ((), "PRINCIPAL_MISMATCH", f"qg3 zero-case active must be {z!r}=0, got {Eq(X, Zero())!r}")]


def _qg3_successor_case_of_another_variable():
    return replace(SAMPLES["qg3"], var="w"), "qg", [
        ((), "PRINCIPAL_MISMATCH",
         f"qg3 successor-case active must be w=S({X!r}), got {Eq(Y, Suc(X))!r}")]


def _qg3_eigenvariable_in_the_zero_case():
    l0 = B.init_leaf([Eq(Y, Zero())], PHI, [])
    l1 = B.init_leaf([Eq(Y, Suc(Y))], PHI, [])
    d = B.qg3(l0, l0.conclusion.ante[0].id, l1, l1.conclusion.ante[0].id, Y, "y")
    return d, "qg", [((), "EIGENVAR_CLASH", "qg3 eigenvariable y occurs in the zero case")]


def _qg5_without_its_second_term():
    return replace(SAMPLES["qg5"], term2=None), "qg", [
        ((), "MALFORMED_RULE", "qg5 needs 2 instantiating term(s)")]


def _qg4_of_another_term():
    d = SAMPLES["qg4"]
    one = Suc(Zero())
    a, want = d.premises[0].conclusion.find(d.actives[0][1])[2].formula, Eq(Plus(one, Zero()), one)
    return replace(d, term=one), "qg", [
        ((), "PRINCIPAL_MISMATCH", f"qg4 discharges {a!r}, expected {want!r}")]


def _eigenvariable_reused():
    # two x=x universals, each by forallr with eigenvariable ev1 over ev1=ev1
    d0 = SAMPLES["forallr"]
    d1 = refresh_ids(d0)
    d = and_right(d0, d0.conclusion.succ[0].id, d1, d1.conclusion.succ[0].id)
    return d, "qg", [
        ((1,), "PURE_VARIABLE_CLASH", "eigenvariable ev1 reused (also at node 0)"),
        ((0,), "PURE_VARIABLE_CLASH", "eigenvariable ev1 occurs outside its subtree (node 1/0)"),
        ((1,), "PURE_VARIABLE_CLASH", "eigenvariable ev1 occurs outside its subtree (node 0/0)")]


def _eigenvariable_outside_its_subtree():
    # forallr with eigenvariable ev1 beside a branch where ev1 is free
    d0 = SAMPLES["forallr"]
    leaf = B.init_leaf([], Eq(Var("ev1"), Var("ev1")), [])
    d1 = B.eq1(leaf, leaf.conclusion.ante[0].id)
    d = and_right(d0, d0.conclusion.succ[0].id, d1, d1.conclusion.succ[0].id)
    return d, "qg", [
        ((0,), "PURE_VARIABLE_CLASH", "eigenvariable ev1 occurs outside its subtree (node root)")]


REFUSALS = [
    _relabelled_andl, _cut_actives_swapped, _cut_formulas_differ, _comp_of_an_open_formula,
    _foralll_without_witness, _forallr_without_eigenvariable, _forallr_of_another_variable,
    _eq1_of_an_equation_not_reflexive, _eq2_without_template, _eq2_template_not_atomic,
    _eq2_without_its_equation, _eq2_without_the_replaced_instance, _qg2_of_a_negation,
    _qg2_without_the_successor_equation, _qg3_without_case_term,
    _qg3_zero_case_of_another_term, _qg3_successor_case_of_another_variable,
    _qg3_eigenvariable_in_the_zero_case, _qg5_without_its_second_term, _qg4_of_another_term,
    _eigenvariable_reused, _eigenvariable_outside_its_subtree,
]


@pytest.mark.parametrize("case", REFUSALS, ids=lambda f: f.__name__.lstrip("_"))
def test_refusal(case):
    # [DERIVED] every refusal branch of the rule checks and of the pure
    # variable convention, each on one node built to reach it, reports its
    # reason code and message, and nothing else
    d, system, want = case()
    assert list(check_derivation(d, system).violations) == [Violation(*v) for v in want]
