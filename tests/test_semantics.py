"""Finite-stage fixed-point semantics and correspondence checks."""

import pathlib

import pytest

from truthcut import build as B
from truthcut import cli, semantics
from truthcut.coding import (
    CodeSizeError,
    EvalError,
    NonCodeArgumentError,
    encode,
    eval_term,
    liar,
    quote,
    truth_teller,
)
from truthcut.search import SearchBudget, search_cut_free
from truthcut.semantics import (
    CompletenessVerdict,
    CoverageError,
    SoundnessVerdict,
    UniverseError,
    build_universe,
    check_completeness,
    check_consistency,
    check_soundness,
    check_transparency,
    SentenceUniverse,
    _holds,
    least_fixed_point,
)
from truthcut.sexpr import parse_formula
from truthcut.syntax import And, Eq, Forall, Not, Num, Plus, Suc, SynApp, Times, Tr, Var, Zero

from proofgen import code_keyed, truth_of

PHI = Eq(Zero(), Zero())
BAD = Eq(Zero(), Suc(Zero()))


def kripke_step(S, universe: SentenceUniverse) -> frozenset:
    """One application of the positive step operator on sets of codes;
    monotone in S.  The reference that ``least_fixed_point`` is tested
    against."""
    S = frozenset(S)
    _, clauses = code_keyed(universe)
    return frozenset(c for c in universe.codes if _holds(clauses[c], S))


def test_universe_closure():
    # [DERIVED] dependencies of a truth ascription include the ascribed code
    u = build_universe([truth_of(PHI)], term_bound=2)
    assert truth_of(PHI) in u.index
    assert PHI in u.index


def test_universe_rejects_open_seeds():
    # [TRIVIAL]
    with pytest.raises(UniverseError):
        build_universe([Eq(Var("x"), Zero())], term_bound=2)


def test_universe_size_cap():
    # [TRIVIAL]
    fa = Forall("x", Eq(Var("x"), Var("x")))
    with pytest.raises(UniverseError):
        build_universe([fa], term_bound=10, max_size=3)


def test_step_operator_monotone():
    # [DERIVED] S subset of S' implies step(S) subset of step(S')
    u = build_universe(
        [truth_of(PHI), Not(truth_of(BAD)), And(PHI, Not(BAD))], 2
    )
    empty = kripke_step(frozenset(), u)
    bigger = kripke_step(empty, u)
    assert empty <= bigger
    assert kripke_step(empty, u) <= kripke_step(bigger, u)


def test_norms_count_truth_iterations():
    # [DERIVED] each truth ascription enters one stage after its content
    t1 = truth_of(PHI)
    t2 = truth_of(t1)
    u = build_universe([t2], 2)
    fp = least_fixed_point(u)
    assert fp.norm(PHI) == 0
    assert fp.norm(t1) == 1
    assert fp.norm(t2) == 2
    assert fp.grounded(PHI) and fp.grounded(t2)


def test_negated_ascription_and_falsehoods():
    # [DERIVED] the negation of an ascription of a refutable sentence enters;
    # the false identity never does
    na = Not(truth_of(BAD))
    u = build_universe([na], 2)
    fp = least_fixed_point(u)
    assert encode(na) in fp.members
    assert encode(BAD) not in fp.members
    assert fp.norm(Not(BAD)) == 0


def test_quantified_sentences_finitized():
    # [DERIVED] universals enter when every chain-numeral instance up to the
    # bound has entered
    fa = Forall("x", Not(Eq(Suc(Var("x")), Zero())))
    u = build_universe([fa], 3)
    fp = least_fixed_point(u)
    assert encode(fa) in fp.members


def test_liar_and_truth_teller_ungrounded():
    # [DERIVED]
    lam, tt = liar(), truth_teller()
    u = build_universe([lam, tt], 2)
    fp = least_fixed_point(u)
    for s in (lam, Not(lam), tt, Not(tt)):
        assert encode(s) not in fp.members
    assert not fp.grounded(lam)
    assert not fp.grounded(tt)


def test_transparency_and_consistency():
    # [DERIVED]
    u = build_universe(
        [truth_of(truth_of(PHI)), Not(truth_of(BAD)), liar(), truth_teller()], 2
    )
    fp = least_fixed_point(u)
    assert check_transparency(fp) == []
    assert check_consistency(fp) == []


def test_soundness_on_search_proofs():
    # [DERIVED] for a found cut-free proof, some end-sequent formula is
    # semantically backed at a stage within the proof length
    bud = SearchBudget(6, 3, 3)
    goal = truth_of(PHI)
    r = search_cut_free([], [goal], bud, "lptn")
    assert r.found
    u = build_universe([goal], 2)
    fp = least_fixed_point(u)
    v = check_soundness(r.derivation, fp)
    assert v.holds
    assert v.witness_norm <= v.alpha


def test_completeness_of_grounded_members():
    # [DERIVED] grounded quantifier-free members are provable within budget
    u = build_universe([truth_of(PHI), Not(truth_of(BAD))], 2)
    fp = least_fixed_point(u)
    bud = SearchBudget(8, 3, 4)
    for c in fp.members:
        from truthcut.coding import decode_sentence

        v = check_completeness(decode_sentence(c), fp, bud)
        assert v.status in ("proved", "refuted", "vacuous")


def test_completeness_vacuous_for_ungrounded():
    # [TRIVIAL] no claim for ungrounded sentences
    lam = liar()
    u = build_universe([lam], 2)
    fp = least_fixed_point(u)
    v = check_completeness(lam, fp, SearchBudget(4, 2, 2))
    assert v.status == "vacuous"


def _towers(base, depth):
    """Every T / not-T wrapping of ``base`` ``depth`` levels deep."""
    out = []
    for pattern in range(2**depth):
        phi = base
        for i in range(depth):
            phi = truth_of(phi)
            if pattern >> i & 1:
                phi = Not(phi)
        out.append(phi)
    return out


def _seed_sets():
    lam, tt = liar(), truth_teller()
    x = Var("x")
    terms = [x, Suc(x), Plus(x, Zero()), Times(x, x), Zero()]
    identities = [Eq(s, t) for s in terms for t in terms[:3]]
    return [
        [lam, tt, Not(lam), Not(tt)],
        *([*_towers(PHI, d), *_towers(BAD, d)] for d in range(4)),
        [Forall("x", e) for e in identities],
        [Forall("x", Not(e)) for e in identities],
        [truth_of(PHI), Not(truth_of(BAD)), And(PHI, Not(BAD))],
        [Forall("x", Not(Eq(Suc(Var("x")), Zero())))],
        [truth_of(truth_of(PHI)), Not(truth_of(BAD)), lam, tt],
    ]


def test_semi_naive_iteration_matches_naive():
    # [DERIVED] re-deciding only the users of the codes that just entered
    # gives the stages of the step operator iterated from the empty set
    for seeds in _seed_sets():
        for bound in range(2, 11):
            u = build_universe(seeds, bound)
            stages, norms, S = [], {}, frozenset()
            while True:
                S2 = kripke_step(S, u)
                for c in S2:
                    norms.setdefault(c, len(stages))
                stages.append(S2)
                if S2 == S:
                    break
                S = S2
            fp = least_fixed_point(u)
            assert fp.stages == tuple(stages)
            sentences, _ = code_keyed(u)
            assert {c: fp.norm(phi) for c, phi in sentences.items()
                    if fp.is_member(phi)} == norms
            assert fp.members == S
            assert fp.saturation_index == len(stages) - 1
            n = len(u.codes)
            assert build_universe(seeds, bound, max_size=n) == u
            with pytest.raises(
                UniverseError, match=f"exceeded the size cap {n - 1}$"
            ):
                build_universe(seeds, bound, max_size=n - 1)


def test_universe_keeps_sentences_out_of_equality():
    # [TRIVIAL] the stored sentences, codes and clauses do not take part in
    # == or repr
    u = build_universe([truth_of(PHI)], 2)
    sentences, _ = code_keyed(u)
    assert sentences[encode(PHI)] == PHI
    assert u.code(u.index[PHI]) == encode(PHI)
    assert all(u.code(u.index[phi]) == c for c, phi in sentences.items())
    assert len(u.index) == len(u.codes)
    for name in ("order", "index", "deps", "codes"):
        assert name not in repr(u)


@pytest.mark.parametrize("seeds", [
    [liar()],
    [*_towers(PHI, 3), *_towers(BAD, 2), liar(), truth_teller()],
], ids=["liar", "wrapped"])
def test_fixed_point_lookups_encode_nothing(seeds, monkeypatch):
    # [DERIVED] the universe and the fixed point are keyed by sentence, and
    # "is phi or not-phi in the fixed point" is a lookup by sentence; the
    # code fields are built the first time a caller reads one (here
    # ``u.codes`` and ``fp.members`` below), each code once: after that,
    # with encode refused, the checks and the CLI listing give the answers
    # that encoding gives
    u = build_universe(seeds, 2)
    fp = least_fixed_point(u)
    codes = sorted(u.codes)
    sentences, _ = code_keyed(u)
    inconsistent = [c for c in codes if c in fp.members
                    and encode(Not(sentences[c])) in fp.members]
    grounded = [encode(sentences[c]) in fp.members
                or encode(Not(sentences[c])) in fp.members for c in codes]
    ungrounded = [f"#{c}" for c, g in zip(codes, grounded) if not g]
    proof = search_cut_free([], [truth_of(PHI)], SearchBudget(6, 3, 3), "lptn")
    covered = encode(truth_of(PHI)) in u.codes

    def refuse(*args, **kwargs):
        raise AssertionError("encode called after the universe was built")

    monkeypatch.setattr(semantics, "encode", refuse)
    monkeypatch.setattr(cli, "encode", refuse)
    assert sorted(check_consistency(fp)) == inconsistent
    assert [fp.grounded(sentences[c]) for c in codes] == grounded
    lines = cli._fixpoint_lines(fp)
    listed = lines[lines.index("ungrounded:") + 1:] if ungrounded else []
    assert [line.split()[0] for line in listed] == ungrounded
    for phi in seeds:
        check_completeness(phi, fp, SearchBudget(4, 2, 2))
    if covered:
        assert check_soundness(proof.derivation, fp).holds
    else:
        with pytest.raises(CoverageError, match=r"\[Tr\("):
            check_soundness(proof.derivation, fp)


PINS = pathlib.Path(__file__).parent / "fixpoint_pins"


def _pinned_seed_sets():
    yield from _seed_sets()
    for name in ("liar", "truth"):
        yield cli._read_seed_file(str(PINS / f"{name}.seeds"))


@pytest.fixture
def encoded(monkeypatch):
    """The expressions passed to ``semantics.encode``, in call order."""
    calls = []
    real = semantics.encode

    def counting(e, *args, **kwargs):
        calls.append(e)
        return real(e, *args, **kwargs)

    monkeypatch.setattr(semantics, "encode", counting)
    return calls


@pytest.mark.parametrize("bound", [2, 3])
def test_codes_are_built_only_when_read(bound, encoded):
    # [DERIVED] the universe, the fixed point, grounded and the checks
    # decide by sentence and encode nothing; reading the members encodes
    # each member at most once, and reading the codes each sentence once,
    # in closure order; after that no code field encodes again
    budget = SearchBudget(4, 2, 2)
    for seeds in _pinned_seed_sets():
        u = build_universe(seeds, bound)
        fp = least_fixed_point(u)
        assert check_transparency(fp) == [] and check_consistency(fp) == []
        for phi in u.order:
            fp.grounded(phi)
        for phi in seeds:
            check_completeness(phi, fp, budget)
            try:
                check_soundness(B.leaf("init", [], phi, []), fp)
            except CoverageError:
                pass
        assert encoded == []
        members = fp.members
        assert len(encoded) == len(set(encoded)) <= len(members)
        assert all(fp.is_member(e) for e in encoded)
        assert len(u.codes) == len(u.order)
        assert sorted(u.index[e] for e in encoded) == list(range(len(u.order)))
        encoded.clear()
        repr(fp), u.codes, fp.stages, fp.members, code_keyed(u), fp.norm(PHI)
        assert encoded == []
        fresh = build_universe(seeds, bound)
        assert fresh == u and least_fixed_point(fresh) == fp
        assert hash(least_fixed_point(fresh)) == hash(fp)
        assert fresh.codes == u.codes
        assert encoded == list(fresh.order)
        encoded.clear()


def _marked(u, places):
    """A fixed point over ``u`` whose members, all at stage 0, are the
    sentences at ``places``, whether or not the operator would put them
    there."""
    stage_of = tuple(0 if i in places else None for i in range(len(u.order)))
    return semantics.FixedPoint(u, 1, stage_of, (tuple(sorted(places)), ()))


def test_checks_report_in_codes_order():
    # [DERIVED] on member sets that break consistency and transparency, the
    # checks report what their code-keyed definitions give, sorted by code
    seeds = [*_towers(PHI, 3), *_towers(BAD, 3), liar(), truth_teller()]
    u = build_universe(seeds, 2)
    everything = _marked(u, set(range(len(u.order))))
    truths = _marked(u, {i for i, phi in enumerate(u.order) if isinstance(phi, Tr)})
    for fp in (everything, truths):
        members, (sentences, _) = fp.members, code_keyed(u)
        code_of = {phi: c for c, phi in sentences.items()}
        assert check_consistency(fp) == [
            c for c in sorted(u.codes) if c in members
            and code_of.get(Not(sentences[c])) in members]
        opaque = []
        for c in sorted(u.codes):
            if isinstance(sentences[c], Tr):
                try:
                    inner = eval_term(sentences[c].term)
                except EvalError:
                    continue
                if inner in u.codes and (c in members) != (inner in members):
                    opaque.append((c, inner))
        assert check_transparency(fp) == opaque
    assert len(check_consistency(everything)) > 1
    assert len(check_transparency(truths)) > 1


def test_code_size_cap_leaves_tower_ungrounded():
    # [DERIVED] `tr` multiplies a code's bit length at each turn; evaluation
    # stops with CodeSizeError and the ascription does not enter
    phi = parse_formula("(T (tr (quote (= 0 0)) 30))")
    with pytest.raises(CodeSizeError):
        eval_term(phi.term)
    fp = least_fixed_point(build_universe([phi], 2))
    assert fp.members == frozenset()
    assert not fp.grounded(phi)


def test_capturing_sub_is_not_a_code():
    # [DERIVED] (sub #(forall y (= x y)) #x #y) would capture y, so it is
    # refused as a non-code argument: its equation is false and its
    # ascription does not enter; the universe, the fixed point and
    # transparency all finish
    codes = (encode(Forall("y", Eq(Var("x"), Var("y")))), encode(Var("x")),
             encode(Var("y")))
    t = SynApp("sub", tuple(Num(c) for c in codes))
    with pytest.raises(NonCodeArgumentError):
        eval_term(t)
    eq, tr = Eq(t, Zero()), Tr(t)
    fp = least_fixed_point(build_universe([eq, tr], 2))
    assert fp.members == frozenset()
    assert not fp.grounded(eq) and not fp.grounded(tr)
    assert check_transparency(fp) == []


def _fixed_point(seeds):
    return least_fixed_point(build_universe(seeds, 2))


def test_soundness_witness_in_the_antecedent_is_the_formula_itself():
    # [DERIVED] an antecedent formula is backed by its negation's norm, and
    # the verdict names the antecedent formula, not the negation
    proof = search_cut_free([BAD], [], SearchBudget(6, 3, 3), "lptn")
    fp = _fixed_point([Not(BAD)])
    assert check_soundness(proof.derivation, fp) == SoundnessVerdict(
        True, 2, "ante", BAD, 0)


def test_soundness_witness_in_the_succedent():
    # [DERIVED] T(T(phi)) enters at stage 2, within its proof's length 3
    goal = truth_of(truth_of(PHI))
    proof = search_cut_free([], [goal], SearchBudget(6, 3, 3), "lptn")
    fp = _fixed_point([goal])
    assert check_soundness(proof.derivation, fp) == SoundnessVerdict(
        True, 3, "succ", goal, 2)


def test_soundness_fails_past_the_length():
    # [DERIVED] a leaf has length 0; the only backed formula, T(T(phi)),
    # enters at stage 2, and the antecedent's negation never enters
    goal = truth_of(truth_of(PHI))
    d = B.leaf("init", [], goal, [])
    fp = _fixed_point([goal, Not(goal)])
    assert check_soundness(d, fp) == SoundnessVerdict(False, 0)


def test_soundness_lists_uncovered_formulas_in_order():
    # [DERIVED] antecedent negations first, then succedent formulas, each
    # side in end-sequent order
    ante, succ = [BAD, truth_of(BAD)], [truth_of(PHI), BAD]
    d = search_cut_free(ante, succ, SearchBudget(6, 3, 3), "lptn").derivation
    fp = _fixed_point([PHI])
    end = d.conclusion
    assert set(end.ante_formulas()) == set(ante) and len(end.succ) == 2
    missing = [Not(f) for f in end.ante_formulas()] + end.succ_formulas()
    with pytest.raises(CoverageError) as e:
        check_soundness(d, fp)
    assert str(e.value) == (
        f"end-sequent formulas not covered by the universe: {missing!r}")


def test_completeness_verdicts_on_each_side():
    # [DERIVED] a member is proved, a member's negation refuted, each with
    # its norm and proof length; with no depth each is a budget failure
    # with the norm of the side it came from
    proved, refuted = truth_of(truth_of(PHI)), truth_of(BAD)
    fp = _fixed_point([proved, Not(refuted)])
    enough, none = SearchBudget(8, 3, 4), SearchBudget(0, 0, 0)
    assert check_completeness(proved, fp, enough) == CompletenessVerdict(
        "proved", 2, 3)
    assert check_completeness(refuted, fp, enough) == CompletenessVerdict(
        "refuted", 1, 3)
    assert check_completeness(proved, fp, none) == CompletenessVerdict(
        "budget_failure", 2)
    assert check_completeness(refuted, fp, none) == CompletenessVerdict(
        "budget_failure", 1)
