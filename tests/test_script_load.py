"""Loading and printing proof scripts: shared formula reads, eq2 template
choice, error texts, and inputs that used to end in a traceback."""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from truthcut import build as B
from truthcut import script, sexpr
from truthcut.arith import chain_numeral, refute_equation
from truthcut.kernel import check_derivation
from truthcut.script import ScriptError, fingerprint, parse_script, print_script
from truthcut.sexpr import ParseError, format_formula, format_term, parse_formula, parse_sequent
from truthcut.syntax import Eq, Not, Num, Plus, Suc, SynApp, Times, Var, Zero, free_vars

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _eq2_script(premise_ante, conclusion_ante):
    return (f"1: init [] {', '.join(premise_ante)} => (= 0 0)\n"
            f"2: eq2 [1] {', '.join(conclusion_ante)} => (= 0 0)\n")


def _eq2_choice(premise_ante, conclusion_ante):
    d = parse_script(_eq2_script(premise_ante, conclusion_ante))
    var, chi = d.template
    assert var == "w_"
    codes = sorted(check_derivation(d, "qg").codes())
    return format_formula(chi), format_term(d.term), format_term(d.term2), codes


def test_eq2_first_trigger_in_antecedent_order_wins():
    # [DERIVED] x=y and x=z both turn (S x)=0 into a kept instance; the
    # trigger listed first is chosen, as before the candidate index
    kept = ["(= (S y) 0)", "(= (S z) 0)", "(= 0 0)"]
    for triggers, chosen in ((["(= x y)", "(= x z)"], "y"),
                             (["(= x z)", "(= x y)"], "z")):
        ante = triggers + kept
        assert _eq2_choice(ante + ["(= (S x) 0)"], ante) == (
            "(= (S w_) 0)", "x", chosen, [])


def test_eq2_first_kept_instance_wins():
    # [DERIVED] one trigger, two kept instances of (+ x x)=0 giving different
    # templates; the kept equation listed first decides
    for kept, template in ((["(= (+ y x) 0)", "(= (+ x y) 0)"], "(= (+ w_ x) 0)"),
                           (["(= (+ x y) 0)", "(= (+ y x) 0)"], "(= (+ x w_) 0)")):
        ante = ["(= x y)"] + kept + ["(= 0 0)"]
        assert _eq2_choice(ante + ["(= (+ x x) 0)"], ante) == (
            template, "x", "y", [])


def test_eq2_template_variable_already_free():
    # [DERIVED] when w_ is free in the discharged equation, a kept copy of it
    # generalizes to itself and mentions w_ without any replacement: the
    # unrelated first trigger a=b is chosen and the kernel rejects the
    # template; a trigger on w_ itself gives a valid step
    ante = ["(= a b)", "(= (S w_) 0)", "(= 0 0)"]
    assert _eq2_choice(ante + ["(= (S w_) 0)"], ante) == (
        "(= (S w_) 0)", "a", "b", ["TEMPLATE_MISMATCH"])
    ante = ["(= w_ y)", "(= (S y) 0)", "(= 0 0)"]
    assert _eq2_choice(ante + ["(= (S w_) 0)"], ante) == (
        "(= (S w_) 0)", "w_", "y", [])


def test_eq2_no_fitting_pair():
    # [TRIVIAL]
    with pytest.raises(ScriptError, match="no trigger equation and kept instance"):
        parse_script(_eq2_script(["(= x y)", "(= (S x) 0)", "(= 0 0)"],
                                 ["(= x y)", "(= 0 0)"]))


ERRORS = [
    # (script, message): texts pinned from the tokenizing reader
    ("1: init [] (= 0 0) => (= 0 0\n",
     "line 1: at token 10: unexpected end of input"),
    ("1: init [] (= 0 0) => (= 0 0)\n2: negl [1] (not (= 0 0), (= 0 0) =>\n",
     "line 2: at token 7: expected ')', got ','"),
    ("1: init [] (= 0 0) => (= 0 0)\n2: negl [1] (not (= 0 0)), (= 0 0)) =>\n",
     "line 2: at token 14: bad formula token ')'"),
    ("1: init [] (= 0 0), (= 0 0 => (= 0 0)\n",
     "line 1: at token 10: expected ')', got '=>'"),
    ("1: init [] top=>top\n",
     "line 1: at token 0: bad formula token 'top=>top'"),
    ("1: init [] (= 0 0) => (= 0 0) => top\n",
     "line 1: at token 11: more than one '=>'"),
    ("1: init [] (= 0 0), (= 0 0)\n",
     "line 1: sequent is missing '=>'"),
    ("1: init [] (= 0 x=>y) => (= 0 0)\n",
     "line 1: at token 3: bad term token 'x=>y'"),
    ("1: init [] (= 0 0) => (foo 0 0)\n",
     "line 1: at token 7: unknown formula head 'foo'"),
    ("1: init [] (= 0 0) => (= 0 0)\n2: negl [1] (not (= 0 0)), (= 0 0) =>\n"
     "3: negl [2] (not (= 0 0)), (= 0 0 =>\n",
     "line 3: at token 13: expected ')', got '=>'"),
]


@pytest.mark.parametrize("text, message", ERRORS)
def test_malformed_lines_keep_their_messages(text, message):
    # [DERIVED] lines that do not split cleanly are tokenized whole, so the
    # message and token position are those of the tokenizing reader, also
    # when a well-formed copy of the formula was read on an earlier line
    with pytest.raises(ScriptError) as e:
        parse_script(text)
    assert str(e.value) == message


def test_unusual_separators_still_parse():
    # [DERIVED] the tokenizing reader accepts missing and doubled commas and
    # an arrow without spaces; so does the loader
    for seq in ("(= 0 0) (= 0 0) => (= 0 0)", "(= 0 0), (= 0 0) (= 0 0) => (= 0 0)",
                ", (= 0 0),, => (= 0 0),", "(= 0 0)=>(= 0 0)"):
        d = parse_script(f"1: init [] {seq}\n")
        assert check_derivation(d, "lgt").ok
        assert (d.conclusion.ante_formulas(), d.conclusion.succ_formulas()) == \
            parse_sequent(seq)


def test_each_distinct_formula_text_read_once(monkeypatch):
    # [DERIVED] every line restates its premises' contexts, yet the loader
    # reads each distinct formula text once
    d = refute_equation([], Times(chain_numeral(2), chain_numeral(2)), chain_numeral(3), [])
    text = print_script(d)
    pieces = [p.strip() for line in text.splitlines()
              for side in line.split("] ", 1)[1].split("=>")
              for p in side.split(",") if p.strip()]
    distinct = set(pieces)
    assert text.count("\n") > 20 and len(pieces) > 5 * len(distinct)
    calls = []
    read = sexpr._read

    def counting(tokens, i, sort):
        calls.append(i)
        return read(tokens, i, sort)

    monkeypatch.setattr(sexpr, "_read", counting)
    for p in distinct:
        parse_formula(p)
    once = len(calls)
    calls.clear()
    d2 = parse_script(text)
    assert len(calls) == once
    assert fingerprint(d2) == fingerprint(d)


def test_numeral_literal_zero_round_trips():
    # [DERIVED] Num(0) prints as 00, since 0 reads back as Zero(); the
    # fingerprint tells the two apart
    text = "1: init [] (= 00 0) => (= 00 0)\n"
    d = parse_script(text)
    assert print_script(d) == text
    back = parse_script(print_script(d))
    assert back.conclusion.succ_formulas() == [Eq(Num(0), Zero())]
    assert fingerprint(back) != fingerprint(parse_script(text.replace("00", "0")))


def test_repeated_formula_texts_share_one_object():
    # [DERIVED]
    memo = {}
    ante, succ = parse_sequent("(= 0 0), (not (= 0 0)) => (= 0 0)", memo)
    ante2, _ = parse_sequent("(not (= 0 0)) =>", memo)
    assert ante[0] is succ[0] and ante[1] is ante2[0]
    assert set(memo) == {"(= 0 0)", "(not (= 0 0))"}


LEAF_SEQUENTS = {"init": "(= 0 0) => (= 0 0)", "top": "=> top", "bot": "bot =>",
                 "qg1": "(= (S 0) 0) =>"}


@pytest.mark.parametrize("rule", LEAF_SEQUENTS)
def test_leaf_lines_list_no_premises(rule):
    # [DERIVED] a leaf line that lists a premise used to drop it unchecked
    text = ("1: init [] (= 0 (S 0)) => (= 0 (S 0))\n"
            f"2: {rule} [1] {LEAF_SEQUENTS[rule]}\n")
    with pytest.raises(ScriptError, match=f"^line 2: {rule}: needs no premises$"):
        parse_script(text)


def test_golden_round_trips():
    # [DERIVED] every golden script the reader accepts survives print ->
    # parse with the same fingerprint, and printing is a fixed point after
    # one round
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    refused = {entry["file"] for entry in manifest if "refused" in entry}
    for path in sorted(GOLDEN.glob("*.gp")):
        if path.name in refused:
            continue
        d = parse_script(path.read_text(encoding="utf-8"))
        text = print_script(d)
        d2 = parse_script(text)
        assert fingerprint(d2) == fingerprint(d), path.name
        assert print_script(d2) == text, path.name


def test_print_script_output_pinned():
    # [DERIVED] sha256 of the output before formatting was shared per formula
    d = refute_equation([Not(Eq(chain_numeral(1), chain_numeral(2)))],
                        Times(chain_numeral(3), chain_numeral(3)), chain_numeral(10), [])
    text = print_script(d)
    assert text.count("\n") == 76
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ad1b53f0fc63a984fff8b56ab5b15856746d34be4d7dfeaaed7d40516f7e07d9")


def test_print_and_parse_without_recursion():
    # [DERIVED] a 300-node chain of eq1 steps prints and loads back with the
    # recursion limit set 50 frames above the caller's depth
    phi = Eq(Zero(), Zero())
    d = B.init_leaf([phi] * 300, phi, [])
    for _ in range(300):
        d = B.eq1(d, d.conclusion.ante[0].id)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        text = print_script(d)
        d2 = parse_script(text)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("\n") == 301
    assert check_derivation(d2, "qg").ok and fingerprint(d2) == fingerprint(d)


def test_oversized_numeral_literal_is_a_parse_error():
    # [DERIVED] int() refuses literals past CPython's 4300-digit limit; the
    # reader reports them instead of raising ValueError
    big = "9" * 5000
    with pytest.raises(ParseError, match="numeral literal of 5000 digits"):
        parse_formula(f"(= 0 {big})")
    with pytest.raises(ScriptError, match="line 1: at token 3: numeral literal of 5000"):
        parse_script(f"1: init [] (= 0 {big}) => (= 0 {big})\n")
    with pytest.raises(ScriptError, match="line 1: node id of 5000 digits"):
        parse_script(f"{big}: init [] (= 0 0) => (= 0 0)\n")
    with pytest.raises(ScriptError, match="bad numeral literal '7²'"):
        parse_script("1: init [] (= 0 7²) => (= 0 7²)\n")
    with pytest.raises(ScriptError, match="bad premise id '²'"):
        parse_script("1: init [] (= 0 0) => (= 0 0)\n2: eq1 [²] =>\n")


@pytest.mark.parametrize("text, message", [
    ("1: init [] (= 00 0) => (= 00 0)\n2: eq1 [1] => (= 00 0)\n",
     "line 2: eq1: discharges a reflexive equation"),
    ("1: init [] (not (= 0 0)), (= 0 0) => (= 0 0)\n"
     "2: qg2 [1] (= 0 0) => (= 0 0)\n",
     "line 2: qg2: discharges an equation"),
])
def test_builder_refusals_name_the_rule_once(text, message):
    # [DERIVED] parse_script prefixes the rule to a builder's refusal, which
    # used to name it again ("eq1: eq1 discharges ...")
    with pytest.raises(ScriptError) as e:
        parse_script(text)
    assert str(e.value) == message


def test_wrong_side_active_refusal_leaves_the_rule_to_the_caller():
    # [DERIVED] build._node's side check no longer names the rule, which
    # parse_script prefixes to every builder refusal
    lf = B.init_leaf([], Eq(Zero(), Zero()), [])
    with pytest.raises(B.BuildError, match="^active must be in the succedent$"):
        B.neg_left(lf, lf.conclusion.ante[0].id)


def test_unbuildable_rule_is_a_script_error():
    # [DERIVED] a cut whose premise contexts differ used to escape as
    # BuildError
    text = ("1: init [] (= (S x) (S 0)), (= (S 0) (S 0)) => (= (S 0) (S 0)), (not (= 0 0))\n"
            "2: init [] (not (= 0 0)), (= (S 0) (S 0)), (= (S 0) (S 0)) => (= (S 0) (S 0)), (not (= 0 0))\n"
            "3: init [] (not (= 0 0)), (not (= 0 0)), (= (S 0) (S 0)), (= (S 0) (S 0)) => (= (S 0) (S 0))\n"
            "4: cut [2, 3] (not (= 0 0)), (= (S 0) (S 0)), (= (S 0) (S 0)) => (= (S 0) (S 0))\n"
            "5: cut [1, 4] (= (S 0) (S 0)), (= (S 0) (S 0)) => (= (S 0) (S 0))\n")
    with pytest.raises(ScriptError, match="line 5: cut: contexts do not match"):
        parse_script(text)


def _random_term(rng, depth):
    k = rng.randrange(7 if depth > 0 else 3)
    if k == 0:
        return Var(rng.choice(["x", "y", "w_"]))
    if k == 1:
        return Zero()
    if k == 2:
        return Num(rng.randrange(3))
    if k == 3:
        return Suc(_random_term(rng, depth - 1))
    if k == 6:
        return SynApp("num", (_random_term(rng, depth - 1),))
    return (Plus, Times)[k - 4](_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _subterms(t):
    kids = (t.child,) if isinstance(t, Suc) else \
        (t.left, t.right) if isinstance(t, (Plus, Times)) else ()
    return [t] + [s for c in kids for s in _subterms(c)]


def _replace_some(rng, t, s, u):
    if t == s and rng.random() < 0.6:
        return u
    if isinstance(t, Suc):
        return Suc(_replace_some(rng, t.child, s, u))
    if isinstance(t, (Plus, Times)):
        return type(t)(_replace_some(rng, t.left, s, u), _replace_some(rng, t.right, s, u))
    return t


def test_eq2_index_keeps_the_plain_search_choice():
    # [DERIVED] on random antecedents (triggers and kept instances drawn from
    # the discharged equation's subterms, w_ among the variables) the indexed
    # search returns the same template and the same trigger object as trying
    # every trigger x kept pair in order
    def plain(d, ante):
        for trig in ante:
            if trig.left == trig.right:
                continue
            for kept in ante:
                chi = script._generalize(d, kept, trig.left, trig.right, "w_")
                if chi is not None and "w_" in free_vars(chi):
                    return chi, trig
        return None

    rng = random.Random(23)
    hits = 0
    for _ in range(3000):
        d = Eq(_random_term(rng, 3), _random_term(rng, 3))
        ante = []
        for _ in range(rng.randrange(1, 7)):
            s = rng.choice(_subterms(d.left) + _subterms(d.right))
            u = _random_term(rng, 1)
            k = rng.randrange(4)
            if k == 0:
                ante.append(Eq(_random_term(rng, 2), _random_term(rng, 2)))
            if k in (1, 3):
                ante.append(Eq(s, u))
            if k in (2, 3):
                ante.append(Eq(_replace_some(rng, d.left, s, u),
                               _replace_some(rng, d.right, s, u)))
        rng.shuffle(ante)
        want, got = plain(d, ante), script._eq2_template(d, ante)
        assert want == got and (want is None or want[1] is got[1])
        hits += want is not None
    assert hits > 1000
