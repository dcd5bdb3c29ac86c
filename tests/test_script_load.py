"""Loading and printing proof scripts: shared formula reads, eq2 template
choice, error texts, and inputs that used to end in a traceback."""

import gc
import hashlib
import json
import pathlib
import random
import sys
import weakref

import pytest

from truthcut import build as B
from truthcut import script, sexpr
from truthcut.arith import refute_equation
from truthcut.kernel import check_derivation
from truthcut.script import ScriptError, fingerprint, parse_script, print_script
from truthcut.sexpr import ParseError, format_formula, parse_formula, parse_sequent
from truthcut.syntax import Eq, Not, Num, Plus, Suc, SynApp, Times, Var, Zero, free_vars

from proofgen import chain_numeral, neg_left

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _eq2_script(premise_ante, conclusion_ante):
    return (f"1: init [] {', '.join(premise_ante)} => (= 0 0)\n"
            f"2: eq2 [1] {', '.join(conclusion_ante)} => (= 0 0)\n")


def _eq2_choice(premise_ante, conclusion_ante):
    d = parse_script(_eq2_script(premise_ante, conclusion_ante))
    var, chi = d.template
    assert var == "w_"
    codes = sorted(check_derivation(d, "qg").codes())
    return format_formula(chi), format_formula(d.term), format_formula(d.term2), codes


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


@pytest.fixture
def empty_cache(monkeypatch):
    """The reader's formula-text cache, emptied for this test and put back
    after it."""
    monkeypatch.setattr(sexpr, "_cache", {})
    monkeypatch.setattr(sexpr, "_cached_chars", 0)
    return sexpr._cache


def _count_reads(monkeypatch) -> list:
    """A list that gets the tokens of each text read whole (one
    ``sexpr._read_whole`` call each) from now on."""
    calls = []
    read = sexpr._read_whole

    def counting(tokens, sort):
        calls.append(tuple(tokens))
        return read(tokens, sort)

    monkeypatch.setattr(sexpr, "_read_whole", counting)
    return calls


def _refuse_tokenize(monkeypatch):
    """Fail the test if a text is tokenized whole from now on, as a line
    that does not split cleanly is."""
    def refuse(text):
        raise AssertionError(f"tokenized whole: {text[:60]!r}")

    monkeypatch.setattr(sexpr, "tokenize", refuse)


def _refutation_text(k: int) -> tuple:
    """The qg refutation of k*k = k*k+1, its script and its distinct
    formula texts."""
    d = refute_equation([], Times(chain_numeral(k), chain_numeral(k)),
                        chain_numeral(k * k + 1), [])
    text = print_script(d)
    pieces = [p.strip() for line in text.splitlines()
              for side in line.split("] ", 1)[1].split("=>")
              for p in side.split(",") if p.strip()]
    distinct = set(pieces)
    assert text.count("\n") > 20 and len(pieces) > 5 * len(distinct)
    return d, text, distinct


@pytest.mark.parametrize("k, bound, fits",
                         [(2, sexpr._CACHE_CHARS, True), (6, 1 << 12, False)])
def test_each_distinct_formula_text_read_once(monkeypatch, empty_cache, k, bound, fits):
    # [DERIVED] every line restates its premises' contexts, yet the loader
    # reads each distinct formula text once, also when the texts pass the
    # cache's bound and the cache is emptied mid-script (the loader's memo
    # keeps what the cache lost; before it, the k = 8 refutation's load took
    # 14x its linear time); a second load of the same script reads none
    # when the cache kept every text; no line is tokenized whole
    d, text, distinct = _refutation_text(k)
    assert (sum(map(len, distinct)) <= bound) == fits
    monkeypatch.setattr(sexpr, "_CACHE_CHARS", bound)
    once = sorted(tuple(sexpr.tokenize(p)) for p in distinct)
    calls = _count_reads(monkeypatch)
    _refuse_tokenize(monkeypatch)
    d2 = parse_script(text)
    assert sorted(calls) == once
    assert fingerprint(d2) == fingerprint(d)
    if fits:
        calls.clear()
        d3 = parse_script(text)
        assert calls == []
        assert fingerprint(d3) == fingerprint(d)


def test_numeral_literal_zero_round_trips():
    # [DERIVED] Num(0) prints as 00, since 0 reads back as Zero(); the
    # fingerprint tells the two apart
    text = "1: init [] (= 00 0) => (= 00 0)\n"
    d = parse_script(text)
    assert print_script(d) == text
    back = parse_script(print_script(d))
    assert back.conclusion.succ_formulas() == [Eq(Num(0), Zero())]
    assert fingerprint(back) != fingerprint(parse_script(text.replace("00", "0")))


def test_repeated_formula_texts_share_one_object(empty_cache):
    # [DERIVED]
    ante, succ = parse_sequent("(= 0 0), (not (= 0 0)) => (= 0 0)")
    ante2, _ = parse_sequent("(not (= 0 0)) =>")
    assert ante[0] is succ[0] and ante[1] is ante2[0]
    assert set(empty_cache) == {"(= 0 0)", "(not (= 0 0))"}
    assert empty_cache["(= 0 0)"] is ante[0] and empty_cache["(not (= 0 0))"] is ante[1]
    assert sexpr._cached_chars == len("(= 0 0)") + len("(not (= 0 0))")


def test_formula_read_by_one_call_is_the_same_object_in_the_next(monkeypatch, empty_cache):
    # [DERIVED] the cache outlives a parse_script call and keeps what it
    # read alive, so a later script restating a formula text gets the same
    # object without reading it
    phi = "(forall x (not (= (S x) 0)))"
    d = parse_script(f"1: init [] {phi} => {phi}\n")
    ref = weakref.ref(d.conclusion.succ_formulas()[0])
    del d
    gc.collect()
    assert ref() is not None
    calls = _count_reads(monkeypatch)
    parse_formula("(= 0 0)")
    fresh = len(calls)
    calls.clear()
    d2 = parse_script(f"1: init [] (= 0 0), {phi} => {phi}\n")
    assert d2.conclusion.succ_formulas()[0] is ref()
    assert d2.conclusion.ante_formulas()[1] is ref()
    assert len(calls) == fresh


def _outcome(text):
    """What a load of ``text`` gives: its fingerprint and its kernel codes
    in lgt, qg and lptn, or the exception's type and text."""
    try:
        d = parse_script(text)
        return fingerprint(d), tuple(
            sorted(check_derivation(d, system).codes()) for system in ("lgt", "qg", "lptn"))
    except Exception as e:
        return type(e), str(e)


def _golden_texts():
    return [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.gp"))]


def test_cache_never_holds_more_text_than_its_bound(monkeypatch, empty_cache):
    # [DERIVED] with the bound patched small, the cache is emptied before a
    # new text would pass it and a longer text is not kept, and every golden
    # script loads as with the real bound
    texts = _golden_texts()
    want = [_outcome(text) for text in texts]
    empty_cache.clear()
    monkeypatch.setattr(sexpr, "_cached_chars", 0)
    bound = 64
    monkeypatch.setattr(sexpr, "_CACHE_CHARS", bound)
    held, long_pieces = [], []
    read_piece = sexpr._read_piece

    def checked(piece, memo):
        phi = read_piece(piece, memo)
        total = sum(map(len, empty_cache))
        assert total == sexpr._cached_chars <= bound
        if len(piece) > bound:
            long_pieces.append(piece)
            assert piece not in empty_cache
        held.append(total)
        return phi

    monkeypatch.setattr(sexpr, "_read_piece", checked)
    assert [_outcome(text) for text in texts] == want
    assert long_pieces and max(held) > bound // 2
    assert any(b < a for a, b in zip(held, held[1:]))


@pytest.mark.parametrize("text, message", ERRORS)
def test_malformed_lines_keep_their_messages_after_a_warm_read(text, message, empty_cache):
    # [DERIVED] the messages stay those of the tokenizing reader when an
    # earlier call read well-formed copies of the line's formulas
    parse_script("1: init [] (= 0 0), (= 0 x) => (= 0 0), top\n"
                 "2: negl [1] (not (= 0 0)), (= 0 0), (= 0 x) => top\n")
    for line in text.splitlines():
        for piece in line.split("] ", 1)[1].replace("=>", ",").split(","):
            try:
                parse_sequent(f"{piece} =>")
            except ParseError:
                pass
    assert "(= 0 0)" in empty_cache and "(not (= 0 0))" in empty_cache
    with pytest.raises(ScriptError) as e:
        parse_script(text)
    assert str(e.value) == message


_MUTATIONS = ["(", ")", "=", ">", "=>", ",", ";", " ", "\n", "0", "00", "1", "S", "x",
              "T", "not", "forall", "[", "]", ":", "1: "]


def _mutant(rng, text):
    """``text`` with one seeded character-level edit: a deletion, an
    insertion, a replacement or a repeated span."""
    i = rng.randrange(len(text))
    k = rng.randrange(4)
    if k == 0:
        return text[:i] + text[i + 1:]
    if k == 1:
        return text[:i] + rng.choice(_MUTATIONS) + text[i:]
    if k == 2:
        return text[:i] + rng.choice(_MUTATIONS) + text[i + 1:]
    j = min(len(text), i + rng.randrange(1, 40))
    return text[:j] + text[i:j] + text[j:]


def test_warm_cache_reads_like_an_empty_one(empty_cache):
    # [DERIVED] every golden script and 500 seeded mutations of them load to
    # the same fingerprint and kernel codes, or the same error, with an
    # empty cache and with one warmed by every text first
    rng = random.Random(28)
    golden = _golden_texts()
    texts = golden + [_mutant(rng, rng.choice(golden)) for _ in range(500)]
    cold = []
    for text in texts:
        empty_cache.clear()
        sexpr._cached_chars = 0
        cold.append(_outcome(text))
    for text in texts:
        _outcome(text)
    assert [_outcome(text) for text in texts] == cold
    assert sum(type(o[0]) is tuple for o in cold) > 50
    assert sum(o[0] is ScriptError for o in cold) > 300


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
        neg_left(lf, lf.conclusion.ante[0].id)


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


def test_equal_conjuncts_read_with_distinct_actives():
    # [DERIVED] the reader's andl takes both copies of A from its premise,
    # and its andr one from each premise, as build.logical picks them
    text = ("1: init [] (= 0 0), (= 0 0) => (= 0 0)\n"
            "2: andl [1] (and (= 0 0) (= 0 0)) => (= 0 0)\n"
            "3: init [] (= 0 0), (= 0 0) => (= 0 0)\n"
            "4: andl [3] (and (= 0 0) (= 0 0)) => (= 0 0)\n"
            "5: andr [2, 4] (and (= 0 0) (= 0 0)) => (and (= 0 0) (= 0 0))\n")
    d = parse_script(text)
    for andl in d.premises:
        assert len({oid for _, oid in andl.actives}) == 2
    assert [pi for pi, _ in d.actives] == [0, 1]
    assert check_derivation(d, "lptn").ok
    assert print_script(d) == text


@pytest.mark.parametrize("text, code", [
    ("1: init [] (forall x (forall y (= x y))), (forall y (= y y)), (= 0 0) => (= 0 0)\n"
     "2: foralll [1] (forall x (forall y (= x y))), (= 0 0) => (= 0 0)\n",
     "WITNESS_MISMATCH"),
    ("1: init [] (= 0 0) => (= 0 0), (forall y (= y y))\n"
     "2: forallr [1] (= 0 0) => (= 0 0), (forall x (forall y (= x y)))\n",
     "EIGENVAR_CLASH"),
])
def test_capturing_instance_reads_and_the_kernel_names_it(text, code):
    # [DERIVED] the instance matches the universal's body only by capturing
    # y; the reader still builds the node, so the kernel reports the capture
    # instead of the reader refusing the line
    report = check_derivation(parse_script(text), "lgt")
    assert report.codes() == {code}
    assert "capture" in report.violations[0].message
