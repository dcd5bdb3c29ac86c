"""Coding of expressions as naturals, evaluation, and diagonalization."""

import hashlib
import itertools
import random

import pytest

from truthcut.coding import (
    DecodeError,
    EvalError,
    decode,
    decode_sentence,
    diag_code,
    diagonalize,
    encode,
    eval_term,
    liar,
    pair,
    quote,
    truth_teller,
    unpair,
)
from truthcut.syntax import (
    And,
    Bot,
    Eq,
    Forall,
    Not,
    Num,
    Plus,
    Suc,
    SynApp,
    Times,
    Top,
    Tr,
    Var,
    Zero,
    numeral,
)

from proofgen import truth_of


def codes_sentence(c: int) -> bool:
    try:
        decode_sentence(c)
        return True
    except DecodeError:
        return False


def test_pairing_bijective():
    # [DERIVED] the pairing function is a bijection on an initial segment
    seen = {}
    for a in range(50):
        for b in range(50):
            c = pair(a, b)
            assert c not in seen
            seen[c] = (a, b)
            assert unpair(c) == (a, b)


def test_pairing_is_cantors_on_large_values():
    # [DERIVED] pair squares its sum instead of multiplying s by s + 1; the
    # number is Cantor's, and unpair inverts it, for values of 0 to 2^20 bits
    # one width per octave up to 2^17 bits, then 2^20 bits once: unpair's
    # isqrt takes seconds there
    rng = random.Random(20261019)
    widths = [0, 1] + [rng.randrange(2**k, 2**(k + 1)) for k in range(17)] + [2**20]
    for w in widths:
        a = rng.getrandbits(w)
        b = rng.getrandbits(rng.randrange(w + 1))
        if rng.random() < 0.5:
            a, b = b, a
        s = a + b
        c = pair(a, b)
        assert c == s * (s + 1) // 2 + b
        assert unpair(c) == (a, b)


def _random_term(rng, depth):
    if depth == 0:
        return rng.choice([Zero(), Num(rng.randrange(10)), Var("x"), Var("y")])
    k = rng.randrange(4)
    if k == 0:
        return Suc(_random_term(rng, depth - 1))
    if k == 1:
        return Plus(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if k == 2:
        return Times(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return rng.choice([Zero(), Num(rng.randrange(100))])


def _random_formula(rng, depth):
    if depth == 0:
        return rng.choice([
            Eq(_random_term(rng, 1), _random_term(rng, 1)),
            Tr(_random_term(rng, 1)),
            Top(),
            Bot(),
        ])
    k = rng.randrange(3)
    if k == 0:
        return Not(_random_formula(rng, depth - 1))
    if k == 1:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    return Forall(rng.choice(["x", "y"]), _random_formula(rng, depth - 1))


def test_encode_injective_and_decode_inverse():
    # [DERIVED] >= 10^4 random expressions: codes are pairwise distinct for
    # distinct trees, and decode(encode(e)) reproduces e exactly
    rng = random.Random(20260825)
    exprs = []
    for _ in range(5000):
        exprs.append(_random_term(rng, rng.randrange(4)))
    for _ in range(5000):
        exprs.append(_random_formula(rng, rng.randrange(4)))
    codes = {}
    for e in exprs:
        c = encode(e)
        assert decode(c) == e
        if c in codes:
            assert codes[c] == e
        codes[c] = e
    distinct = {repr(e) for e in exprs}
    assert len({encode(e) for e in exprs}) == len(distinct)


def test_decode_rejects_garbage():
    # [DERIVED] not every natural is a code
    bad = 0
    for c in range(200):
        try:
            decode(c)
        except DecodeError:
            bad += 1
    assert bad > 0


def test_decode_errors_name_large_codes_by_bit_length():
    # [DERIVED] a code past CPython's int-to-str limit used to make the
    # message itself raise ValueError; short codes keep their decimal form
    small = encode(Zero())
    with pytest.raises(DecodeError, match=f"^{small} codes a term where"):
        decode_sentence(small)
    big = encode(Num(2**20000))
    with pytest.raises(DecodeError) as e:
        decode_sentence(big)
    assert str(e.value) == (f"<{big.bit_length()}-bit number> codes a term "
                            "where a formula was expected")


def test_quote_and_decode_sentence():
    # [TRIVIAL]
    phi = Not(Eq(Zero(), Suc(Zero())))
    q = quote(phi)
    assert isinstance(q, Num)
    assert decode_sentence(q.value) == phi
    assert codes_sentence(q.value)
    assert not codes_sentence(encode(Eq(Var("x"), Zero())))  # open formula
    assert truth_of(phi) == Tr(q)


def test_eval_term_arithmetic():
    # [DERIVED] evaluation agrees with ordinary arithmetic
    two = Suc(Suc(Zero()))
    assert eval_term(two) == 2
    assert eval_term(Plus(two, Num(3))) == 5
    assert eval_term(Times(Num(4), two)) == 8
    assert eval_term(Num(0)) == 0
    with pytest.raises(EvalError):
        eval_term(Var("x"))


def test_eval_syntax_functions():
    # [DERIVED] syntax operations evaluate to the code of the built expression
    phi, psi = Eq(Zero(), Zero()), Eq(Num(1), Num(1))
    a, b = Num(encode(phi)), Num(encode(psi))
    assert eval_term(SynApp("negdot", (a,))) == encode(Not(phi))
    assert eval_term(SynApp("anddot", (a, b))) == encode(And(phi, psi))
    assert eval_term(SynApp("num", (Num(3),))) == encode(numeral(3))


def test_diagonalization_fixed_point():
    # [DERIVED] the diagonal sentence lam of phi(v) satisfies
    # lam == phi(numeral(#lam)), checked by decoding the code
    from truthcut.syntax import substitute

    phi = Not(Tr(Var("v")))
    lam = diagonalize(phi, "v")
    c = encode(lam)
    assert decode(c) == lam
    assert lam == substitute(phi, "v", numeral(c))


def test_liar_and_truth_teller():
    # [DERIVED] liar: lam = not T(numeral(#lam)); truth-teller: tt = T(numeral(#tt))
    lam = liar()
    assert isinstance(lam, Not) and isinstance(lam.body, Tr)
    assert lam.body.term == numeral(encode(lam))
    tt = truth_teller()
    assert isinstance(tt, Tr)
    assert tt.term == numeral(encode(tt))
    assert encode(lam) != encode(tt)


def test_distinct_diagonal_sentences():
    # [DERIVED] diagonalizing different matrices gives different sentences
    a = diagonalize(Not(Tr(Var("v"))), "v")
    b = diagonalize(Tr(Var("v")), "v")
    c = diagonalize(And(Tr(Var("v")), Eq(Zero(), Zero())), "v")
    assert len({encode(a), encode(b), encode(c)}) == 3


def test_decode_refuses_a_diagonal_code_whose_variable_is_not_free():
    # [DERIVED] such a code used to decode to its body, whose own code is
    # another, so two numerals named one sentence
    c = diag_code(Eq(Zero(), Zero()), "v")
    assert c == 43039579506 and encode(Eq(Zero(), Zero())) == 391
    with pytest.raises(DecodeError, match="^43039579506 is not a code"):
        decode(c)
    assert not codes_sentence(c)
    assert Num(c)._quoted is None
    assert decode(diag_code(Not(Tr(Var("v"))), "v")) == liar()


def test_diagonal_codes_pinned():
    # [DERIVED] encode looks for diagonal numerals once per call; the codes
    # of diagonal sentences alone, negated and nested are those of the
    # level-by-level scan (first 32 hex digits of sha256 of the decimal code)
    lam, tt, x = liar(), truth_teller(), Var("x")
    pinned = {
        "197dea252e68a74fdcffc5ade2e3ab7d": lam,
        "4f60b5b2ccacbc633ec31202723792ba": tt,
        "aef659cf17b8015943a5a0e9dc389907": Not(lam),
        "09cc13df42c297063c0346f923d3cda1": Not(tt),
        "81c3763c646f70d46255e021f55cca4e": And(lam, Not(tt)),
        "4fa7ab47860b5150b59f9dcbbb9fc194": And(Not(lam), tt),
        "8a7f89c212cf2fa25c9c0a570dd0d908": Forall("x", And(Eq(x, x), lam)),
        "3c78064e6cf30ce6964d1695f8b0a3f5": Forall("x", Not(And(tt, Eq(x, Zero())))),
        "2fc5981f5075e079c9b77059d0a82ba6": truth_of(lam),
        "5f00c5fba7af1e4b1715a870fd98def5": truth_of(Not(tt)),
        "5f06289d2cf92939f663b08b9f2292a3": truth_of(truth_of(lam)),
    }
    for digest, phi in pinned.items():
        code = str(encode(phi)).encode()
        assert hashlib.sha256(code).hexdigest()[:32] == digest, phi


def test_constants_have_one_code_each():
    # [DERIVED] 0, top and bot carry no payload; any other payload under
    # their tag codes nothing
    for e in (Zero(), Top(), Bot()):
        tag, payload = unpair(encode(e) - 1)
        assert payload == 0 and decode(encode(e)) == e
        with pytest.raises(DecodeError):
            decode(pair(tag, 5) + 1)
