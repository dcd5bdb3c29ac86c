"""Codes kept on syntax nodes, sentences kept on quoted numerals, and the
fixed-point universe built from them, each against a computation that keeps
nothing."""

import pathlib
import random
import time
from dataclasses import fields

import pytest

from truthcut.arith import chain_numeral
from truthcut.cli import _read_seed_file
from truthcut.coding import (
    CodeSizeError,
    DecodeError,
    EvalError,
    decode,
    decode_sentence,
    encode,
    eval_term,
    liar,
    quote,
    truth_teller,
)
from truthcut.search import SearchBudget, _Searcher
from truthcut.semantics import build_universe
from truthcut.sexpr import parse_formula
from truthcut.syntax import (
    And,
    Bot,
    CaptureError,
    Eq,
    Forall,
    Formula,
    Not,
    Num,
    Plus,
    Suc,
    SynApp,
    Term,
    Times,
    Top,
    Tr,
    Var,
    Zero,
    is_sentence,
    substitute,
)

from fixpoint_digest import corpus

PINS = pathlib.Path(__file__).parent / "fixpoint_pins"
LIAR, TELLER = liar(), truth_teller()


def _fresh(x):
    """A structurally equal copy of ``x`` that keeps no code and no quoted
    sentence."""
    if isinstance(x, tuple):
        return tuple(_fresh(a) for a in x)
    if isinstance(x, (Term, Formula)):
        return type(x)(*(_fresh(getattr(x, f.name)) for f in fields(x) if f.init))
    return x


def _nodes(x):
    """Every term and formula node of ``x``, ``x`` included."""
    out, todo = [], [x]
    while todo:
        e = todo.pop()
        out.append(e)
        for f in fields(e):
            if f.init:
                v = getattr(e, f.name)
                todo.extend(v if isinstance(v, tuple) else
                            [v] if isinstance(v, (Term, Formula)) else [])
    return out


def _term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            Zero(), Num(rng.randrange(5)), Var("x"), Var("y"),
            Num(encode(LIAR)), Num(encode(TELLER)),
        ])
    k = rng.randrange(5)
    if k == 0:
        return Suc(_term(rng, depth - 1))
    if k == 1:
        return Plus(_term(rng, depth - 1), _term(rng, depth - 1))
    if k == 2:
        return Times(_term(rng, depth - 1), _term(rng, depth - 1))
    if k == 3:
        return SynApp("negdot", (quote(_formula(rng, depth - 1)),))
    return quote(_formula(rng, depth - 1))


def _formula(rng, depth):
    """Random formula with quoted subformulas, DIAG numerals and, built from
    scratch, the liar and the truth-teller."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([
            Eq(_term(rng, depth), _term(rng, depth)), Tr(_term(rng, depth)), Top(), Bot(),
            Not(Tr(Num(encode(LIAR)))), Tr(Num(encode(TELLER))),
        ])
    k = rng.randrange(4)
    if k == 0:
        return Not(_formula(rng, depth - 1))
    if k == 1:
        return And(_formula(rng, depth - 1), _formula(rng, depth - 1))
    if k == 2:
        return Forall(rng.choice(["x", "y"]), _formula(rng, depth - 1))
    return Tr(quote(_formula(rng, depth - 1)))


def _tower(phi, height):
    for _ in range(height):
        phi = Tr(quote(phi))
    return phi


def test_cached_codes_match_fresh_copies():
    # [DERIVED] whatever order the subnodes are encoded in, every node keeps
    # the code that a fresh, structurally equal copy gets, and the liar and
    # truth-teller rebuilt from scratch get their DIAG codes
    rng = random.Random(61)
    for _ in range(300):
        phi = _formula(rng, rng.randrange(4))
        nodes = _nodes(phi)
        rng.shuffle(nodes)
        for e in nodes[: rng.randrange(len(nodes) + 1)]:
            encode(e)
        code = encode(phi)
        assert code == encode(_fresh(phi)) == encode(phi)
        for e in _nodes(phi):  # below a DIAG match nothing is encoded
            assert e._code in (None, encode(_fresh(e)))
            assert encode(e) == encode(_fresh(e))
    assert encode(Not(Tr(Num(encode(LIAR))))) == encode(LIAR)
    assert encode(Tr(Num(encode(TELLER)))) == encode(TELLER)


def test_decode_inverts_encode_and_quote_remembers():
    # [DERIVED] decode(encode(phi)) == phi, and quote(phi) names phi itself
    rng = random.Random(62)
    phis = [_formula(rng, rng.randrange(4)) for _ in range(300)]
    phis += [LIAR, TELLER, Not(LIAR), _tower(LIAR, 2),
             _tower(Eq(Zero(), Suc(Zero())), 4), _tower(Not(TELLER), 3)]
    for phi in phis:
        assert decode(encode(phi)) == phi
        q = quote(phi)
        assert q._quoted is phi
        assert q._quoted == decode(q.value)
        assert q == Num(q.value) and hash(q) == hash(Num(q.value))


def test_aborted_encode_keeps_no_code():
    # [DERIVED] a node whose code passes the cap raises and keeps no code;
    # the subnodes that stayed under it keep their true codes
    phi = Eq(Suc(Suc(Num(2**1000))), Zero())
    whole = encode(_fresh(phi))
    low = phi.left.child
    cap = encode(_fresh(low)).bit_length()
    with pytest.raises(CodeSizeError):
        encode(phi, cap)
    assert phi._code is None and phi.left._code is None
    assert low._code == encode(_fresh(low)) and low.child._code is not None
    assert encode(phi) == whole


def test_cap_measures_a_diagonal_sentence_by_its_own_code():
    # [DERIVED] the numeral inside the liar or the truth-teller has a longer
    # code than the sentence itself; under a cap the sentence still gets its
    # DIAG code, as the code of the whole decides
    for lam in (LIAR, TELLER):
        bits = encode(lam).bit_length()
        assert encode(_fresh(lam), bits) == encode(lam)
        with pytest.raises(CodeSizeError):
            encode(_fresh(lam), bits - 1)
        phi = Not(Not(lam))
        assert encode(_fresh(phi), encode(phi).bit_length()) == encode(phi)


def test_sub_past_the_cap_stops_early():
    # [DERIVED] substituting a 31k-bit numeral under six successors used to
    # build a 4M-bit code, about 6.5 s, before the cap was checked; encode
    # now stops at the first node past it
    x = Var("x")
    body = x
    for _ in range(6):
        body = Suc(body)
    big = SynApp("num", (SynApp("tr", (quote(Eq(Zero(), Zero())), Num(6))),))
    term = SynApp("sub", (quote(Eq(body, Zero())), Num(encode(x)), big))
    start = time.monotonic()
    with pytest.raises(CodeSizeError):
        eval_term(term)
    assert time.monotonic() - start < 1.0


def test_unquote_uses_the_remembered_sentence():
    # [DERIVED] search disquotes a quoted numeral to the sentence it
    # remembers, and a numeral written out to its decoding
    searcher = _Searcher(SearchBudget(), "lptn")
    phi = Not(Eq(Zero(), Suc(Zero())))
    assert searcher._unquote(Tr(quote(phi))) is phi
    assert searcher._unquote(Tr(Num(encode(phi)))) == phi
    assert searcher._unquote(Tr(quote(Eq(Var("x"), Zero())))) is None


# ---------------------------------------------------------------------------
# The universe against a closure that decodes every code


def _ref_instances(phi, bound):
    out = []
    for k in range(bound + 1):
        try:
            out.append(substitute(phi.body, phi.var, chain_numeral(k)))
        except CaptureError:
            continue
    return out


def _ref_identity(phi, holds_if_equal):
    try:
        equal = eval_term(phi.left) == eval_term(phi.right)
    except EvalError:
        return (True, ())
    return (False, ()) if equal == holds_if_equal else (True, ())


def _ref_clause(phi, bound):
    false = (True, ())
    if isinstance(phi, Eq):
        return _ref_identity(phi, True)
    if isinstance(phi, Top):
        return (False, ())
    if isinstance(phi, Tr):
        try:
            return (False, (eval_term(phi.term),))
        except EvalError:
            return false
    if isinstance(phi, And):
        return (False, (encode(phi.left), encode(phi.right)))
    if isinstance(phi, Forall):
        insts = _ref_instances(phi, bound)
        return (False, tuple(encode(i) for i in insts)) if insts else false
    if isinstance(phi, Not):
        inner = phi.body
        if isinstance(inner, Eq):
            return _ref_identity(inner, False)
        if isinstance(inner, Bot):
            return (False, ())
        if isinstance(inner, Tr):
            try:
                return (False, (encode(Not(decode_sentence(eval_term(inner.term)))),))
            except (EvalError, DecodeError):
                return false
        if isinstance(inner, Not):
            return (False, (encode(inner.body),))
        if isinstance(inner, And):
            return (True, (encode(Not(inner.left)), encode(Not(inner.right))))
        if isinstance(inner, Forall):
            return (True, tuple(encode(Not(i))
                                for i in _ref_instances(inner, bound)))
    return false


def _ref_universe(seeds, bound):
    """(codes, sentences, clauses) of the closure that decodes every code;
    the sentences it decodes keep no code beforehand."""
    sentences, clauses = {}, {}
    work = [encode(_fresh(s)) for s in seeds]
    while work:
        c = work.pop()
        if c in sentences:
            continue
        try:
            phi = decode_sentence(c)
        except DecodeError:
            continue
        sentences[c] = phi
        clauses[c] = _ref_clause(phi, bound)
        work.extend(clauses[c][1])
    return frozenset(sentences), sentences, clauses


def _seed_sets():
    yield _read_seed_file(str(PINS / "liar.seeds")), 2
    for _, texts, bound in corpus():
        yield [parse_formula(t) for t in texts], bound
    rng = random.Random(63)
    for _ in range(40):
        seeds = [phi for phi in (_formula(rng, 3) for _ in range(3))
                 if is_sentence(phi)]
        yield seeds + [_tower(rng.choice([LIAR, TELLER, Eq(Zero(), Zero())]),
                              rng.randrange(3))], rng.randrange(1, 4)


def test_universe_matches_decoding_reference():
    # [DERIVED] on the pinned seeds, the fixpoint digest corpus and random
    # seed sets, the universe has the codes, clauses and sentences (==) of a
    # closure that decodes every code, and every sentence it keeps is one
    for seeds, bound in _seed_sets():
        u = build_universe(seeds, bound)
        codes, sentences, clauses = _ref_universe(seeds, bound)
        assert u.codes == codes
        assert u.clauses == clauses
        assert u.sentences == sentences
        assert all(is_sentence(phi) for phi in u.sentences.values())
