"""Codes kept on syntax nodes, sentences kept on quoted numerals, and the
fixed-point universe built from them, each against a computation that keeps
nothing."""

import pathlib
import random
import time

import pytest

from truthcut.cli import _read_seed_file
from truthcut.coding import (
    _DIAG,
    _SYN_ORDER,
    _TAGS,
    CodeSizeError,
    DecodeError,
    EvalError,
    _str_code,
    _str_decode,
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
from truthcut.search import SearchBudget, _Searcher
from truthcut.semantics import build_universe
from truthcut.sexpr import format_formula, parse_formula
from truthcut.syntax import (
    SIGNATURE,
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
    Times,
    Top,
    Tr,
    Var,
    Zero,
    children,
    is_sentence,
    rebuild,
    substitute,
)

from proofgen import chain_numeral, code_keyed

from fixpoint_digest import corpus

PINS = pathlib.Path(__file__).parent / "fixpoint_pins"
LIAR, TELLER = liar(), truth_teller()


def _nodes(x):
    """Every term and formula node of ``x``, ``x`` included."""
    out, todo = [], [x]
    while todo:
        e = todo.pop()
        out.append(e)
        todo.extend(children(e))
    return out


def _swap(e, old, new):
    """``e`` with ``new`` for every subtree ``old``."""
    if e is old:
        return new
    kids = children(e)
    return rebuild(e, [_swap(c, old, new) for c in kids]) if kids else e


def _subst(e, x, t):
    """``e`` with the closed term ``t`` for the free occurrences of ``x``."""
    if type(e) is Var:
        return t if e.name == x else e
    kids = children(e)
    if not kids or (type(e) is Forall and e.var == x):
        return e
    return rebuild(e, [_subst(c, x, t) for c in kids])


def _ref_code(e, memo=None):
    """The code of ``e`` by the coding's definition, computed afresh over
    ``children`` and ``SIGNATURE``; it reads no cache slot of any node.  A
    formula gets the smallest DIAG code among its numerals whose diagonal
    sentence it is (``e`` is the formula that code's body codes, with that
    numeral for the body's variable), else its tagged structural code."""
    if memo is not None and e in memo:
        return memo[e]
    cls = type(e)
    tag = _TAGS[cls]
    if cls is Num:
        payload = e.value
    else:
        codes = [_ref_code(c, memo) for c in children(e)]
        datum = SIGNATURE[cls].datum
        if cls is SynApp:
            tag += _SYN_ORDER.index(e.symbol)
        elif datum is not None:
            codes.insert(0, _str_code(getattr(e, datum)))
        payload = codes.pop() if codes else 0
        while codes:
            payload = pair(codes.pop(), payload)
    code = pair(tag, payload) + 1
    if isinstance(e, Formula):
        nums = {n.value for n in _nodes(e) if type(n) is Num and n.value >= 1}
        for c in sorted(nums):
            tag_c, body = unpair(c - 1)
            if tag_c != _DIAG:
                continue
            f, v = unpair(body)
            name = _str_decode(v)
            phi = _swap(e, Num(c), Var(name))
            if _ref_code(phi, memo) == f and _subst(phi, name, Num(c)) is e:
                code = c
                break
    if memo is not None:
        memo[e] = code
    return code


def _unencoded_diagonal(make, v):
    """The diagonal sentence of ``make(Var(v))`` at ``v``, built without
    encoding it; ``v`` is a name no other test uses, so no live node is
    this one.  It has its DIAG code from the moment its numeral is built."""
    body = make(Var(v))
    c = diag_code(body, v)
    lam = substitute(body, v, Num(c))
    assert lam._code == c == _ref_code(lam)
    return lam


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
    # the code that an uncached reference encoder gives it, and the liar and
    # truth-teller rebuilt from scratch get their DIAG codes
    rng = random.Random(61)
    for _ in range(300):
        phi = _formula(rng, rng.randrange(4))
        nodes = _nodes(phi)
        rng.shuffle(nodes)
        for e in nodes[: rng.randrange(len(nodes) + 1)]:
            encode(e)
        code = encode(phi)
        assert code == _ref_code(phi) == encode(phi)
        for e in _nodes(phi):  # below a DIAG match nothing is encoded
            assert e._code in (None, _ref_code(e))
            assert encode(e) == _ref_code(e)
    assert encode(Not(Tr(Num(encode(LIAR))))) == encode(LIAR) == _ref_code(LIAR)
    assert encode(Tr(Num(encode(TELLER)))) == encode(TELLER) == _ref_code(TELLER)


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
    phi = Eq(Suc(Suc(Num(2**1000 + 61))), Zero())
    low = phi.left.child
    assert all(e._code is None for e in (phi, phi.left, low, low.child))
    whole = _ref_code(phi)
    cap = _ref_code(low).bit_length()
    with pytest.raises(CodeSizeError):
        encode(phi, cap)
    assert phi._code is None and phi.left._code is None
    assert low._code == _ref_code(low) and low.child._code is not None
    assert encode(phi) == whole


def test_cap_measures_a_diagonal_sentence_by_its_own_code():
    # [DERIVED] the numeral inside a liar or a truth-teller has a longer
    # code than the sentence itself; under a cap the sentence still gets its
    # DIAG code, as the code of the whole decides.  Each sentence is built
    # from scratch; a capped encode that fails leaves its code as it was.
    for make, v in ((lambda x: Not(Tr(x)), "cap_l"), (Tr, "cap_t")):
        lam = _unencoded_diagonal(make, v)
        bits = _ref_code(lam).bit_length()
        assert _ref_code(lam.term if type(lam) is Tr else lam.body.term).bit_length() > bits
        with pytest.raises(CodeSizeError):
            encode(lam, bits - 1)
        assert lam._code == _ref_code(lam)
        assert encode(lam, bits) == _ref_code(lam)
        phi = Not(Not(_unencoded_diagonal(make, v + "2")))
        assert phi._code is None
        assert encode(phi, _ref_code(phi).bit_length()) == _ref_code(phi)


def test_encode_over_coded_children_reads_one_node(monkeypatch):
    # [DERIVED] encoding a node whose children have codes reads only that
    # node's children, however large they are and whatever DIAG numerals
    # they hold.  (Each level of a formula at least doubles its code's bit
    # length, so a coded formula is large by width, not depth.)
    import truthcut.coding as coding

    parts = [LIAR] + [Eq(Num(k), Zero()) for k in range(15)]
    while len(parts) > 1:
        parts = [And(a, b) for a, b in zip(parts[::2], parts[1::2])]
    phi = parts[0]
    encode(phi)
    top = Not(phi)
    read = []
    real = coding.children
    monkeypatch.setattr(coding, "children", lambda e: read.append(e) or real(e))
    code = encode(top)
    monkeypatch.undo()
    assert read == [top]
    assert code == _ref_code(top, {})


def test_a_diagonal_sentence_has_its_code_however_its_numeral_is_built():
    # [DERIVED] a diagonal sentence has its DIAG code, and its numeral
    # names it, from the moment the numeral is built: by the reader, by
    # decode, by syntax-function evaluation or by diagonalize.  Each way
    # uses a variable no other test uses, so its numeral is new.
    def fresh(v):
        body = Not(Tr(Var(v)))
        return body, diag_code(body, v)

    def coded(lam, c):
        assert lam._code == c == _ref_code(lam)
        assert lam.body.term._quoted is lam and decode(c) is lam

    body, c = fresh("by_reader")
    coded(parse_formula(format_formula(body).replace("by_reader", str(c))), c)
    _, c = fresh("by_decode")
    coded(decode(c), c)
    body, c = fresh("by_num")
    # sub(#body, #v, num(c)): num builds the numeral, sub the sentence
    made = SynApp("num", (Suc(Num(c - 1)),))
    assert eval_term(SynApp("sub", (quote(body), Num(encode(Var("by_num"))), made))) == c
    coded(substitute(body, "by_num", Num(c)), c)
    body, c = fresh("by_diagonalize")
    coded(diagonalize(body), c)


def test_decoding_a_live_diagonal_numeral_decodes_nothing(monkeypatch):
    # [DERIVED] the liar's numeral, alive with the liar, remembers it, so
    # decoding the liar's code decodes no part of it again
    import truthcut.coding as coding

    c = encode(LIAR)
    calls = []
    real = coding._decode_as
    monkeypatch.setattr(coding, "_decode_as",
                        lambda *args: calls.append(args) or real(*args))
    assert decode(c) is LIAR
    assert calls == []


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


def _ref_clause(phi, bound, memo):
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
        return (False, (_ref_code(phi.left, memo), _ref_code(phi.right, memo)))
    if isinstance(phi, Forall):
        insts = _ref_instances(phi, bound)
        return (False, tuple(_ref_code(i, memo) for i in insts)) if insts else false
    if isinstance(phi, Not):
        inner = phi.body
        if isinstance(inner, Eq):
            return _ref_identity(inner, False)
        if isinstance(inner, Bot):
            return (False, ())
        if isinstance(inner, Tr):
            try:
                phi = Not(decode_sentence(eval_term(inner.term)))
                return (False, (_ref_code(phi, memo),))
            except (EvalError, DecodeError):
                return false
        if isinstance(inner, Not):
            return (False, (_ref_code(inner.body, memo),))
        if isinstance(inner, And):
            return (True, (_ref_code(Not(inner.left), memo),
                           _ref_code(Not(inner.right), memo)))
        if isinstance(inner, Forall):
            return (True, tuple(_ref_code(Not(i), memo)
                                for i in _ref_instances(inner, bound)))
    return false


def _ref_universe(seeds, bound):
    """(codes, sentences, clauses) of the closure that decodes every code;
    its codes come from the uncached reference encoder."""
    sentences, clauses, memo = {}, {}, {}
    work = [_ref_code(s, memo) for s in seeds]
    while work:
        c = work.pop()
        if c in sentences:
            continue
        try:
            phi = decode_sentence(c)
        except DecodeError:
            continue
        sentences[c] = phi
        clauses[c] = _ref_clause(phi, bound, memo)
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
        assert code_keyed(u) == (sentences, clauses)
        assert all(is_sentence(phi) for phi in u.order)
