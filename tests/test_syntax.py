"""Syntax trees, the signature, substitution, and complexity measures."""

import copy
import gc
import pickle
import random
import sys

import pytest

from truthcut.coding import _TAGS, decode, encode, quote
from truthcut import syntax
from truthcut.sexpr import HEADS, format_formula, parse_formula, parse_term
from truthcut.syntax import (
    SIGNATURE,
    SYNTAX_FN_ARITY,
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
    Times,
    Top,
    Tr,
    Var,
    Zero,
    SynApp,
    Term,
    bound_vars,
    free_vars,
    is_base_atom,
    is_base_formula,
    is_closed,
    is_sentence,
    lexists,
    logical_complexity,
    lor,
    numeral,
    numeral_value,
    substitute,
)

x, y, z = Var("x"), Var("y"), Var("z")
ZERO = Zero()


def test_terms_are_values():
    # [TRIVIAL] structural equality of immutable trees
    assert Plus(x, ZERO) == Plus(Var("x"), Zero())
    assert Suc(ZERO) != ZERO
    assert hash(Eq(x, y)) == hash(Eq(Var("x"), Var("y")))


def test_numerals():
    # [TRIVIAL] numeral_value reads both literal and successor-chain spellings
    assert numeral(7) == Num(7)
    assert numeral_value(Num(7)) == 7
    assert numeral_value(Suc(Suc(Zero()))) == 2
    assert numeral_value(Suc(Num(3))) == 4
    assert numeral_value(Plus(ZERO, ZERO)) is None


def test_free_and_bound_vars():
    # [TRIVIAL]
    phi = Forall("x", And(Eq(x, y), Tr(z)))
    assert free_vars(phi) == {"y", "z"}
    assert bound_vars(phi) == {"x"}
    assert is_closed(Eq(ZERO, Suc(ZERO)))
    assert not is_closed(Eq(x, ZERO))


def test_sentences():
    # [TRIVIAL] sentences are closed formulas
    assert is_sentence(Eq(ZERO, ZERO))
    assert is_sentence(Forall("x", Eq(x, x)))
    assert not is_sentence(Eq(x, ZERO))


def test_base_atoms_exclude_truth():
    # [DERIVED] the initial-sequent restriction admits equations only;
    # truth ascriptions and compounds are excluded
    assert is_base_atom(Eq(ZERO, ZERO))
    assert is_base_atom(Eq(x, y))
    assert not is_base_atom(Tr(Num(5)))
    assert not is_base_atom(Top())
    assert not is_base_atom(And(Eq(x, x), Eq(y, y)))
    assert is_base_formula(Not(Eq(ZERO, ZERO)))
    assert not is_base_formula(Not(Tr(Num(5))))


def test_logical_complexity():
    # [DERIVED] hand-computed values: atoms 0, each connective +1 on the
    # deepest branch, conjunction takes the max
    assert logical_complexity(Eq(ZERO, ZERO)) == 0
    assert logical_complexity(Tr(Num(5))) == 0
    assert logical_complexity(Top()) == 0
    assert logical_complexity(Not(Eq(ZERO, ZERO))) == 1
    assert logical_complexity(And(Not(Eq(x, x)), Eq(y, y))) == 2
    assert logical_complexity(Forall("x", Not(Not(Eq(x, x))))) == 3


def test_derived_connectives():
    # [TRIVIAL] disjunction and existential unfold to their definitions
    a, b = Eq(ZERO, ZERO), Eq(x, x)
    assert lor(a, b) == Not(And(Not(a), Not(b)))
    assert lexists("x", b) == Not(Forall("x", Not(b)))


def test_substitute_basic():
    # [TRIVIAL]
    phi = And(Eq(x, y), Tr(x))
    assert substitute(phi, "x", ZERO) == And(Eq(ZERO, y), Tr(ZERO))
    # bound occurrences are untouched
    psi = Forall("x", Eq(x, y))
    assert substitute(psi, "x", ZERO) == psi


def test_substitute_capture_refused():
    # [DERIVED] substituting a term containing the binder's variable under
    # that binder must be refused, not silently capture
    phi = Forall("y", Eq(x, y))
    with pytest.raises(CaptureError):
        substitute(phi, "x", Suc(y))
    # no capture when the variable does not actually occur free
    chi = Forall("y", Eq(ZERO, ZERO))
    assert substitute(chi, "x", y) == chi


def test_substitution_composition():
    # [DERIVED] for z fresh: phi[x:=t] == (phi[x:=z])[z:=t]
    phi = And(Eq(x, Suc(x)), Not(Tr(x)))
    t = Plus(ZERO, Suc(ZERO))
    via_z = substitute(substitute(phi, "x", z), "z", t)
    assert substitute(phi, "x", t) == via_z


def test_formula_kinds_disjoint():
    # [TRIVIAL]
    kinds = [Eq(ZERO, ZERO), Tr(ZERO), Top(), Bot(), Not(Top()),
             And(Top(), Top()), Forall("x", Eq(x, x))]
    assert len({type(k) for k in kinds}) == 7
    assert Times(ZERO, ZERO) != Plus(ZERO, ZERO)


def _random_term(rng, depth):
    """Terms over x, y, z, numerals and every syntax function."""
    kind = rng.randrange(7) if depth > 0 else rng.randrange(3)
    if kind == 0:
        return rng.choice([x, y, z])
    if kind == 1:
        return ZERO
    if kind == 2:
        return Num(rng.randrange(4))
    if kind == 3:
        return Suc(_random_term(rng, depth - 1))
    if kind == 4:
        return Plus(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 5:
        return Times(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    symbol, arity = rng.choice(sorted(SYNTAX_FN_ARITY.items()))
    return SynApp(symbol, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _random_formula(rng, depth):
    """Formulas over x, y, z with shadowed binders and truth ascriptions of
    quoted, possibly truth-iterated, formulas."""
    def term():
        return rng.choice([x, y, z, ZERO, Suc(x), Plus(y, ZERO), Num(2),
                           SynApp("tdot", (z,)), _random_term(rng, 2)])

    kind = rng.randrange(8) if depth > 0 else rng.randrange(3)
    if kind == 0:
        return Eq(term(), term())
    if kind == 1:
        return Tr(term())
    if kind == 2:
        return rng.choice([Top(), Bot()])
    if kind == 3:
        return Not(_random_formula(rng, depth - 1))
    if kind == 4:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 5:
        # truth iteration: T of the code of a sentence
        inner = _random_formula(rng, depth - 1)
        return Tr(quote(inner if is_sentence(inner) else Eq(ZERO, ZERO)))
    # forall, often shadowing a binder of the same variable below it
    v = rng.choice(["x", "y"])
    return Forall(v, Forall(v, _random_formula(rng, depth - 1))
                  if rng.random() < 0.4 else _random_formula(rng, depth - 1))


def _reference_facts(e):
    """(free variables, bound variables, contains T, logical complexity) of
    a term or formula, by an uncached recursive walk over its children."""
    if isinstance(e, Var):
        return frozenset({e.name}), frozenset(), False, 0
    kids = [_reference_facts(c) for c in syntax.children(e)]
    free = frozenset().union(*(k[0] for k in kids))
    bound = frozenset().union(*(k[1] for k in kids))
    has_t = isinstance(e, Tr) or any(k[2] for k in kids)
    depth = 0
    if isinstance(e, (Not, And, Forall)):
        depth = max(k[3] for k in kids) + 1
    if isinstance(e, Forall):
        free, bound = free - {e.var}, bound | {e.var}
    return free, bound, has_t, depth


def _facts(e):
    return free_vars(e), bound_vars(e), not is_base_formula(e), logical_complexity(e)


def test_syntax_facts_match_a_reference_walker():
    # [DERIVED] the facts set at construction equal the uncached walker's,
    # on terms (syntax-function applications included), shadowed binders
    # and truth-iterated formulas; closedness reads the free variables
    rng = random.Random(23)
    shadowed = Forall("x", And(Eq(x, y), Forall("x", Tr(x))))
    iterated = Tr(Num(0))
    for _ in range(3):
        iterated = Tr(quote(Not(iterated)))
    cases = [shadowed, iterated, SynApp("sub", (x, Suc(y), Plus(z, x)))]
    cases += [_random_term(rng, 4) for _ in range(300)]
    cases += [_random_formula(rng, 4) for _ in range(300)]
    for e in cases:
        want = _reference_facts(e)
        assert _facts(e) == want
        assert is_closed(e) == (not want[0])
    assert _facts(shadowed) == (frozenset({"y"}), frozenset({"x"}), True, 3)


def test_facts_slot_is_invisible():
    # [DERIVED] a node's facts are set when it is built, show in neither its
    # hash nor its repr, and are shared where equal: every closed {0, S, +,
    # x} term has one record, every other variable-free, T-free atom or term
    # another, equal to it, and a parent whose facts equal a child's holds
    # that child's record; a formula built again is the same object;
    # slotted syntax and derivation objects carry no instance dict
    from truthcut.build import init_leaf

    phi = Forall("x", And(Eq(x, y), Not(Tr(Var("z_facts")))))
    assert _facts(phi) == _reference_facts(phi)
    assert hash(phi) == hash(("x", phi.body))
    assert repr(phi) == f"Forall(var='x', body={phi.body!r})"
    twin = Forall("x", And(Eq(x, y), Not(Tr(Var("z_facts")))))
    assert twin is phi and twin == phi and hash(twin) == hash(phi)
    assert twin._facts is phi._facts
    plain = [Num(9), Top(), Bot(), Suc(Num(1)), Eq(ZERO, Num(1)), Eq(ZERO, ZERO),
             SynApp("num", (ZERO,)), Plus(ZERO, SynApp("num", (ZERO,)))]
    chain = [ZERO, Suc(ZERO), Plus(ZERO, Suc(ZERO)), Times(Suc(ZERO), ZERO)]
    assert len({id(e._facts) for e in plain}) == 1
    assert len({id(e._facts) for e in chain}) == 1
    assert chain[0]._facts == plain[0]._facts and chain[0]._facts is not plain[0]._facts
    assert Suc(Plus(x, ZERO))._facts is x._facts
    xy = Plus(x, y)
    assert Eq(xy, Times(y, x))._facts is xy._facts
    d = init_leaf([phi], Eq(x, ZERO), [])
    for obj in (phi, x, ZERO, Top(), d, d.conclusion, d.conclusion.ante[0]):
        assert not hasattr(obj, "__dict__")


# ---------------------------------------------------------------------------
# Hash-consing


def test_hash_is_the_hash_of_the_field_tuple():
    # [DERIVED] for one node of every class, the stored hash is that of its
    # fields in SIGNATURE order, the value a frozen dataclass's hash gave
    terms, formulas = _one_of_each()
    for e in terms + formulas:
        fields = tuple(getattr(e, f) for f in SIGNATURE[type(e)].fields)
        assert hash(e) == hash(fields)
        assert type(e)(*fields) is e


def test_nodes_are_immutable_and_checked_before_interning():
    # [DERIVED] a field cannot be assigned or deleted, a copy or a pickled
    # round trip is the node itself, and a bad numeral or syntax-function
    # application is refused and never enters the table
    phi = Eq(x, Num(3))
    with pytest.raises(AttributeError):
        phi.left = y
    with pytest.raises(AttributeError):
        del phi.right
    assert copy.copy(phi) is copy.deepcopy(phi) is pickle.loads(pickle.dumps(phi)) is phi
    size = _table_size()
    with pytest.raises(syntax.SyntaxError_):
        Num(-1)
    with pytest.raises(syntax.SyntaxError_):
        SynApp("num", (x, y))
    with pytest.raises(TypeError):
        Eq(x)
    assert _table_size() == size


def _table_size():
    """Live entries in the intern tables of all classes."""
    return sum(len(v) if isinstance(v, list) else 1
               for cls in SIGNATURE for v in list(cls._table.values()))


def test_intern_table_holds_no_dead_nodes():
    # [DERIVED] once the last reference to a batch of new nodes is gone, the
    # table is back to its size before the batch, also when a diagonal
    # sentence's numeral remembers the sentence that holds it, and when
    # that numeral was built alone
    from truthcut.coding import diag_code, diagonalize

    gc.collect()
    size = _table_size()
    batch = [Forall("t_batch", Eq(Suc(Num(k)), Plus(Var("t_batch"), Num(k))))
             for k in range(500)]
    batch.append(quote(Tr(quote(Eq(Num(10**40), Zero())))))
    teller = diagonalize(Tr(Var("t_batch")))
    assert quote(teller) is teller.term and teller.term._quoted is teller
    batch.append(teller)
    alone = Num(diag_code(Not(Tr(Var("t_batch"))), "t_batch"))
    assert alone._quoted.body.term is alone and alone._quoted._code == alone.value
    batch.append(alone)
    del teller, alone
    assert _table_size() > size + 2000
    del batch
    gc.collect()
    assert _table_size() == size
    # numerals whose values differ by the modulus of int hashing collide:
    # each is still found as itself, and each entry goes when its node does
    m = sys.hash_info.modulus
    low, high = Num(m + 7), Num(2 * m + 7)
    assert hash(low) == hash(high) and low is not high
    assert Num(m + 7) is low and Num(2 * m + 7) is high
    assert _table_size() == size + 2
    del low
    assert Num(2 * m + 7) is high and _table_size() == size + 1
    del high
    assert _table_size() == size


def test_deep_towers_compare_and_hash_without_recursion(default_recursion_limit):
    # [DERIVED] two 5000-deep (not (= x 0)) towers built apart are one
    # object, and ==, hash, Counter and same_multiset on them succeed at
    # the default recursion limit
    from collections import Counter

    from truthcut.deriv import same_multiset

    towers = []
    for _ in range(2):
        phi = Eq(x, ZERO)
        for _ in range(5000):
            phi = Not(phi)
        towers.append(phi)
    a, b = towers
    assert a is b and a == b and hash(a) == hash(b)
    assert Counter([a, b, Not(a)]) == Counter({a: 2, Not(b): 1})
    assert same_multiset([a, Not(a)], [Not(b), b])
    assert not same_multiset([a, a], [a, Not(a)])


# ---------------------------------------------------------------------------
# The signature, and how deep each walk reaches


def _subclasses(cls):
    """The subclasses of ``cls`` that the syntax module defines."""
    for sub in cls.__subclasses__():
        if getattr(syntax, sub.__name__) is sub:
            yield sub
            yield from _subclasses(sub)


def test_every_constructor_has_a_row_in_each_table():
    # [DERIVED] the signature, the reader/printer heads and the coding tags
    # cover exactly the concrete term and formula classes
    constructors = {*_subclasses(Term), *_subclasses(Formula)}
    assert len(constructors) == 14
    for table in (SIGNATURE, HEADS, _TAGS):
        assert set(table) == constructors


def _one_of_each():
    terms = [x, Zero(), Num(0), Num(7), Suc(x), Plus(x, Zero()), Times(Num(2), y)]
    terms += [SynApp(s, (x, Num(1), Suc(y))[:n]) for s, n in SYNTAX_FN_ARITY.items()]
    formulas = [Eq(x, Num(0)), Tr(Suc(x)), Top(), Bot(), Not(Eq(x, y)),
                And(Top(), Tr(x)), Forall("y", Eq(x, y))]
    return terms, formulas


def test_each_constructor_round_trips():
    # [DERIVED] for one instance of each constructor (every syntax-function
    # symbol included): read(print(e)) == e, decode(encode(e)) == e, and
    # substituting x for x gives e back
    terms, formulas = _one_of_each()
    assert {type(e) for e in terms + formulas} == set(SIGNATURE)
    for parse, exprs in ((parse_term, terms), (parse_formula, formulas)):
        for e in exprs:
            assert parse(format_formula(e)) == e
            assert decode(encode(e)) == e
            assert substitute(e, "x", Var("x")) == e


DEEP = 900


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_walks_reach_900_levels(default_recursion_limit):
    # [DERIVED] the reader, printer and substitution take one frame per
    # syntax level, so 900 levels fit under the default recursion limit
    text = "(not " * DEEP + "(= x 0)" + ")" * DEEP
    phi = parse_formula(text)
    assert format_formula(phi) == text
    assert substitute(phi, "x", Num(1)) is parse_formula(text.replace("x", "1"))
    assert logical_complexity(phi) == DEEP
    term = "(S " * DEEP + "x" + ")" * DEEP
    t = parse_term(term)
    assert format_formula(t) == term
    assert substitute(t, "x", Num(1)) is parse_term(term.replace("x", "1"))


def test_facts_reach_any_depth(default_recursion_limit):
    # [DERIVED] facts are read, not walked: on 5000-deep towers built
    # iteratively, the readers answer at the default recursion limit, and
    # substituting for a variable absent from a tower returns it unchanged
    phi, base, term = Eq(x, ZERO), Eq(x, ZERO), x
    for k in range(5000):
        phi = (Not(phi) if k % 3 == 0 else And(Tr(y), phi) if k % 3 == 1
               else Forall("x", phi))
        base, term = Not(base), Suc(term)
    assert _facts(phi) == (frozenset({"y"}), frozenset({"x"}), True, 5000)
    assert _facts(base) == (frozenset({"x"}), frozenset(), False, 5000)
    assert _facts(term) == (frozenset({"x"}), frozenset(), False, 0)
    assert not is_closed(term) and not is_sentence(phi)
    for tower in (phi, base, term):
        assert substitute(tower, "z", Num(1)) is tower
