"""Syntax trees, substitution, and complexity measures."""

import random

import pytest

from truthcut.coding import quote
from truthcut.syntax import (
    And,
    Bot,
    CaptureError,
    Eq,
    Forall,
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
    bound_vars,
    formula_facts,
    free_vars,
    is_base_atom,
    is_base_formula,
    is_closed,
    is_numeral,
    is_sentence,
    lexists,
    logical_complexity,
    lor,
    numeral,
    numeral_value,
    rename_var,
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
    assert is_numeral(Suc(Zero()))
    assert not is_numeral(x)


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


def test_rename_var():
    # [TRIVIAL]
    assert rename_var(Eq(x, x), "x", "w") == Eq(Var("w"), Var("w"))


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


def _random_formula(rng, depth):
    """Formulas over x, y, z with shadowed binders and truth ascriptions of
    quoted, possibly truth-iterated, formulas."""
    def term():
        return rng.choice([x, y, z, ZERO, Suc(x), Plus(y, ZERO), Num(2),
                           SynApp("tdot", (z,))])

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


def test_formula_facts_match_the_walkers():
    # [DERIVED] the cached facts equal the uncached walkers, before and after
    # the cache is filled, for shadowed binders and truth-iterated formulas
    rng = random.Random(23)
    shadowed = Forall("x", And(Eq(x, y), Forall("x", Tr(x))))
    iterated = Tr(Num(0))
    for _ in range(3):
        iterated = Tr(quote(Not(iterated)))
    cases = [shadowed, iterated] + [_random_formula(rng, 4) for _ in range(300)]
    for phi in cases:
        want = (free_vars(phi), bound_vars(phi), not is_base_formula(phi))
        assert formula_facts(phi) == want
        assert formula_facts(phi) == want
    assert formula_facts(shadowed) == (frozenset({"y"}), frozenset({"x"}), True)


def test_facts_slot_is_invisible():
    # [DERIVED] filling the cache changes neither equality, hash nor repr;
    # slotted syntax and derivation objects carry no instance dict
    from truthcut.build import init_leaf

    phi = Forall("x", And(Eq(x, y), Not(Tr(z))))
    twin = Forall("x", And(Eq(x, y), Not(Tr(z))))
    before = (hash(phi), repr(phi))
    formula_facts(phi)
    assert (hash(phi), repr(phi)) == before
    assert phi == twin and hash(phi) == hash(twin)
    assert twin._facts is None and phi._facts is not None
    d = init_leaf([phi], Eq(x, ZERO), [])
    for obj in (phi, x, ZERO, Top(), d, d.conclusion, d.conclusion.ante[0]):
        assert not hasattr(obj, "__dict__")
