"""Terms and formulas of the truth language over arithmetic.

The term signature is {0, S, +, x} plus a fixed family of function symbols
for primitive recursive syntax operations (num, sub, negdot, anddot, alldot,
eqdot, tdot, tr, val).  Numerals have a compact literal representation
``Num(n)`` denoting S^n(0); explicit S-chains over 0 remain legal terms and
the two spellings are distinct syntactic objects with the same value.

Formulas are built from =, T, top, bot, not, and, forall.  ``or`` and
``exists`` are derived (see :func:`lor`, :func:`lexists`).  top and bot are
not atomic; equations and truth ascriptions are.

Each constructor's structure is stated once, in :data:`SIGNATURE`: its
child fields, the sort of its children and its one non-child datum.  The
classes take their fields from it, and the walks that only follow
structure read it (:func:`children`, :func:`rebuild`, :func:`substitute`,
the reader and printer of :mod:`~.sexpr`, the coding of :mod:`~.coding`).
Adding a constructor touches its class, its row in ``SIGNATURE``, its head
in ``sexpr.HEADS``, its tag in ``coding._TAGS``, and the functions that
give it a meaning (evaluation, the semantics' clauses, the kernel's rules).

Terms and formulas are hash-consed (:class:`Expr`): a constructor returns
the one live node with its fields, so equal trees are one object, ``==``
is identity and the hash is stored.  A node's syntax facts (free and bound
variables, whether it contains ``T``, logical complexity) are set when it
is built, from its children's, so no reader of them walks the tree.  Its
code and the sentence a quoted numeral names are cached on it once.  A
class may have a hook that runs on each of its new nodes; only ``Num`` has
one, set by :mod:`~.coding`: a numeral whose value is the code of a
diagonal sentence names that sentence, and the sentence gets that code.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Callable, NamedTuple


class SyntaxError_(Exception):
    """Malformed term or formula construction."""


class CaptureError(SyntaxError_):
    """Substitution would capture a free variable of the substituted term."""


# ---------------------------------------------------------------------------
# Hash-consing


class _Entry(weakref.ref):
    """The intern table's weak reference to a node, with the node's hash."""

    __slots__ = ("hash",)


def _dropper(table: dict):
    """The callback that forgets a dead node's entry in ``table``."""

    def drop(entry: _Entry) -> None:
        found = table.get(entry.hash)
        if found is entry:
            del table[entry.hash]
        elif type(found) is list:
            found.remove(entry)  # a dead entry equals only itself
            if not found:
                del table[entry.hash]

    return drop


class Expr:
    """A term or formula, hash-consed (Filliatre & Conchon, 2006).

    ``cls(*fields)`` returns the one live node of class ``cls`` with those
    fields, building it only if there is none, so structurally equal nodes
    are the same object: ``==`` is identity.  The hash is that of the
    field tuple, computed once from the children's stored hashes.  Neither
    recurses.  A class's fields are named by its :data:`SIGNATURE` row,
    datum first and then children, and live in the slots ``_f0`` and
    ``_f1``.  A class's ``_check`` refuses fields that make no node before
    the node enters the table, so a node found there has passed it.

    Each class's table maps a hash to weak references to the live nodes
    with that hash (one, or a list on a collision), and a node is found by
    comparing its fields with ``==``, which is identity on children.  So
    the table refers to no node strongly: a node lives exactly as long as
    the program holds it, even when a cache slot closes a cycle (a diagonal
    sentence's numeral remembers the sentence that holds it).  The program
    includes the script reader's formula-text cache (:mod:`~.sexpr`), which
    keeps the formulas of recently read texts alive, up to 2^20 characters
    of text.
    A new node's ``_facts`` are set by its class's ``_derive`` rule, and
    once it is in the table its class's ``_interned`` hook, where set, runs
    on it (:mod:`~.coding` sets the one on ``Num``).  Nodes are immutable;
    the cache slots (``_code`` here, ``_quoted`` on numerals) are None
    until filled through ``object.__setattr__``."""

    __slots__ = ("_f0", "_f1", "_hash", "_facts", "_code", "__weakref__")

    #: field names, from the class's SIGNATURE row
    _fields: tuple[str, ...] = ()
    #: setters of the class's cache slots, each None in a new node
    _caches: tuple = ()
    _check = None
    #: run on each new node of the class once it is in the table
    _interned: Callable[["Expr"], None] | None = None
    #: fields -> the new node's facts
    _derive: Callable[..., tuple]
    #: hash -> the entry, or a list of the entries, of the class's live
    #: nodes with that hash; ``_drop`` forgets a dead node's entry
    _table: dict
    _drop: Callable[[_Entry], None]

    def __new__(cls, *args):
        h = hash(args)
        found = cls._table.get(h)
        if found is not None:
            n = len(args)
            for entry in (found,) if type(found) is _Entry else found:
                node = entry()
                # children compare by identity, a datum by value
                if node is not None and (n == 0 or node._f0 == args[0] and (
                        n == 1 or node._f1 == args[1])):
                    return node
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} "
                            f"argument(s), got {len(args)}")
        if cls._check is not None:
            cls._check(*args)
        node = _new(cls)
        if args:
            _set_f0(node, args[0])
            if len(args) == 2:
                _set_f1(node, args[1])
        _set_hash(node, h)
        _set_facts(node, cls._derive(*args))
        for fill in cls._caches:
            fill(node, None)
        entry = _Entry(node, cls._drop)
        entry.hash = h
        if found is None:
            cls._table[h] = entry
        elif type(found) is _Entry:
            cls._table[h] = [found, entry]
        else:
            found.append(entry)
        if cls._interned is not None:
            cls._interned(node)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


_new = object.__new__
_set_f0, _set_f1, _set_hash, _set_facts = (
    Expr._f0.__set__, Expr._f1.__set__, Expr._hash.__set__, Expr._facts.__set__)


# ---------------------------------------------------------------------------
# Terms


class Term(Expr):
    __slots__ = ()


class Var(Term):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class Suc(Term):
    __slots__ = ()


class Plus(Term):
    __slots__ = ()


class Times(Term):
    __slots__ = ()


class Num(Term):
    """Numeral literal: the canonical name of the natural number ``value``."""

    #: the formula this numeral names, set by :func:`~.coding.quote` and,
    #: for a DIAG code, when the numeral is built
    __slots__ = ("_quoted",)

    @staticmethod
    def _check(value):
        if value < 0:
            raise SyntaxError_(f"numeral value must be a natural: {value}")

    def __repr__(self) -> str:
        # a message that shows a formula never hits the int-to-str digit limit
        return f"Num(value={numeral_text(self.value)})"


def numeral_text(value: int) -> str:
    """``value`` in decimal, or by :func:`~.coding.code_label` past CPython's
    int-to-str digit limit; every message that shows a numeral uses this."""
    try:
        return str(value)
    except ValueError:
        from .coding import code_label

        return code_label(value)


#: symbol -> arity for the syntax-function fragment
SYNTAX_FN_ARITY = {
    "num": 1,
    "sub": 3,
    "negdot": 1,
    "anddot": 2,
    "alldot": 2,
    "eqdot": 2,
    "tdot": 1,
    "tr": 2,
    "val": 1,
}


class SynApp(Term):
    __slots__ = ()

    @staticmethod
    def _check(symbol, args):
        arity = SYNTAX_FN_ARITY.get(symbol)
        if arity is None:
            raise SyntaxError_(f"unknown syntax function symbol: {symbol}")
        if len(args) != arity:
            raise SyntaxError_(
                f"{symbol} expects {arity} argument(s), got {len(args)}"
            )


def numeral(n: int) -> Term:
    """Canonical numeral for ``n``."""
    return Num(n)


def numeral_value(t: Term) -> int | None:
    """Value of ``t`` if it is a numeral (Num literal or S-chain), else None."""
    k = 0
    while isinstance(t, Suc):
        k += 1
        t = t.child
    if isinstance(t, Zero):
        return k
    if isinstance(t, Num):
        return k + t.value
    return None


def is_zero(t: Term) -> bool:
    """``t`` is the numeral 0: ``0`` or the literal ``Num(0)``."""
    return isinstance(t, Zero) or (isinstance(t, Num) and t.value == 0)


# ---------------------------------------------------------------------------
# Formulas


class Formula(Expr):
    __slots__ = ()


class Eq(Formula):
    __slots__ = ()


class Tr(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ()


class And(Formula):
    __slots__ = ()


class Forall(Formula):
    __slots__ = ()


def lor(a: Formula, b: Formula) -> Formula:
    """Derived disjunction: not(not a and not b)."""
    return Not(And(Not(a), Not(b)))


def lexists(x: str, body: Formula) -> Formula:
    """Derived existential: not forall x not body."""
    return Not(Forall(x, Not(body)))


def is_base_atom(phi: Formula) -> bool:
    """Atomic formula of the T-free base language: an equation.  All terms
    (including syntax-function applications) belong to the base language; only
    the truth predicate does not.  These are the only admissible principal
    formulas of restricted initial sequents."""
    return isinstance(phi, Eq)


# ---------------------------------------------------------------------------
# The signature


class Shape(NamedTuple):
    """How a constructor is built: its child fields in order, the sort of its
    children, and its one non-child datum, which comes first among the
    constructor's arguments."""

    kids: tuple[str, ...]
    kid_sort: type | None = None
    datum: str | None = None

    @property
    def fields(self) -> tuple[str, ...]:
        """The constructor's arguments in order: the datum, then the kids."""
        return self.kids if self.datum is None else (self.datum, *self.kids)


#: concrete class -> its shape; the one statement of which constructors
#: exist and what their children are.  A ``SynApp``'s one child field,
#: ``args``, is the tuple of its children.
SIGNATURE: dict[type, Shape] = {
    Var: Shape((), datum="name"),
    Zero: Shape(()),
    Num: Shape((), datum="value"),
    Suc: Shape(("child",), Term),
    Plus: Shape(("left", "right"), Term),
    Times: Shape(("left", "right"), Term),
    SynApp: Shape(("args",), Term, "symbol"),
    Eq: Shape(("left", "right"), Term),
    Tr: Shape(("term",), Term),
    Top: Shape(()),
    Bot: Shape(()),
    Not: Shape(("body",), Formula),
    And: Shape(("left", "right"), Formula),
    Forall: Shape(("body",), Formula, "var"),
}


# ---------------------------------------------------------------------------
# Syntax facts: (free variables, bound variables, contains T, logical
# complexity), where logical complexity is the depth of the maximal branch
# of the syntax tree, counting only logical constants.  Records are shared
# where equal, which keeps the memory they take small.

_NONE: frozenset[str] = frozenset()
#: the facts of every variable-free, T-free node of complexity 0 that is
#: not a closed {0, S, +, x} term
_PLAIN = (_NONE, _NONE, False, 0)
#: the facts of every closed term over {0, S, +, x}: equal to _PLAIN but
#: its own object, so that ``t._facts is _CHAIN`` says the term is one
_CHAIN = (_NONE, _NONE, False, 0)


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``: ``a`` or ``b`` itself when it is that union."""
    return a if b <= a else b if a <= b else a | b


def _over_terms(*kids: Term) -> tuple:
    """The facts of a node over terms that neither binds nor contains T (a
    compound term, an equation): a child's own when its free variables
    hold all the others'."""
    facts = _PLAIN
    for k in kids:
        kf = k._facts
        if not kf[0] <= facts[0]:
            facts = kf if facts[0] <= kf[0] else (facts[0] | kf[0], _NONE, False, 0)
    return facts


def _chain(*kids: Term) -> tuple:
    """The facts of a successor, sum or product: _CHAIN when every child
    has it.  _over_terms returns a child's record only when it has free
    variables, so _CHAIN reaches no other node."""
    for k in kids:
        if k._facts is not _CHAIN:
            return _over_terms(*kids)
    return _CHAIN


def _not(body: Formula) -> tuple:
    free, bound, has_t, depth = body._facts
    return free, bound, has_t, depth + 1


def _and(left: Formula, right: Formula) -> tuple:
    lf, rf = left._facts, right._facts
    return (_union(lf[0], rf[0]), _union(lf[1], rf[1]), lf[2] or rf[2],
            max(lf[3], rf[3]) + 1)


def _forall(var: str, body: Formula) -> tuple:
    free, bound, has_t, depth = body._facts
    return (free - {var} if var in free else free,
            bound if var in bound else bound | {var}, has_t, depth + 1)


#: class -> its facts rule, where its shape does not give it: a leaf's
#: facts are _PLAIN, and other nodes over terms take _over_terms
_RULES: dict[type, Callable[..., tuple]] = {
    Var: lambda name: (frozenset((name,)), _NONE, False, 0),
    Zero: lambda: _CHAIN,
    Suc: _chain,
    Plus: _chain,
    Times: _chain,
    SynApp: lambda symbol, args: _over_terms(*args),
    Tr: lambda term: (term._facts[0], _NONE, True, 0),
    Not: _not,
    And: _and,
    Forall: _forall,
}

# each class's named fields, facts rule, cache slots and intern table,
# from its row
for _cls, _shape in SIGNATURE.items():
    _cls._fields = _shape.fields
    for _slot, _name in zip((Expr._f0, Expr._f1), _cls._fields):
        setattr(_cls, _name, _slot)
    _cls._derive = staticmethod(_RULES.get(_cls) or (
        _over_terms if _shape.kids else lambda *datum: _PLAIN))
    _cls._caches = tuple(getattr(_cls, name).__set__ for name in
                         ("_code", "_quoted") if hasattr(_cls, name))
    _cls._table = {}
    _cls._drop = _dropper(_cls._table)
del _cls, _shape, _slot, _name

ZERO = Zero()
TOP = Top()
BOT = Bot()


#: class -> (an attrgetter of its child fields, or None for a leaf; whether
#: that getter returns the one child rather than the tuple of children)
_KIDS = {cls: (attrgetter(*shape.kids) if shape.kids else None,
               len(shape.kids) == 1 and cls is not SynApp)
         for cls, shape in SIGNATURE.items()}


def children(x: Term | Formula) -> tuple:
    """The children of a term or formula, in order."""
    try:
        get, one = _KIDS[type(x)]
    except KeyError:
        raise TypeError(f"not a term or formula: {x!r}") from None
    if get is None:
        return ()
    return (get(x),) if one else get(x)


def rebuild(x: Term | Formula, kids) -> Term | Formula:
    """A node like ``x``, with the same constructor and datum, over ``kids``."""
    cls = type(x)
    if cls is SynApp:
        return SynApp(x.symbol, tuple(kids))
    datum = SIGNATURE[cls].datum
    if datum is None:
        return cls(*kids)
    return cls(getattr(x, datum), *kids)


# ---------------------------------------------------------------------------
# Reading the facts


def free_vars(x: Term | Formula) -> frozenset[str]:
    return x._facts[0]


def bound_vars(x: Term | Formula) -> frozenset[str]:
    return x._facts[1]


def is_base_formula(x: Term | Formula) -> bool:
    """Formula of the T-free base language (no occurrence of the T predicate)."""
    return not x._facts[2]


def logical_complexity(x: Term | Formula) -> int:
    """0 on terms, atoms, top and bot; else one more than its deepest child."""
    return x._facts[3]


def is_closed(x: Term | Formula) -> bool:
    return not x._facts[0]


def is_chain_closed(t: Term) -> bool:
    """Closed term over {0, S, +, x} only (no numeral literal, no syntax
    function)."""
    return t._facts is _CHAIN


def is_sentence(phi: Formula) -> bool:
    return not phi._facts[0]


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding by refusal, not by renaming)


def substitute(e: Term | Formula, x: str, t: Term) -> Term | Formula:
    """``e``, a term or formula, with ``t`` for every free occurrence of
    the variable ``x``.  A subtree without one comes back as it is.

    Raises :class:`CaptureError` when ``t`` is not free for ``x`` in ``e``.
    """
    if x not in e._facts[0]:
        return e
    cls = type(e)
    if cls is Var:
        return t
    if cls is Forall and e.var in t._facts[0]:
        raise CaptureError(
            f"substituting {t!r} for {x} under binder of {e.var} would capture"
        )
    new = []
    for c in children(e):
        new.append(substitute(c, x, t))
    if SIGNATURE[cls].datum is None:
        return cls(*new)  # rebuild(e, new) without a frame of its own
    return rebuild(e, new)


def fresh_name(base: str, avoid) -> str:
    """A variable name not in ``avoid``, derived from ``base``."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"
