"""Injective coding of terms and formulas into naturals, closed-term
evaluation, and diagonal sentences.

The scheme is a deterministic tagged Cantor pairing: every expression gets
``pair(tag, payload) + 1`` where the payload folds the children's codes.
:func:`pair` computes Cantor's ``s*(s+1)//2 + b`` as ``((s*s + s) >> 1) + b``,
the same number: CPython squares a large integer faster than it multiplies
two different ones.
Code 0 is deliberately not in the image, so ``decode(0)`` fails.  The
payload folds a node's datum code first, when it has one, and then its
children's codes, in the order ``syntax.SIGNATURE`` gives.  The tag is the
one name of the node's class here (:data:`_TAGS`, read by both
:func:`encode` and :func:`decode`), so a new constructor needs only its tag.

Self-reference uses a dedicated DIAG tag.  ``diag_code(f, v)`` is the code of
the sentence obtained by plugging its *own* numeral into the formula coded by
``f`` at variable ``v``, so the decoded fixed point is literal:
``decode(#lam) == substitute(phi, v, numeral(#lam))``.  A plain monotone
structural coding cannot deliver that equation, which is why the tag exists.
A DIAG code whose ``v`` is not free in ``f`` codes nothing: its sentence
would be ``f`` itself, which has its own code.
The sentence gets its DIAG code when its numeral is built: ``Num``'s
interning hook (:func:`_name_diagonal`) decodes a DIAG value once, and the
numeral and its sentence then hold each other, so every formula equal to
the sentence is that one coded node while either lives.  A DIAG code is
decoded only there: :func:`decode` returns the sentence its numeral
remembers, and runs the hook's checks itself only to raise the
``DecodeError`` of a code that names nothing.

Codes are computed once per distinct term or formula: :func:`encode`
works bottom-up and keeps each node's code in the node's ``_code`` slot,
which is sound because a node's code depends on that node alone, and
equal nodes are one object (:class:`~.syntax.Expr`).  A numeral made by
:func:`quote`, and a numeral of a DIAG code, keeps the formula it names in
its ``_quoted`` slot, so a caller holding one need not decode its value.
Syntax functions build codes under :data:`MAX_CODE_BITS`, and ``encode``
stops at the first node past it.
"""

from __future__ import annotations

import math

from .syntax import (
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
    SynApp,
    Term,
    Times,
    Top,
    Tr,
    Var,
    Zero,
    children,
    free_vars,
    is_closed,
    is_sentence,
    substitute,
)


class CodingError(Exception):
    pass


class DecodeError(CodingError):
    """The given natural is not the code of any expression."""


class EvalError(Exception):
    pass


class OpenTermError(EvalError):
    pass


class NonCodeArgumentError(EvalError):
    """A syntax-function argument does not code an expression of the right kind."""


class CodeSizeError(EvalError):
    """A syntax function's value would exceed :data:`MAX_CODE_BITS` bits."""


#: Largest bit length a syntax function may produce during evaluation.  Each
#: ``T`` wrapper multiplies a code's bit length by about four, so without a
#: cap ``(tr n m)`` would run for ever on modest ``m``.
MAX_CODE_BITS = 2**20


class DiagonalizationError(Exception):
    pass


#: ends every label :func:`code_label` gives a long code; no formula text
#: the script reader accepts contains it
LABEL_END = "-bit number>"


def code_label(c: int) -> str:
    """``c`` for a message: in decimal while short, else by bit length (codes
    soon pass CPython's int-to-str digit limit)."""
    return str(c) if c.bit_length() <= 256 else f"<{c.bit_length()}{LABEL_END}"


# ---------------------------------------------------------------------------
# Cantor pairing


def pair(a: int, b: int) -> int:
    s = a + b
    return ((s * s + s) >> 1) + b  # s*(s+1)//2 + b; see the module docstring


def unpair(c: int) -> tuple[int, int]:
    w = (math.isqrt(8 * c + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = c - t
    a = w - b
    return a, b


def _str_code(s: str) -> int:
    raw = s.encode("utf-8")
    return int.from_bytes(b"\x01" + raw, "big")


def _str_decode(c: int) -> str:
    raw = c.to_bytes((c.bit_length() + 7) // 8, "big")
    if not raw or raw[0] != 1:
        raise DecodeError(f"{code_label(c)} is not a variable-name code")
    try:
        return raw[1:].decode("utf-8")
    except UnicodeDecodeError as e:
        raise DecodeError(f"{code_label(c)} is not a variable-name code") from e


#: concrete class -> tag, read by both encode and decode.  A ``SynApp``'s
#: tag is this one plus its symbol's place in ``SYNTAX_FN_ARITY``.
_TAGS = {Var: 0, Zero: 1, Suc: 2, Plus: 3, Times: 4, Num: 5, SynApp: 6,
         Eq: 15, Tr: 16, Top: 17, Bot: 18, Not: 19, And: 20, Forall: 21}
_SYN_BASE = _TAGS[SynApp]
_SYN_ORDER = tuple(SYNTAX_FN_ARITY)
_DIAG = 22  # a diagonal sentence; see the module docstring
_CLASSES = {tag: cls for cls, tag in _TAGS.items() if cls is not SynApp}


def _unfold(c: int, n: int) -> list[int]:
    out = []
    for _ in range(n - 1):
        a, c = unpair(c)
        out.append(a)
    out.append(c)
    return out


def _oversize(cap: int) -> CodeSizeError:
    return CodeSizeError(f"a syntax-function value exceeds {cap} bits")


_keep = object.__setattr__  # fills a cache slot of a frozen node


def encode(e: Term | Formula, max_bits: int | None = None) -> int:
    """Injective Goedel code of a term or formula, built bottom-up.

    The code is computed once per distinct term or formula and kept on it,
    so a later call on it, or on a tree holding it, reuses it; a node's code
    depends on that node alone.  With ``max_bits``, raises
    :class:`CodeSizeError` exactly when the code passes ``max_bits`` bits,
    and stops building as soon as it knows; the node where it stops keeps
    no code."""
    code = e._code
    if code is None:
        cls = type(e)
        tag = _TAGS[cls]
        if cls is Num:
            payload = e.value
        else:
            datum = SIGNATURE[cls].datum
            codes = []
            if cls is SynApp:
                tag += _SYN_ORDER.index(e.symbol)
            elif datum is not None:
                codes.append(_str_code(getattr(e, datum)))
            for c in children(e):
                codes.append(encode(c, max_bits))
            payload = codes.pop() if codes else 0
            while codes:
                payload = pair(codes.pop(), payload)
        if max_bits is not None and payload.bit_length() > max_bits:
            raise _oversize(max_bits)
        code = pair(tag, payload) + 1  # see the module docstring
        if max_bits is None or code.bit_length() <= max_bits:
            _keep(e, "_code", code)
    if max_bits is not None and code.bit_length() > max_bits:
        raise _oversize(max_bits)
    return code


def _diagonal(name: Num, payload: int) -> Formula:
    """The diagonal sentence named by ``name``, whose value is the DIAG code
    with ``payload``; the numeral remembers the sentence, which keeps the
    code.  Raises DecodeError when the code names no fixed point."""
    f, v = unpair(payload)
    phi, var = _decode_as(f, Formula), _str_decode(v)
    if var not in free_vars(phi):
        # the body itself would come back, and its code is another
        raise DecodeError(
            f"{code_label(name.value)} is not a code (diagonal variable not free)"
        )
    lam = substitute(phi, var, name)
    _keep(name, "_quoted", lam)
    _keep(lam, "_code", name.value)
    return lam


def _name_diagonal(name: Num) -> None:
    """``Num``'s interning hook: a new numeral whose value is the DIAG code
    of a diagonal sentence remembers that sentence (:func:`_diagonal`).
    The sentence holds the numeral, so it cannot be built before it, and no
    node equal to it is ever coded otherwise."""
    c = name.value
    if c < 1:
        return
    tag, payload = unpair(c - 1)
    if tag == _DIAG:
        try:
            _diagonal(name, payload)
        except DecodeError:
            pass  # the numeral names nothing


Num._interned = _name_diagonal


def decode(c: int) -> Term | Formula:
    """Inverse of :func:`encode` on its image; raises DecodeError elsewhere."""
    if c < 1:
        raise DecodeError(f"{code_label(c)} is not a code")
    tag, payload = unpair(c - 1)
    cls = _CLASSES.get(tag)
    if cls is Num:
        return Num(payload)
    if cls is not None:
        shape = SIGNATURE[cls]
        datum = shape.datum is not None
        n = datum + len(shape.kids)
        if not n:
            if payload:
                raise DecodeError(f"{code_label(c)} is not a code")
            return cls()
        parts = _unfold(payload, n)
        args = [_str_decode(parts[0])] if datum else []
        for p in parts[datum:]:
            args.append(_decode_as(p, shape.kid_sort))
        return cls(*args)
    if _SYN_BASE <= tag < _SYN_BASE + len(_SYN_ORDER):
        symbol = _SYN_ORDER[tag - _SYN_BASE]
        args = []
        for p in _unfold(payload, SYNTAX_FN_ARITY[symbol]):
            args.append(_decode_as(p, Term))
        return SynApp(symbol, tuple(args))
    if tag == _DIAG:
        name = Num(c)  # a new numeral's hook decodes the sentence it names
        lam = name._quoted
        return _diagonal(name, payload) if lam is None else lam
    raise DecodeError(f"{code_label(c)} is not a code (unknown tag {code_label(tag)})")


def _decode_as(c: int, sort: type) -> Term | Formula:
    e = decode(c)
    if not isinstance(e, sort):
        have, want = ("formula", "term") if sort is Term else ("term", "formula")
        raise DecodeError(f"{code_label(c)} codes a {have} where a {want} was expected")
    return e


def decode_term(c: int) -> Term:
    return _decode_as(c, Term)


def decode_formula(c: int) -> Formula:
    return _decode_as(c, Formula)


def decode_sentence(c: int) -> Formula:
    phi = decode_formula(c)
    if not is_sentence(phi):
        raise DecodeError(f"{code_label(c)} does not code a sentence")
    return phi


def quote(phi: Formula) -> Term:
    """The canonical name of ``phi``: the numeral of its code, which
    remembers ``phi`` (``decode`` of the code gives back ``phi``).  Every
    numeral of that value is this one; a code names one sentence, so it
    remembers the same ``phi`` whoever quoted it.  A diagonal sentence's
    numeral remembers it from the moment it is built."""
    name = Num(encode(phi))
    _keep(name, "_quoted", phi)
    return name


def quoted_sentence(t: Term) -> Formula | None:
    """The sentence ``t`` names, if ``t`` is a numeral of a sentence's code
    that remembers it: one :func:`quote` made, or the numeral of a diagonal
    sentence, however it was built."""
    if isinstance(t, Num) and t._quoted is not None and is_sentence(t._quoted):
        return t._quoted
    return None


# ---------------------------------------------------------------------------
# Closed-term evaluation


def eval_term(t: Term) -> int:
    if isinstance(t, Var):
        raise OpenTermError(f"cannot evaluate open term: variable {t.name}")
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Suc):
        return eval_term(t.child) + 1
    if isinstance(t, Plus):
        return eval_term(t.left) + eval_term(t.right)
    if isinstance(t, Times):
        return eval_term(t.left) * eval_term(t.right)
    if isinstance(t, SynApp):
        args = [eval_term(a) for a in t.args]
        return _eval_syn(t.symbol, args)
    raise TypeError(f"not a term: {t!r}")


def _eval_syn(symbol: str, args: list[int]) -> int:
    """The value of a syntax function; every code it builds stops at
    :data:`MAX_CODE_BITS` bits."""
    cap = MAX_CODE_BITS
    try:
        if symbol == "num":
            return encode(Num(args[0]), cap)
        if symbol == "negdot":
            return encode(Not(decode_formula(args[0])), cap)
        if symbol == "anddot":
            return encode(And(decode_formula(args[0]), decode_formula(args[1])), cap)
        if symbol == "eqdot":
            return encode(Eq(decode_term(args[0]), decode_term(args[1])), cap)
        if symbol == "alldot":
            v = decode_term(args[0])
            if not isinstance(v, Var):
                raise NonCodeArgumentError(
                    f"alldot expects a variable code, got {v!r}"
                )
            return encode(Forall(v.name, decode_formula(args[1])), cap)
        if symbol == "tdot":
            return encode(Tr(Num(args[0])), cap)
        if symbol == "tr":
            n, m = args
            c = n
            for _ in range(m):
                c = encode(Tr(Num(c)), cap)
            return c
        if symbol == "sub":
            phi = decode_formula(args[0])
            v = decode_term(args[1])
            if not isinstance(v, Var):
                raise NonCodeArgumentError(f"sub expects a variable code, got {v!r}")
            s = decode_term(args[2])
            return encode(substitute(phi, v.name, s), cap)
        if symbol == "val":
            inner = decode_term(args[0])
            if not is_closed(inner):
                raise NonCodeArgumentError("val applied to the code of an open term")
            value = eval_term(inner)
            if value.bit_length() > cap:
                raise _oversize(cap)
            return value
    except (DecodeError, CaptureError) as e:
        raise NonCodeArgumentError(str(e)) from e
    raise TypeError(f"unknown syntax function: {symbol}")


# ---------------------------------------------------------------------------
# Diagonalization


def diag_code(phi: Formula, var: str) -> int:
    return pair(_DIAG, pair(encode(phi), _str_code(var))) + 1


def diagonalize(phi: Formula, var: str | None = None) -> Formula:
    """A sentence lam with lam == substitute(phi, v, numeral(#lam)).

    ``phi`` must have exactly one free variable (``var``, when given).
    """
    fv = free_vars(phi)
    if len(fv) != 1:
        raise DiagonalizationError(
            f"diagonalization needs exactly one free variable, got {sorted(fv)}"
        )
    (v,) = fv
    if var is not None and var != v:
        raise DiagonalizationError(f"free variable is {v}, not {var}")
    c = diag_code(phi, v)
    lam = substitute(phi, v, Num(c))
    if encode(lam) != c or decode(c) != lam:
        raise DiagonalizationError(
            "diagonal fixed point failed the post-hoc decode check"
        )
    return lam


def liar() -> Formula:
    """The liar sentence: lam with lam == not T(numeral(#lam))."""
    return diagonalize(Not(Tr(Var("v"))))


def truth_teller() -> Formula:
    return diagonalize(Tr(Var("v")))
