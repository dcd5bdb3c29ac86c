"""Parenthesized prefix syntax for terms, formulas, and sequents.

Grammar (whitespace-separated tokens, ``;`` starts a line comment):

    term    ::= VAR | NAT | "0" | "(" "S" term ")" | "(" "+" term term ")"
              | "(" "*" term term ")" | "(" SYNFN term... ")"
              | "(" "quote" formula ")"
    formula ::= "top" | "bot" | "(" "=" term term ")" | "(" "T" term ")"
              | "(" "not" formula ")" | "(" "and" formula formula ")"
              | "(" "or" formula formula ")" | "(" "forall" VAR formula ")"
              | "(" "exists" VAR formula ")"
    sequent ::= [formula ("," formula)*] "=>" [formula ("," formula)*]

``NAT`` is a decimal numeral literal (the canonical numeral ``Num``).
``(quote phi)`` abbreviates the numeral of phi's code.  ``or``/``exists``
expand to their definitions in terms of not/and/forall.
"""

from __future__ import annotations

import re

from .coding import quote
from .syntax import (
    SYNTAX_FN_ARITY,
    And,
    Bot,
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
    lexists,
    lor,
    numeral_text,
)


class ParseError(Exception):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"at token {pos}: {message}")
        self.pos = pos


_TOKEN = re.compile(r"\(|\)|,|=>|[^\s(),;]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def tokenize(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        out.extend(_TOKEN.findall(line))
    return out


class _Reader:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.i)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.i - 1)

    def done(self) -> bool:
        return self.i >= len(self.tokens)


def _read_term(r: _Reader) -> Term:
    tok = r.next()
    if tok == "0":
        return Zero()
    if tok.isdigit():
        try:
            return Num(int(tok))
        except ValueError:
            raise ParseError(_bad_numeral(tok), r.i - 1) from None
    if tok == "(":
        head = r.next()
        if head == "S":
            t = Suc(_read_term(r))
        elif head == "+":
            t = Plus(_read_term(r), _read_term(r))
        elif head == "*":
            t = Times(_read_term(r), _read_term(r))
        elif head == "quote":
            t = quote(_read_formula(r))
        elif head in SYNTAX_FN_ARITY:
            args = tuple(_read_term(r) for _ in range(SYNTAX_FN_ARITY[head]))
            t = SynApp(head, args)
        else:
            raise ParseError(f"unknown term head {head!r}", r.i - 1)
        r.expect(")")
        return t
    if _NAME.match(tok):
        return Var(tok)
    raise ParseError(f"bad term token {tok!r}", r.i - 1)


def _read_formula(r: _Reader) -> Formula:
    tok = r.next()
    if tok == "top":
        return Top()
    if tok == "bot":
        return Bot()
    if tok != "(":
        raise ParseError(f"bad formula token {tok!r}", r.i - 1)
    head = r.next()
    if head == "=":
        phi: Formula = Eq(_read_term(r), _read_term(r))
    elif head == "T":
        phi = Tr(_read_term(r))
    elif head == "not":
        phi = Not(_read_formula(r))
    elif head == "and":
        phi = And(_read_formula(r), _read_formula(r))
    elif head == "or":
        phi = lor(_read_formula(r), _read_formula(r))
    elif head in ("forall", "exists"):
        var = r.next()
        if not _NAME.match(var):
            raise ParseError(f"bad variable name {var!r}", r.i - 1)
        body = _read_formula(r)
        phi = Forall(var, body) if head == "forall" else lexists(var, body)
    else:
        raise ParseError(f"unknown formula head {head!r}", r.i - 1)
    r.expect(")")
    return phi


def parse_term(text: str) -> Term:
    r = _Reader(tokenize(text))
    t = _read_term(r)
    if not r.done():
        raise ParseError(f"trailing input {r.peek()!r}", r.i)
    return t


def parse_formula(text: str) -> Formula:
    r = _Reader(tokenize(text))
    phi = _read_formula(r)
    if not r.done():
        raise ParseError(f"trailing input {r.peek()!r}", r.i)
    return phi


def parse_sequent(
    text: str, memo: dict[str, Formula] | None = None
) -> tuple[list[Formula], list[Formula]]:
    """Parse ``gamma => delta`` into (antecedent, succedent) formula lists.

    A sequent that splits cleanly at ``=>`` and ``,`` is read piece by piece
    through ``memo``, which maps formula source texts to the formulas already
    read from them (a caller reading many sequents passes one memo to all,
    so equal texts are read once and share one ``Formula`` object).  Any
    other text is tokenized whole, so what is returned or raised does not
    depend on the memo."""
    split = _split_sequent(text, {} if memo is None else memo)
    if split is not None:
        return split
    r = _Reader(tokenize(text))
    ante: list[Formula] = []
    succ: list[Formula] = []
    side = ante
    seen_arrow = False
    while not r.done():
        tok = r.peek()
        if tok == "=>":
            if seen_arrow:
                raise ParseError("more than one '=>'", r.i)
            r.next()
            seen_arrow = True
            side = succ
            continue
        if tok == ",":
            r.next()
            continue
        side.append(_read_formula(r))
    if not seen_arrow:
        raise ParseError("sequent is missing '=>'")
    return ante, succ


def _split_sequent(text: str, memo: dict[str, Formula]):
    """(ante, succ) read piecewise, or None when the text does not split
    into one whole formula per ``,``-separated piece around one ``=>``.

    Formulas contain no ``,`` and no ``=>`` token, so on a clean split the
    pieces' tokens, joined by the separators, are exactly the tokens of the
    whole text.  ``=>`` is a token of its own only when no name character
    precedes it (``a=>b`` is one name token)."""
    left, arrow, right = text.partition("=>")
    if not arrow or "=>" in right or ";" in text:
        return None
    if left and not (left[-1].isspace() or left[-1] in "(),"):
        return None
    sides: tuple[list[Formula], list[Formula]] = ([], [])
    for side, part in zip(sides, (left, right)):
        for piece in part.split(","):
            piece = piece.strip()
            if not piece:
                continue
            phi = memo.get(piece)
            if phi is None:
                r = _Reader(_TOKEN.findall(piece))
                try:
                    phi = _read_formula(r)
                except ParseError:
                    return None
                if not r.done():
                    return None
                memo[piece] = phi
            side.append(phi)
    return sides


def _bad_numeral(tok: str) -> str:
    """Why ``int`` refused a token of digits: CPython's int-to-str digit
    limit, or digits ``int`` does not read (superscripts and the like)."""
    if tok.isdecimal():
        return f"numeral literal of {len(tok)} digits is too long to read"
    return f"bad numeral literal {tok!r}"


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Num):
        return numeral_text(t.value)
    if isinstance(t, Suc):
        return f"(S {format_term(t.child)})"
    if isinstance(t, Plus):
        return f"(+ {format_term(t.left)} {format_term(t.right)})"
    if isinstance(t, Times):
        return f"(* {format_term(t.left)} {format_term(t.right)})"
    if isinstance(t, SynApp):
        args = " ".join(format_term(a) for a in t.args)
        return f"({t.symbol} {args})"
    raise TypeError(f"not a term: {t!r}")


def format_formula(phi: Formula) -> str:
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Eq):
        return f"(= {format_term(phi.left)} {format_term(phi.right)})"
    if isinstance(phi, Tr):
        return f"(T {format_term(phi.term)})"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.body)})"
    if isinstance(phi, And):
        return f"(and {format_formula(phi.left)} {format_formula(phi.right)})"
    if isinstance(phi, Forall):
        return f"(forall {phi.var} {format_formula(phi.body)})"
    raise TypeError(f"not a formula: {phi!r}")


def format_sequent(ante, succ, fmt=format_formula) -> str:
    left = ", ".join(map(fmt, ante))
    right = ", ".join(map(fmt, succ))
    return f"{left} => {right}".strip()
