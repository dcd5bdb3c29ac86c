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

``NAT`` is a decimal numeral literal (the canonical numeral ``Num``); the
printer writes ``Num(0)`` as ``00``, since ``0`` reads as ``Zero``.
``(quote phi)`` abbreviates the numeral of phi's code.  ``or``/``exists``
expand to their definitions in terms of not/and/forall.

The grammar is :data:`HEADS` read against ``syntax.SIGNATURE``: a
constructor with children is written ``(head [datum] child...)``, one
without as its head word or its datum.  The reader and the printer both
read that one table, so a new constructor needs only its head here; the
sugar heads ``or``, ``exists`` and ``quote`` are the reader's alone.
The reader, :func:`_read`, takes a token list and an index and gives back
the next index; :func:`_read_whole` reads a term, a formula or one formula
of a sequent as exactly one expression.

:func:`parse_sequent` keeps one cache per process from each formula text it
has read cleanly to the formula read from it, so a text is read once however
many sequents restate it across the scripts one process reads (``truthcut
check`` over several files).  The cache keeps the formulas of recently read
texts alive; it holds at most ``_CACHE_CHARS`` characters of text and is
emptied before a new text would pass that.  Within one script, whose lines
restate their premises' contexts, a text is read once whatever the cache
holds: ``parse_script`` passes every line the same ``memo``, which keeps each
text the script has read.
"""

from __future__ import annotations

import re

from .coding import quote
from .syntax import (
    SIGNATURE,
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
    children,
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


#: concrete class -> its head word, read by both the reader and the printer.
#: ``None`` for a class written by its datum alone: ``Var`` by its name,
#: ``Num`` in decimal and ``SynApp`` with its symbol as the head.
HEADS: dict[type, str | None] = {
    Var: None, Zero: "0", Num: None, Suc: "S", Plus: "+", Times: "*",
    SynApp: None, Eq: "=", Tr: "T", Top: "top", Bot: "bot", Not: "not",
    And: "and", Forall: "forall",
}


def _form(cls: type):
    shape = SIGNATURE[cls]
    return (Term if issubclass(cls, Term) else Formula, shape.datum is not None,
            (shape.kid_sort,) * len(shape.kids), cls)


#: head word inside parentheses -> (the sort it makes, whether a variable
#: name follows the head, the sort of each argument, what builds the value
#: from the name and the arguments)
_FORMS = {head: _form(cls) for cls, head in HEADS.items()
          if head is not None and SIGNATURE[cls].kids}
_FORMS.update(
    (symbol, (Term, False, (Term,) * arity, lambda *args, s=symbol: SynApp(s, args)))
    for symbol, arity in SYNTAX_FN_ARITY.items()
)
# sugar, for the reader only
_FORMS.update({
    "or": (Formula, False, (Formula, Formula), lor),
    "exists": (Formula, True, (Formula,), lexists),
    "quote": (Term, False, (Formula,), quote),
})

#: bare word -> the class it names ("0", "top", "bot")
_WORDS = {head: cls for cls, head in HEADS.items()
          if head is not None and not SIGNATURE[cls].kids}


def _read(tokens: list[str], i: int, sort: type) -> tuple[Term | Formula, int]:
    """The expression of ``sort`` (``Term`` or ``Formula``) at ``tokens[i]``
    and the index after it.  An error names its token's index."""
    try:
        tok = tokens[i]
        if tok == "(":
            head = tokens[i + 1]
            form = _FORMS.get(head)
            if form is None or form[0] is not sort:
                raise ParseError(f"unknown {sort.__name__.lower()} head {head!r}", i + 1)
            _, named, sorts, build = form
            i += 2
            parts = []
            if named:
                var = tokens[i]
                if not _NAME.match(var):
                    raise ParseError(f"bad variable name {var!r}", i)
                parts.append(var)
                i += 1
            for s in sorts:
                part, i = _read(tokens, i, s)
                parts.append(part)
            close = tokens[i]
    except IndexError:
        raise ParseError("unexpected end of input", len(tokens)) from None
    if tok == "(":
        if close != ")":
            raise ParseError(f"expected ')', got {close!r}", i)
        return build(*parts), i + 1
    cls = _WORDS.get(tok)
    if cls is not None and issubclass(cls, sort):
        return cls(), i + 1
    if sort is Term:
        if tok.isdigit():
            try:
                return Num(int(tok)), i + 1
            except ValueError:
                raise ParseError(_bad_numeral(tok), i) from None
        if _NAME.match(tok):
            return Var(tok), i + 1
    raise ParseError(f"bad {sort.__name__.lower()} token {tok!r}", i)


def _read_whole(tokens: list[str], sort: type) -> Term | Formula:
    """The one expression of ``sort`` that ``tokens`` spell, no token left."""
    e, i = _read(tokens, 0, sort)
    if i < len(tokens):
        raise ParseError(f"trailing input {tokens[i]!r}", i)
    return e


def parse_term(text: str) -> Term:
    return _read_whole(tokenize(text), Term)


def parse_formula(text: str) -> Formula:
    return _read_whole(tokenize(text), Formula)


def parse_sequent(text: str, memo: dict[str, Formula] | None = None
                  ) -> tuple[list[Formula], list[Formula]]:
    """Parse ``gamma => delta`` into (antecedent, succedent) formula lists.

    A sequent that splits cleanly at ``=>`` and ``,`` is read piece by piece
    through ``memo`` (text -> formula, filled by this call) and then the
    module's formula-text cache, so a piece read before is not read again:
    one in ``memo``, whatever the cache holds, or one read by any call while
    the cache kept it (it keeps recently read formulas alive, up to
    ``_CACHE_CHARS`` characters of text).  Any other text is tokenized
    whole.  Reading is a pure function of the text and equal formulas are
    one object, so what is returned or raised depends on neither."""
    split = _split_sequent(text, {} if memo is None else memo)
    if split is not None:
        return split
    tokens = tokenize(text)
    ante: list[Formula] = []
    succ: list[Formula] = []
    side = ante
    seen_arrow = False
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "=>":
            if seen_arrow:
                raise ParseError("more than one '=>'", i)
            i += 1
            seen_arrow = True
            side = succ
        elif tok == ",":
            i += 1
        else:
            phi, i = _read(tokens, i, Formula)
            side.append(phi)
    if not seen_arrow:
        raise ParseError("sequent is missing '=>'")
    return ante, succ


#: the most characters of formula text the cache holds (a few MB of formulas)
_CACHE_CHARS = 1 << 16
#: formula source text -> the formula read from it, for texts that read
#: cleanly as one whole formula; ``_cached_chars`` is their total length
_cache: dict[str, Formula] = {}
_cached_chars = 0


def _read_piece(piece: str, memo: dict[str, Formula]) -> Formula:
    """The one formula ``piece`` spells, through ``memo`` and the cache."""
    global _cached_chars
    phi = memo.get(piece)
    if phi is None:
        phi = _cache.get(piece)
        if phi is None:
            phi = _read_whole(_TOKEN.findall(piece), Formula)
            if len(piece) <= _CACHE_CHARS:
                if _cached_chars + len(piece) > _CACHE_CHARS:
                    _cache.clear()
                    _cached_chars = 0
                _cache[piece] = phi
                _cached_chars += len(piece)
        memo[piece] = phi
    return phi


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
            if piece:
                try:
                    side.append(_read_piece(piece, memo))
                except ParseError:
                    return None
    return sides


def _bad_numeral(tok: str) -> str:
    """Why ``int`` refused a token of digits: CPython's int-to-str digit
    limit, or digits ``int`` does not read (superscripts and the like)."""
    if tok.isdecimal():
        return f"numeral literal of {len(tok)} digits is too long to read"
    return f"bad numeral literal {tok!r}"


def format_formula(e: Term | Formula) -> str:
    """The text of a term or formula, which :func:`parse_term` or
    :func:`parse_formula` reads back as ``e``."""
    cls = type(e)
    if cls is Num:
        # "0" would read back as Zero()
        return numeral_text(e.value) if e.value else "00"
    head = HEADS[cls]
    shape = SIGNATURE[cls]
    words = [] if head is None else [head]
    if shape.datum is not None:
        words.append(getattr(e, shape.datum))
    if not shape.kids:
        return words[0]
    for c in children(e):
        words.append(format_formula(c))
    return f"({' '.join(words)})"


def format_sequent(ante, succ, fmt=format_formula) -> str:
    left = ", ".join(map(fmt, ante))
    right = ", ".join(map(fmt, succ))
    return f"{left} => {right}".strip()
