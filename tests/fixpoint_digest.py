"""Digest of what ``truthcut fixpoint`` reports on a fixed corpus of seed
sets, for comparing two versions of ``coding`` and ``semantics``.

Each seed set's least fixed point is recorded as ``cli._fixpoint_payload``
(sorted JSON) and ``cli._fixpoint_lines``, or as the error type and text of
``build_universe``.  The corpus is seeded and written as seed-file text, so
every ``(quote …)`` goes through the reader as it does for
``truthcut fixpoint``:

* ``tower``: ``T`` towers over random quantifier-free sentences;
* ``negtower``: towers that mix ``T`` and ``not T``;
* ``quant``: universal sentences over successor, sum and product terms;
* ``diag``: the liar and the truth-teller, alone and under ``T`` and ``not``;
* ``synfn``: truth ascriptions of syntax-function terms (``num``, ``sub``,
  ``negdot``, ``anddot``, ``alldot``, ``eqdot``, ``tdot``, ``tr``, ``val``),
  one of them past the code-size cap;
* ``mixed``: one seed of each kind above.

Run from the repository root::

    PYTHONPATH=<checkout>/src python3 tests/fixpoint_digest.py

It prints the number of seed sets and the digest of all records, then the
number and digest per kind, so a change shows which kinds moved.  Its whole
output is pinned in ``tests/digests/fixpoint.txt``, which CI compares it with.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from truthcut.cli import _fixpoint_lines, _fixpoint_payload, _full_codes
from truthcut.coding import encode, liar, truth_teller
from truthcut.semantics import UniverseError, build_universe, least_fixed_point
from truthcut.sexpr import format_formula, parse_formula
from truthcut.syntax import Var

#: the code of the variable ``x``, as a numeral literal
X = str(encode(Var("x")))
TERMS = ["x", "(S x)", "(+ x 0)", "(+ x (S 0))", "(* x 0)", "(* x (S 0))",
         "(* x x)", "0", "(S 0)", "(S (S 0))"]


def _chain(k: int) -> str:
    return "0" if k == 0 else f"(S {_chain(k - 1)})"


def _qf(rng: random.Random, depth: int) -> str:
    """Closed quantifier-free sentence over small chain numerals."""
    if depth == 0 or rng.random() < 0.4:
        return f"(= {_chain(rng.randrange(3))} {_chain(rng.randrange(3))})"
    if rng.random() < 0.5:
        return f"(not {_qf(rng, depth - 1)})"
    return f"(and {_qf(rng, depth - 1)} {_qf(rng, depth - 1)})"


def _tower(rng: random.Random, negated: bool) -> str:
    text = _qf(rng, 2)
    for _ in range(rng.randrange(1, 4 if negated else 5)):
        text = f"(T (quote {text}))"
        if negated and rng.random() < 0.5:
            text = f"(not {text})"
    return text


def _quant(rng: random.Random) -> str:
    body = f"(= {rng.choice(TERMS)} {rng.choice(TERMS)})"
    if rng.random() < 0.3:
        body = f"(not {body})"
    return f"(forall x {body})"


def _diag(rng: random.Random) -> str:
    text = format_formula(rng.choice((liar, truth_teller))())
    return rng.choice((text, f"(not {text})", f"(T (quote {text}))",
                       f"(not (T (quote {text})))"))


def _synfn(rng: random.Random) -> str:
    a, b = _qf(rng, 1), _qf(rng, 1)
    term = rng.choice((
        f"(negdot (quote {a}))",
        f"(anddot (quote {a}) (quote {b}))",
        f"(tdot (quote {a}))",
        f"(tr (quote {a}) {rng.randrange(3)})",
        f"(sub (quote (= x {_chain(rng.randrange(3))})) {X} (num {rng.randrange(3)}))",
        f"(alldot {X} (quote (= x x)))",
        f"(eqdot (num {rng.randrange(3)}) (num {rng.randrange(3)}))",
        f"(num (quote {a}))",
        f"(val (num {rng.randrange(3)}))",
        "(tr (quote (= 0 0)) 12)",
    ))
    return rng.choice((f"(T {term})", f"(not (T {term}))"))


KINDS = {
    "tower": lambda rng: _tower(rng, False),
    "negtower": lambda rng: _tower(rng, True),
    "quant": _quant,
    "diag": _diag,
    "synfn": _synfn,
}


def corpus():
    """[(kind, seed texts, term bound)], the same on every run."""
    rng = random.Random(11)
    out = []
    for kind, make in KINDS.items():
        for _ in range(12):
            out.append((kind, [make(rng) for _ in range(rng.randrange(1, 4))],
                        rng.randrange(1, 4)))
    for _ in range(12):
        out.append(("mixed", [make(rng) for make in KINDS.values()],
                    rng.randrange(1, 4)))
    return out


def _record(texts, term_bound) -> str:
    seeds = [parse_formula(t) for t in texts]
    try:
        universe = build_universe(seeds, term_bound)
    except UniverseError as e:
        return f"UniverseError: {e}"
    fp = least_fixed_point(universe)
    with _full_codes():
        return (json.dumps(_fixpoint_payload(fp), sort_keys=True) + "\n"
                + "\n".join(_fixpoint_lines(fp)))


def main() -> int:
    total = hashlib.sha256()
    kinds: dict[str, list] = {}
    items = corpus()
    for k, (kind, texts, term_bound) in enumerate(items):
        record = f"{k} {kind} {term_bound}\n{_record(texts, term_bound)}\n".encode()
        total.update(record)
        n_digest = kinds.setdefault(kind, [0, hashlib.sha256()])
        n_digest[0] += 1
        n_digest[1].update(record)
    print(f"seed sets {len(items)}\ndigest    {total.hexdigest()}")
    for kind, (n, digest) in kinds.items():
        print(f"{kind:<9} {n:>4} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
