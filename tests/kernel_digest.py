"""Digest of the kernel's reports on a fixed corpus, for comparing two
versions of ``kernel`` item by item.

Every item is checked in every system, and its ``check_derivation`` report
(each violation's path, reason code and message) is recorded; a script the
reader refuses is recorded as its error text.  The corpus:

* ``script``: the golden scripts, one ``qg3`` script, the scripts of the
  ``proof`` items, and copies of each of those with one line changed (the
  last formula of its sequent dropped, ``(= 0 (S 0))`` added to its
  succedent, or its last premise dropped), read with ``parse_script``;
* ``proof``: ``proofgen`` random and duplicated-formula proofs and ``arith``
  proofs and refutations, as built;
* one item per node of every ``script`` and ``proof`` derivation and per
  mutation of that node, checked as the root of its subtree: a principal
  added (a fresh ``T`` atom in the succedent) or dropped, a principal or an
  active moved to the other side, the last premise dropped (with the
  actives and lineage that refer to it), and the principal formula
  replaced.

The occurrence-id counter restarts before each script is read and before
the mutations of each derivation, so the ids in an item's messages do not
depend on the items before it.

Run from the repository root::

    PYTHONPATH=<checkout>/src:tests python3 tests/kernel_digest.py

It prints the number of reports and the digest of all of them, then the
number and digest per source (``script``, ``proof`` and each mutation), per
rule (of the item's root) and per system, so a change shows where the
reports moved.  Its whole output is pinned in ``tests/digests/kernel.txt``,
which CI compares it with.

With ``--dump PATH`` it also writes one JSON line per item to ``PATH``:
``item`` (its source and label) and ``reports`` (its report text in each
system).  Two dumps compare item by item where the digests only say that
something moved::

    PYTHONPATH=<checkout>/src:tests python3 tests/kernel_digest.py --dump items.jsonl

The printed digests are the same with or without the flag.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import pathlib
import random
import sys
from dataclasses import replace

from truthcut import deriv
from truthcut.arith import prove_equation, refute_equation
from truthcut.coding import quote
from truthcut.deriv import Derivation, Occurrence, Sequent, fold, occ
from truthcut.kernel import SYSTEMS, check_derivation
from truthcut.script import ScriptError, parse_script, print_script
from truthcut.sexpr import format_sequent
from truthcut.syntax import Eq, Plus, Suc, Times, Tr, Zero

from proofgen import chain_numeral, duplicated_derivation, random_derivation

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: the case split ``x = 0`` / ``y = S x`` closing ``0 = 0 => 0 = 0``
QG3_SCRIPT = """\
1: init [] (= x 0), (= 0 0) => (= 0 0)
2: init [] (= y (S x)), (= 0 0) => (= 0 0)
3: qg3 [1, 2] (= 0 0) => (= 0 0)
"""

ZERO = Zero()
EXTRA = Eq(ZERO, Suc(ZERO))
SMUGGLED = Tr(quote(EXTRA))


def _proofs():
    """[derivation] built by ``proofgen`` and ``arith``."""
    rng = random.Random(11)
    out = []
    for _ in range(60):
        out.append(random_derivation(rng))
        out.append(random_derivation(rng, system="lgt"))
        out.append(duplicated_derivation(rng)[0])
    for a, b in ((1, 0), (1, 1), (2, 1), (1, 2)):
        x, y = chain_numeral(a), chain_numeral(b)
        out += [
            prove_equation([], Plus(x, y), chain_numeral(a + b), []),
            prove_equation([EXTRA], Times(x, y), chain_numeral(a * b), []),
            refute_equation([], Plus(x, y), chain_numeral(a + b + 1), [EXTRA]),
            refute_equation([], x, chain_numeral(b + 2), []),
        ]
    return out


def _script_lines(d: Derivation):
    """(rule, premise line numbers, ante, succ) per ``print_script`` line."""
    lines = []

    def step(node, pids):
        lines.append((node.rule, pids, node.conclusion.ante_formulas(),
                      node.conclusion.succ_formulas()))
        return len(lines)

    fold(d, step)
    return lines


def _script_variants(text: str):
    """(label, script text): ``text`` and one-line edits of it."""
    yield "as written", text
    try:
        lines = _script_lines(parse_script(text))
    except ScriptError:
        return  # a refused script has no lines to edit

    def render(k, pids, ante, succ):
        out = []
        for i, line in enumerate(lines):
            rule, ps, a, s = line if i != k else (line[0], pids, ante, succ)
            out.append(f"{i + 1}: {rule} [{', '.join(map(str, ps))}] "
                       f"{format_sequent(a, s)}")
        return "\n".join(out) + "\n"

    for k, (_, pids, ante, succ) in enumerate(lines):
        if succ:
            yield f"line {k + 1} drops", render(k, pids, ante, succ[:-1])
        elif ante:
            yield f"line {k + 1} drops", render(k, pids, ante[:-1], succ)
        yield f"line {k + 1} adds", render(k, pids, ante, succ + [EXTRA])
        if pids:
            yield (f"line {k + 1} drops a premise",
                   render(k, pids[:-1], ante, succ))


def _move(seq: Sequent, oid: int) -> Sequent:
    """``seq`` with occurrence ``oid`` moved to the end of the other side."""
    side, i, o = seq.find(oid)
    sides = {"ante": list(seq.ante), "succ": list(seq.succ)}
    del sides[side][i]
    sides["succ" if side == "ante" else "ante"].append(o)
    return Sequent(tuple(sides["ante"]), tuple(sides["succ"]))


def _mutations(node: Derivation):
    """(label, mutated node) for every mutation that applies to ``node``."""
    c = node.conclusion
    extra = occ(SMUGGLED)
    yield "add principal", replace(
        node, conclusion=Sequent(c.ante, c.succ + (extra,)),
        principal=node.principal + (extra.id,))
    if node.principal:
        pid = node.principal[-1]
        kept = {s: tuple(o for o in getattr(c, s) if o.id != pid)
                for s in ("ante", "succ")}
        yield "drop principal", replace(
            node, conclusion=Sequent(kept["ante"], kept["succ"]),
            principal=node.principal[:-1])
        yield "move principal", replace(
            node, conclusion=_move(c, node.principal[0]))
        side, i, o = c.find(node.principal[0])
        new = Occurrence(EXTRA if o.formula != EXTRA else SMUGGLED, o.id)
        seq = {"ante": list(c.ante), "succ": list(c.succ)}
        seq[side][i] = new
        yield "replace principal", replace(
            node, conclusion=Sequent(tuple(seq["ante"]), tuple(seq["succ"])))
    if node.actives:
        pi, aid = node.actives[0]
        p = node.premises[pi]
        premises = list(node.premises)
        premises[pi] = replace(p, conclusion=_move(p.conclusion, aid))
        yield "move active", replace(node, premises=tuple(premises))
    if node.premises:
        last = len(node.premises) - 1
        yield "drop premise", replace(
            node, premises=node.premises[:-1],
            actives=tuple(a for a in node.actives if a[0] != last),
            lineage={cid: tuple(p for p in ps if p[0] != last)
                     for cid, ps in node.lineage.items()})


def _report(d: Derivation, system: str) -> str:
    return "\n".join(f"{v.path} {v.code} {v.message}"
                     for v in check_derivation(d, system).violations)


def items():
    """(source, label, derivation or refusal text) for the whole corpus."""
    proofs = _proofs()
    texts = [(p.name, p.read_text()) for p in sorted(GOLDEN.glob("*.gp"))]
    texts.append(("qg3", QG3_SCRIPT))
    texts += [(f"proof {k}", print_script(d)) for k, d in enumerate(proofs)]
    wholes = []
    for name, text in texts:
        for label, variant in _script_variants(text):
            deriv._ids = itertools.count(1)
            try:
                d = parse_script(variant)
            except ScriptError as e:
                yield "script", f"{name} {label}", f"ScriptError: {e}"
                continue
            yield "script", f"{name} {label}", d
            if label == "as written":
                wholes.append((name, d))
    for k, d in enumerate(proofs):
        yield "proof", f"proof {k}", d
        wholes.append((f"proof {k}", d))
    for name, d in wholes:
        deriv._ids = itertools.count(1 + max(
            o.id for n in d.iter_nodes() for o in n.conclusion.all_occurrences()))
        for path, node in d.iter_paths():
            for label, mutated in _mutations(node):
                yield label, f"{name} {path}", mutated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write one JSON line per item to PATH")
    args = parser.parse_args(argv)
    dump = open(args.dump, "w") if args.dump else None
    total = hashlib.sha256()
    #: per source, rule and system: key -> [reports, digest]
    groups: tuple[dict, dict, dict] = ({}, {}, {})
    reports = 0
    for source, label, d in items():
        rule = d.rule if isinstance(d, Derivation) else "refused"
        texts = {}
        for system in SYSTEMS:
            text = texts[system] = d if isinstance(d, str) else _report(d, system)
            record = f"{source} {label} {system}\n{text}\n".encode()
            total.update(record)
            for group, key in zip(groups, (source, rule, system)):
                n_digest = group.setdefault(key, [0, hashlib.sha256()])
                n_digest[0] += 1
                n_digest[1].update(record)
            reports += 1
        if dump:
            dump.write(json.dumps({"item": f"{source} {label}",
                                   "reports": texts}) + "\n")
    if dump:
        dump.close()
    print(f"reports {reports}\ndigest  {total.hexdigest()}")
    for title, group in zip(("source", "rule", "system"), groups):
        for key, (n, digest) in group.items():
            print(f"{title:<6} {key:<17} {n:>6} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
