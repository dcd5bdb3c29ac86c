"""Digest of what the public transforms return on a fixed corpus, for
comparing two versions of ``transform`` call by call.

Each call of ``eliminate_cuts``, ``reduce_cut``, ``invert`` (on every end
sequent occurrence), ``contract`` (on every same-side pair of equal
formulas) and ``drop_context`` (on every end sequent occurrence) is recorded
as its ``print_script`` output and certificate, or as its error type and
text.  The inputs' occurrence ids are renumbered from 1 in corpus order, and
the occurrence-id counter restarts above every input id before each call.
The corpus is two passes of ``elim`` benchmark inputs plus random,
duplicated-formula and nested-cut proofs.  Run from the repository root::

    PYTHONPATH=<checkout>/src:tests:bench python3 tests/transform_digest.py

It first prints a ``corpus`` line, the digest of the inputs' ``print_script``
texts and systems in corpus order, so that a moved call digest is put down
to the inputs (that line moved too) or to the transforms (it did not).
Then it prints the number of calls, the digest of the recorded outputs, and a
second digest that also covers the output occurrence ids and occurrence
maps, which moves when ids are allocated in another order.  Then it prints
the number of calls and the output digest of each call kind (``invert``,
``drop``, ``contract``, ``reduce``, ``elim``), and after them one ``ids``
line per kind with that kind's second digest, so a change shows which kinds
moved and whether only their ids did.  Its whole output is pinned in
``tests/digests/transform.txt``, which CI compares it with.

With ``--dump PATH`` it also writes one JSON line per call to ``PATH``:
``call`` (the corpus index and label), ``input`` (the sha256 of the input's
system and ``print_script`` text, as the ``corpus`` line hashes them),
``error`` (the error type and text, or null), ``nodes`` (the output's node
count, a list for an ``invert`` with two outputs) and ``output`` (the
output's ``print_script`` text).  Two dumps compare call by call where the
digests only say that something moved.  When the corpora differ, they join
over the inputs both share on ``input`` and each call's place among that
input's calls, not on the label, whose occurrence ids depend on the corpus::

    PYTHONPATH=<checkout>/src:tests:bench python3 tests/transform_digest.py --dump calls.jsonl

The printed digests are the same with or without the flag.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys

from truthcut import deriv, transform
from truthcut.script import print_script

from proofgen import duplicated_derivation, nested_cuts, random_derivation
from workloads import Elim


def _corpus():
    """[(proof, system)] built before any transform runs.  Each proof's ids
    are made again from 1, in corpus order, so no input's ids depend on how
    many ids the code that built the corpus took."""
    elim = Elim()
    seen: set = set()
    out = [(d, "lptn") for i in range(2) for d in elim.generate(7, i, seen)]
    rng = random.Random(5)
    for _ in range(150):
        out.append((random_derivation(rng), "lptn"))
        out.append((duplicated_derivation(rng)[0], "lptn"))
    for ncuts in (1, 2, 3) * 20:
        d = nested_cuts(rng, ncuts)
        if d is not None:
            out.append((d, "lptn"))
    deriv._ids = itertools.count(1)
    return [(deriv.refresh_ids(d), system) for d, system in out]


def _calls(d, system):
    """(label, thunk) for every call made on ``d``."""
    concl = d.conclusion.all_occurrences()
    for o in concl:
        yield f"invert {o.id}", lambda o=o: transform.invert(d, o.id, system)
        yield f"drop {o.id}", lambda o=o: transform.drop_context(d, o.id)
    for side in (d.conclusion.ante, d.conclusion.succ):
        for a, b in itertools.combinations(side, 2):
            if a.formula == b.formula:
                yield (f"contract {a.id} {b.id}",
                       lambda a=a, b=b: transform.contract(d, a.id, b.id, system))
    if d.rule == "cut":
        (p0, aid), (p1, bid) = d.actives
        yield "reduce", lambda: transform.reduce_cut(
            d.premises[p0], aid, d.premises[p1], bid, system)
        yield "elim", lambda: transform.eliminate_cuts(d, system)


def _ids(d):
    return [[o.id for o in n.conclusion.all_occurrences()]
            for n in d.iter_nodes()]


def _record(result):
    """(output text, ids text) of one call's result."""
    if isinstance(result, deriv.Derivation):
        return print_script(result), json.dumps(_ids(result))
    if isinstance(result, tuple):
        texts = [_record(r) for r in result]
        return ("".join(t for t, _ in texts), "".join(i for _, i in texts))
    return (print_script(result.derivation)
            + json.dumps(result.certificate.as_dict(), sort_keys=True),
            json.dumps([_ids(result.derivation),
                        sorted((k, str(v)) for k, v in
                               (result.occ_map or {}).items())]))


def _dump_record(call, key, result):
    """The ``--dump`` line of one call on the input hashed to ``key``: its
    result, or the error it raised."""
    if isinstance(result, Exception):
        return {"call": call, "input": key,
                "error": f"{type(result).__name__}: {result}",
                "nodes": None, "output": None}
    outs = result if isinstance(result, tuple) else (result,)
    outs = [r if isinstance(r, deriv.Derivation) else r.derivation for r in outs]
    nodes = [sum(1 for _ in d.iter_nodes()) for d in outs]
    return {"call": call, "input": key, "error": None,
            "nodes": nodes if len(nodes) > 1 else nodes[0],
            "output": "".join(print_script(d) for d in outs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write one JSON line per call to PATH")
    args = parser.parse_args(argv)
    dump = open(args.dump, "w") if args.dump else None
    corpus = _corpus()
    inputs = hashlib.sha256()
    keys = []
    for d, system in corpus:
        text = f"{system}\n{print_script(d)}".encode()
        inputs.update(text)
        keys.append(hashlib.sha256(text).hexdigest())
    print(f"corpus {inputs.hexdigest()}")
    start = 1 + max(o.id for d, _ in corpus for n in d.iter_nodes()
                    for o in n.conclusion.all_occurrences())
    out, ids = hashlib.sha256(), hashlib.sha256()
    kinds: dict[str, list] = {}
    calls = 0
    for k, (d, system) in enumerate(corpus):
        for label, call in _calls(d, system):
            deriv._ids = itertools.count(start)
            try:
                result = call()
                text, id_text = _record(result)
            except Exception as e:  # noqa: BLE001 - the error is the record
                result = e
                text, id_text = f"{type(e).__name__}: {e}", ""
            if dump:
                dump.write(json.dumps(
                    _dump_record(f"{k} {label}", keys[k], result)) + "\n")
            record = f"{k} {label}\n{text}\n".encode()
            out.update(record)
            ids.update(record + id_text.encode())
            kind = kinds.setdefault(label.split()[0],
                                    [0, hashlib.sha256(), hashlib.sha256()])
            kind[0] += 1
            kind[1].update(record)
            kind[2].update(record + id_text.encode())
            calls += 1
    if dump:
        dump.close()
    print(f"calls {calls}\noutput {out.hexdigest()}\nids    {ids.hexdigest()}")
    for name, (n, digest, _) in kinds.items():
        print(f"{name:<8} {n:>5} {digest.hexdigest()}")
    for name, (_, _, id_digest) in kinds.items():
        print(f"ids {name:<8} {id_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
