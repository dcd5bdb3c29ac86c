"""Digest of what ``search_cut_free`` returns on a fixed corpus of goals, for
comparing two versions of ``search`` goal by goal.

Each goal is recorded as the ``print_script`` output of the proof found, or
as the frontier of an exhausted search (one ``format_sequent`` line per
goal, in the order returned), or as the error type and text.  The corpus is
built before any goal is recorded:

* ``fixpoint-5`` and ``fixpoint-777``: every seed of the first pass of the
  ``fixpoint`` benchmark inputs for seeds 5 and 777, searched on both sides
  (``=> φ`` and ``φ =>``) in ``lptn`` under that workload's budget;
* ``elim``: every premise goal the ``elim`` benchmark searches while
  building its first pass of inputs for seed 7, in ``lptn`` under that
  workload's budget, in the order it asks them.

Run from the repository root::

    PYTHONPATH=<checkout>/src:tests:bench python3 tests/search_digest.py

It prints the number of goals and the digest of all records, then the
number of goals, the number found and the digest per part, so a change
shows which part moved.  Its whole output is pinned in
``tests/digests/search.txt``, which CI compares it with.

:func:`sample_proofs` gives what search proves on a fixed sample of the
corpus, which the soundness law and the id-free checker's tests run on.
"""

from __future__ import annotations

import hashlib
import random
import sys

from truthcut.script import print_script
from truthcut.search import search_cut_free
from truthcut.sexpr import format_sequent

from workloads import Elim, Fixpoint


class _GoalRecorder(Elim):
    """The ``elim`` generator, noting every premise goal it searches."""

    def __init__(self):
        super().__init__()
        self.goals: list = []

    def _premise(self, ante, succ):
        self.goals.append((tuple(ante), tuple(succ)))
        return super()._premise(ante, succ)


def corpus():
    """[(part, ante, succ, budget, system)], the same on every run."""
    out = []
    fixpoint = Fixpoint()
    for seed in (5, 777):
        for inp in fixpoint.generate(seed, 0, set()):
            for phi in inp.seeds:
                for ante, succ in (((), (phi,)), ((phi,), ())):
                    out.append((f"fixpoint-{seed}", ante, succ,
                                fixpoint.budget, "lptn"))
    elim = _GoalRecorder()
    elim.generate(7, 0, set())
    out += [("elim", ante, succ, elim.budget, elim.system)
            for ante, succ in elim.goals]
    return out


#: how many of :func:`corpus`'s goals :func:`sample_proofs` searches, and
#: the seed it draws them with
SAMPLE_SIZE, SAMPLE_SEED = 800, 30


def sample_proofs():
    """(k, system, derivation) for each goal of a fixed-seed sample of
    :func:`corpus` that search proves, ``k`` being the goal's place in it."""
    goals = corpus()
    for k in sorted(random.Random(SAMPLE_SEED).sample(range(len(goals)), SAMPLE_SIZE)):
        _, ante, succ, budget, system = goals[k]
        r = search_cut_free(ante, succ, budget, system)
        if r.found:
            yield k, system, r.derivation


def _record(ante, succ, budget, system) -> tuple[bool, str]:
    """(found, text) of one search."""
    try:
        r = search_cut_free(ante, succ, budget, system)
    except Exception as e:  # noqa: BLE001 - the error is the record
        return False, f"{type(e).__name__}: {e}"
    if r.found:
        return True, "PROVED\n" + print_script(r.derivation)
    return False, "\n".join(["EXHAUSTED"] + [f"open: {format_sequent(a, s)}"
                                            for a, s in r.frontier])


def main() -> int:
    total = hashlib.sha256()
    parts: dict[str, list] = {}
    items = corpus()
    for k, (part, ante, succ, budget, system) in enumerate(items):
        found, text = _record(ante, succ, budget, system)
        goal = format_sequent(ante, succ)
        record = f"{k} {part}\n{goal}\n{text}\n".encode()
        total.update(record)
        entry = parts.setdefault(part, [0, 0, hashlib.sha256()])
        entry[0] += 1
        entry[1] += found
        entry[2].update(record)
    print(f"goals {len(items)}\ndigest {total.hexdigest()}")
    for part, (n, found, digest) in parts.items():
        print(f"{part:<12} {n:>5} {found:>5} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
