"""Sequents as multisets of tracked formula occurrences, derivation trees,
and the measure triple (length, cut rank, proof T-complexity).

Every occurrence carries an id that is unique within its derivation; two
occurrences of the same formula are distinct objects.  Each node's conclusion
has its own occurrences; the ``lineage`` map links every non-principal
conclusion occurrence to the corresponding occurrence(s) in the premises.
The T-complexity of an occurrence is computed from this lineage structure:
truth rules add one to their principal, one-premise logical rules transfer or
take maxima over their actives, and two-premise rules take maxima over
corresponding context occurrences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .syntax import Formula, Term, formula_facts


_ids = itertools.count(1)


def fresh_id() -> int:
    return next(_ids)


@dataclass(frozen=True, slots=True)
class Occurrence:
    formula: Formula
    id: int


def occ(phi: Formula) -> Occurrence:
    return Occurrence(phi, fresh_id())


def copy_occ(o: Occurrence) -> Occurrence:
    return Occurrence(o.formula, fresh_id())


@dataclass(frozen=True, slots=True)
class Sequent:
    ante: tuple[Occurrence, ...]
    succ: tuple[Occurrence, ...]

    def all_occurrences(self) -> tuple[Occurrence, ...]:
        return self.ante + self.succ

    def ante_formulas(self) -> list[Formula]:
        return [o.formula for o in self.ante]

    def succ_formulas(self) -> list[Formula]:
        return [o.formula for o in self.succ]

    def find(self, occ_id: int) -> tuple[str, int, Occurrence] | None:
        for i, o in enumerate(self.ante):
            if o.id == occ_id:
                return ("ante", i, o)
        for i, o in enumerate(self.succ):
            if o.id == occ_id:
                return ("succ", i, o)
        return None

    def side_of(self, occ_id: int) -> str | None:
        hit = self.find(occ_id)
        return hit[0] if hit else None


def sequent(ante_formulas, succ_formulas) -> Sequent:
    """Fresh-occurrence sequent from plain formula iterables."""
    return Sequent(
        tuple(o if isinstance(o, Occurrence) else occ(o) for o in ante_formulas),
        tuple(o if isinstance(o, Occurrence) else occ(o) for o in succ_formulas),
    )


def same_multiset(xs: list[Formula], ys: list[Formula]) -> bool:
    if len(xs) != len(ys):
        return False
    pool = list(ys)
    for x in xs:
        try:
            pool.remove(x)
        except ValueError:
            return False
    return True


#: rule tags of the axioms (the rule sets live in :data:`.kernel.SYSTEM_RULES`)
LEAF_RULES = ("init", "top", "bot", "qg1")


@dataclass(eq=False, frozen=True, slots=True)
class Derivation:
    """One rule application; premises are the direct subderivations.

    ``principal`` lists conclusion occurrence ids introduced by the rule,
    ``actives`` the premise occurrences ((premise index, occurrence id)) the
    rule consumes, and ``lineage`` maps every other conclusion occurrence id
    to its ancestors, one per premise it descends from.  ``term``/``term2``/
    ``var``/``template`` carry rule instantiation data (forall-left witness,
    eigenvariables, replacement templates).
    """

    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    principal: tuple[int, ...] = ()
    actives: tuple[tuple[int, int], ...] = ()
    lineage: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    term: Term | None = None
    term2: Term | None = None
    var: str | None = None
    template: tuple[str, Formula] | None = None

    def iter_nodes(self, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], "Derivation"]]:
        yield path, self
        for i, p in enumerate(self.premises):
            yield from p.iter_nodes(path + (i,))

    def subtree(self, path: tuple[int, ...]) -> "Derivation":
        node = self
        for i in path:
            node = node.premises[i]
        return node


def refresh_ids(d: Derivation) -> Derivation:
    """Structurally identical derivation with all-new occurrence ids."""

    def go(node: Derivation) -> tuple[Derivation, dict[int, int]]:
        new_premises = []
        prem_maps = []
        for p in node.premises:
            np, m = go(p)
            new_premises.append(np)
            prem_maps.append(m)
        idmap = {
            o.id: fresh_id() for o in node.conclusion.all_occurrences()
        }
        concl = Sequent(
            tuple(Occurrence(o.formula, idmap[o.id]) for o in node.conclusion.ante),
            tuple(Occurrence(o.formula, idmap[o.id]) for o in node.conclusion.succ),
        )
        lineage = {
            idmap[cid]: tuple((pi, prem_maps[pi][oid]) for pi, oid in parents)
            for cid, parents in node.lineage.items()
        }
        new = Derivation(
            rule=node.rule,
            conclusion=concl,
            premises=tuple(new_premises),
            principal=tuple(idmap[i] for i in node.principal),
            actives=tuple((pi, prem_maps[pi][oid]) for pi, oid in node.actives),
            lineage=lineage,
            term=node.term,
            term2=node.term2,
            var=node.var,
            template=node.template,
        )
        return new, idmap

    return go(d)[0]


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class Measures:
    length: int
    cut_rank: int
    proof_tau: int
    tau: dict[int, int]

    def triple(self) -> tuple[int, int, int]:
        return (self.length, self.cut_rank, self.proof_tau)


class MeasureError(Exception):
    """The derivation's lineage bookkeeping is broken."""


def compute_measures(d: Derivation) -> Measures:
    """Length, cut rank, proof T-complexity, and the per-occurrence tau map.

    Assumes the derivation is structurally well-formed (kernel-validated);
    raises :class:`MeasureError` on broken lineage.
    """
    from .syntax import logical_complexity

    tau: dict[int, int] = {}
    cut_ranks: list[int] = []

    def node_tau(node: Derivation) -> None:
        for p in node.premises:
            node_tau(p)
        actives_tau = [tau[oid] for _, oid in node.actives]
        for cid, parents in node.lineage.items():
            try:
                tau[cid] = max(tau[oid] for _, oid in parents)
            except KeyError as e:
                raise MeasureError(f"lineage refers to unknown occurrence: {e}")
        for pid in node.principal:
            if node.rule in ("Tl", "Tr"):
                tau[pid] = actives_tau[0] + 1
            elif node.rule == "comp":
                tau[pid] = max(actives_tau) + 1
            elif node.rule in ("negl", "negr", "forallr"):
                tau[pid] = actives_tau[0]
            elif node.rule in ("andl", "andr", "foralll"):
                tau[pid] = max(actives_tau)
            else:
                # leaf rules and geometric principals
                tau[pid] = 0
        for o in node.conclusion.all_occurrences():
            if o.id not in tau:
                if node.premises:
                    raise MeasureError(
                        f"occurrence {o.id} at rule {node.rule} has no lineage"
                    )
                tau[o.id] = 0
            if not formula_facts(o.formula)[2]:
                tau[o.id] = 0
        if node.rule == "cut":
            cut_formula = node.premises[0].conclusion.find(node.actives[0][1])
            if cut_formula is None:
                cut_formula = node.premises[0].conclusion.find(node.actives[1][1])
            assert cut_formula is not None
            cut_ranks.append(logical_complexity(cut_formula[2].formula) + 1)

    def length(node: Derivation) -> int:
        if not node.premises:
            return 0
        return 1 + max(length(p) for p in node.premises)

    node_tau(d)
    proof_tau = max(tau.values(), default=0)
    return Measures(
        length=length(d),
        cut_rank=max(cut_ranks, default=0),
        proof_tau=proof_tau,
        tau=tau,
    )
