"""Structural admissibility results as executable proof transformations.

Every public operation validates its output with the kernel, recomputes the
measure triple (length, cut rank, proof T-complexity), and checks it against
the bound the corresponding lemma promises.  A bound failure raises
:class:`CertificateError`; certificates are recomputed evidence, never
trusted bookkeeping.

Conventions:

* The internal steps (``_weaken``, ``_invert``, ``_contract``, ``_reduce``,
  ``_push``, ...) build proofs uncertified; each public entry point
  certifies its output once, in :func:`_certify`, which is the only trust
  boundary.  An intermediate proof reaches no output unchecked, since every
  output is re-checked whole.  A lineage entry missing inside them is a
  :class:`TransformError` naming the rule and the occurrence (raised in
  :func:`_ancestors`).
* Walks run on the one explicit-stack traversal :func:`~.deriv.fold`, so
  proof height is not limited by Python's recursion limit there.  The
  whole-tree rebuilds (substitution, eigenvariable freshening, weakening and
  each rank pass of ``eliminate_cuts``) fold over premises; ``_invert``
  and ``_contract`` fold over the ancestry of the occurrences they follow
  (:func:`_ancestry`).  ``drop_context`` is an inversion into no formulas.
  ``_reduce`` descends through truth-rule principal pairs in a loop,
  handles a leaf premise on either side in one case, and ``_push`` walks the
  ancestry of a cut formula that is a side formula, carrying the cut's
  other premise with it: it reduces the cut at each top of that ancestry
  and re-links the nodes below.  Only the other premise is weakened (after
  the first top, a copy of it with fresh ids and eigenvariables new to the
  proof and to every other copy), and not at a leaf top that has the cut
  formula as a side formula: the reduction keeps that leaf.  The other
  premise is carried into, and inverted on, only the branches with a top
  that cuts it; refusals stay per rule, on every branch.
* Every rebuilt node is re-linked to its new premises by :func:`_relink`
  and constructed by :func:`~.deriv.remake`.  A rank pass of
  ``eliminate_cuts`` keeps every node whose premises come back unchanged,
  so it copies no cut-free subtree.
* Cut reduction and contraction rest on the rules' invertibility, as the
  cut-elimination argument does: past a principal, its partner in the other
  premise, or its other copy, is inverted into the principal's parts in
  :data:`~.build.LOGICAL_RULES`, where each logical rule's formula relation
  is stated once; ``invert`` reads its targets' parts there too
  (``foralll``, whose premise keeps the universal, needs no inversion).
  Cut reduction contracts only in its ``init`` axiom cases.
* ``weaken`` and ``substitute_proof`` reuse occurrence ids, so their
  occurrence maps are identities.
* Every step returns the exact map from its input's conclusion occurrence
  ids to its output's, read from actives and lineage; no occurrence is
  relocated by its formula, and ``_push`` carries the cut's other premise
  up paired with the main one by lineage.  Formulas are paired only where
  ``build`` makes a two-premise node (``match_contexts``): the cuts at the
  tops of ``_push`` and in ``_reduce``'s principal cases.
* ``invert`` and ``contract`` certify per-occurrence T-complexity bounds
  through their maps pointwise; ``reduce_cut`` and ``eliminate_cuts`` return
  their maps and certify the measure triple only.
* Cut reduction is an induction on (tau of the cut formula, rank), in
  lexicographic order: a truth-rule principal pair peels T off the cut
  formula and lowers its tau, though the unquoted sentence may have any
  rank; a compound pair cuts on its parts and lowers the rank.  Every cut a
  reduction builds goes through :func:`_cut`, which reduces it at once when
  its rank is above the allowed one.
* Each formula's free variables, bound variables, T-occurrence and logical
  complexity are set when the formula is built (:mod:`~.syntax`), so the
  transforms and the kernel and measure passes of the final certification
  read them instead of walking the formula.
* The ``eliminate_cuts`` length bound hyperexp(m, n) is an int below 2**64
  and the symbolic ``{"hyperexp": [m, n]}`` above; either way it is checked
  against the actual length without building a number larger than that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import LOGICAL_RULES
from .build import cut as build_cut
from .coding import DecodeError
from .deriv import (
    RULE_SHAPES,
    SIDE_NAMES,
    Derivation,
    Measures,
    Occurrence,
    Sequent,
    compute_measures,
    cut_rank,
    fold,
    occ,
    refresh_ids,
    remake,
    same_multiset,
)
from .kernel import check_derivation
from .syntax import (
    And,
    CaptureError,
    Forall,
    Formula,
    Not,
    Term,
    Tr,
    Var,
    bound_vars,
    free_vars,
    fresh_name,
    numeral_value,
    substitute,
)


class TransformError(Exception):
    pass


class CertificateError(TransformError):
    """The transformed proof violates the lemma's stated bound."""


@dataclass(frozen=True)
class Certificate:
    description: str
    input_measures: tuple[tuple[int, int, int], ...]
    output_measures: tuple[int, int, int]
    #: (name, bound, actual); a bound is an int or a symbolic
    #: ``{"hyperexp": [m, n]}`` (see :func:`_length_bound`)
    checks: tuple[tuple[str, int | dict, int], ...]

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "input_measures": [list(t) for t in self.input_measures],
            "output_measures": list(self.output_measures),
            "checks": [
                {"name": n, "bound": b, "actual": a, "ok": _within(a, b)}
                for n, b, a in self.checks
            ],
        }


@dataclass(frozen=True)
class TransformResult:
    derivation: Derivation
    certificate: Certificate
    #: map from input conclusion occurrence ids to output occurrence id(s)
    occ_map: dict


def _certify(
    out: Derivation,
    system: str,
    description: str,
    inputs: tuple[Measures, ...],
    *,
    length: int | dict,
    cut_rank: int,
    proof_tau: int,
    pointwise=(),
    expect: tuple[list[Formula], list[Formula]] | None = None,
    exact_triple: bool = False,
    occ_map: dict,
) -> TransformResult:
    report = check_derivation(out, system)
    if not report.ok:
        raise CertificateError(
            f"{description}: output fails kernel validation: "
            + "; ".join(str(v) for v in report.violations)
        )
    m = compute_measures(out)
    checks = [
        ("length", length, m.length),
        ("cutRank", cut_rank, m.cut_rank),
        ("proofTau", proof_tau, m.proof_tau),
    ]
    for label, oid, bound in pointwise:
        checks.append((f"tau[{label}]", bound, m.tau[oid]))
    for name, bound, actual in checks:
        if not _within(actual, bound):
            raise CertificateError(
                f"{description}: {name} bound violated: {actual} > {bound}"
            )
    if exact_triple and m.triple() != (length, cut_rank, proof_tau):
        raise CertificateError(
            f"{description}: measures changed: {m.triple()} != "
            f"{(length, cut_rank, proof_tau)}"
        )
    if expect is not None:
        ante, succ = expect
        if not (
            same_multiset(out.conclusion.ante_formulas(), list(ante))
            and same_multiset(out.conclusion.succ_formulas(), list(succ))
        ):
            raise CertificateError(
                f"{description}: end sequent mismatch"
            )
    return TransformResult(
        out,
        Certificate(
            description,
            tuple(mi.triple() for mi in inputs),
            m.triple(),
            tuple(checks),
        ),
        occ_map,
    )


# ---------------------------------------------------------------------------
# Shared helpers


def collect_eigenvars(d: Derivation) -> set[str]:
    return {
        node.var
        for node in d.iter_nodes()
        if RULE_SHAPES[node.rule].binds is not None and node.var is not None
    }


def all_var_names(d: Derivation) -> set[str]:
    names: set[str] = set(collect_eigenvars(d))
    for node in d.iter_nodes():
        for o in node.conclusion.all_occurrences():
            names |= free_vars(o.formula)
            names |= bound_vars(o.formula)
    return names


def _same_ids(node, drop_id=None, keep_id=None):
    """The identity on ``node``'s conclusion ids, except that ``drop_id``
    goes to ``keep_id`` (or nowhere, without one)."""
    m = {o.id: o.id for o in node.conclusion.all_occurrences() if o.id != drop_id}
    if keep_id is not None:
        m[drop_id] = keep_id
    return m


def _kept_tau(d: Derivation, im: Measures, occ_map, skip=()):
    """The pointwise checks that each end-sequent occurrence of ``d`` not in
    ``skip`` keeps its T-complexity ``im.tau`` at its image in ``occ_map``."""
    return [(f"{o.id}", occ_map[o.id], im.tau[o.id])
            for o in d.conclusion.all_occurrences() if o.id not in skip]


def _minus(seq: Sequent, *occ_ids: int) -> Sequent:
    """``seq`` without the occurrences ``occ_ids``."""
    drop = set(occ_ids)
    return Sequent(
        tuple([o for o in seq.ante if o.id not in drop]),
        tuple([o for o in seq.succ if o.id not in drop]),
    )


def _find_occ(d: Derivation, occ_id: int) -> tuple[str, Occurrence]:
    hit = d.conclusion.find(occ_id)
    if hit is None:
        raise TransformError(f"occurrence {occ_id} not in the conclusion")
    return hit[0], hit[2]


# ---------------------------------------------------------------------------
# Substitution


def _subst_tree(d: Derivation, x: str, t: Term) -> Derivation:
    """``d`` with ``t`` for the free variable ``x`` in every formula, term
    and template; occurrence ids are kept."""

    def sf(phi: Formula) -> Formula:
        return substitute(phi, x, t)

    def step(node: Derivation, premises) -> Derivation:
        concl = Sequent(
            tuple(Occurrence(sf(o.formula), o.id) for o in node.conclusion.ante),
            tuple(Occurrence(sf(o.formula), o.id) for o in node.conclusion.succ),
        )
        template = node.template
        if template is not None:
            v, chi = template
            if v != x:
                if v in free_vars(t):
                    v2 = fresh_name(v, free_vars(t) | free_vars(chi) | bound_vars(chi) | {x})
                    chi = substitute(chi, v, Var(v2))
                    v = v2
                template = (v, substitute(chi, x, t))
        return remake(
            node, conclusion=concl, premises=tuple(premises), template=template,
            term=None if node.term is None else substitute(node.term, x, t),
            term2=None if node.term2 is None else substitute(node.term2, x, t),
        )

    return fold(d, step)


def freshen_eigenvariables(d: Derivation, avoid, used=None) -> Derivation:
    """Rename every eigenvariable in ``avoid`` to a fresh name.  Occurrence
    ids and all measures are untouched (only formulas inside the renamed
    subtrees change).  Premises are renamed before their conclusion, so no
    eigenvariable in ``avoid`` is left above a node when it renames its own.
    A fresh name is in no given ``used`` set either, and is added to it, so
    calls that share one set pick distinct names."""
    avoid = set(avoid)
    used = set() if used is None else used
    used |= all_var_names(d) | avoid

    def step(node: Derivation, premises) -> Derivation:
        node = remake(node, premises=tuple(premises))
        idx = RULE_SHAPES[node.rule].binds
        if idx is not None and node.var in avoid:
            y2 = fresh_name(node.var, used)
            used.add(y2)
            sub = _subst_tree(node.premises[idx], node.var, Var(y2))
            premises = node.premises[:idx] + (sub,) + node.premises[idx + 1:]
            node = remake(node, premises=premises, var=y2)
        return node

    return fold(d, step)


def substitute_proof(d: Derivation, x: str, t: Term, system: str) -> TransformResult:
    """Replace the free variable ``x`` by ``t`` throughout the proof.

    Measures and per-occurrence T-complexities are unchanged.  ``t`` must not
    contain eigenvariables of the proof, and ``x`` must not be one.
    """
    ev = collect_eigenvars(d)
    if x in ev:
        raise TransformError(f"cannot substitute for eigenvariable {x}")
    clash = free_vars(t) & ev
    if clash:
        raise TransformError(
            f"substituted term contains eigenvariable(s) {sorted(clash)}"
        )
    im = compute_measures(d)
    try:
        out = _subst_tree(d, x, t)
    except CaptureError as e:
        raise TransformError(f"substitution not capture-free: {e}") from e
    ids = _same_ids(d)
    return _certify(
        out, system, f"substitute {x}", (im,),
        length=im.length, cut_rank=im.cut_rank, proof_tau=im.proof_tau,
        pointwise=_kept_tau(d, im, ids), exact_triple=True, occ_map=ids,
    )


# ---------------------------------------------------------------------------
# Weakening


def _weaken_node(node: Derivation, subs, theta, lam):
    """Fold step of :func:`_weaken`: ``node`` over its weakened premises
    ``subs`` ((derivation, added antecedent occs, added succedent occs) each),
    with fresh occurrences of Theta and Lambda added to its conclusion."""
    add_a = tuple(occ(f) for f in theta)
    add_s = tuple(occ(f) for f in lam)
    lineage = dict(node.lineage)
    if node.premises:
        for j, o in enumerate(add_a):
            lineage[o.id] = tuple(
                (pi, subs[pi][1][j].id) for pi in range(len(subs))
            )
        for j, o in enumerate(add_s):
            lineage[o.id] = tuple(
                (pi, subs[pi][2][j].id) for pi in range(len(subs))
            )
    concl = Sequent(node.conclusion.ante + add_a, node.conclusion.succ + add_s)
    new = remake(node, conclusion=concl, premises=tuple(s[0] for s in subs),
                 lineage=lineage)
    return new, add_a, add_s


def _weaken(d: Derivation, theta, lam):
    """Uncertified core of :func:`weaken`: rename the eigenvariables that
    collide with the new formulas, then add Theta and Lambda everywhere.
    Returns (derivation, added antecedent occs, added succedent occs)."""
    if not theta and not lam:
        return d, (), ()
    new_free: set[str] = set()
    for f in (*theta, *lam):
        new_free |= free_vars(f)
    if new_free:  # closed formulas clash with no eigenvariable
        clash = new_free & collect_eigenvars(d)
        if clash:
            d = freshen_eigenvariables(d, clash)
    theta, lam = tuple(theta), tuple(lam)
    return fold(d, lambda node, subs: _weaken_node(node, subs, theta, lam))


def weaken(d: Derivation, theta, lam, system: str) -> TransformResult:
    """Add side formulas Theta to every antecedent and Lambda to every
    succedent.  Measures are unchanged; the new occurrences carry tau = 0.
    Eigenvariables colliding with the new formulas are renamed first."""
    theta = list(theta)
    lam = list(lam)
    im = compute_measures(d)
    out, add_a, add_s = _weaken(d, theta, lam)
    ids = _same_ids(d)
    pointwise = _kept_tau(d, im, ids) + [
        (f"new:{o.id}", o.id, 0) for o in add_a + add_s]
    return _certify(
        out, system, "weaken", (im,),
        length=im.length, cut_rank=im.cut_rank, proof_tau=im.proof_tau,
        pointwise=pointwise, exact_triple=True,
        expect=(d.conclusion.ante_formulas() + theta,
                d.conclusion.succ_formulas() + lam),
        occ_map=ids,
    )


# ---------------------------------------------------------------------------
# Inversion


def _ancestors(node: Derivation, oid: int) -> tuple[tuple[int, int], ...]:
    """``node``'s lineage entry for the conclusion occurrence ``oid``.  Every
    uncertified step reads lineage through here, so a bookkeeping fault in a
    construction is reported with the node that lacks the entry."""
    try:
        return node.lineage[oid]
    except KeyError:
        raise TransformError(
            f"lineage fault: occurrence {oid} has no ancestry at rule "
            f"{node.rule!r}"
        ) from None


def _ancestry(d: Derivation, ids: tuple[int, ...], step):
    """Fold ``step`` over the ancestry of the conclusion occurrences ``ids``
    on :func:`~.deriv.fold`'s explicit stack.  Each item is a node with the
    ids followed into it.  Its children are its premises, each with the
    ancestors of those ids; an item has none at a leaf or where one of its
    ids is principal."""

    def children(item):
        node, oids = item
        if not node.premises or any(i in node.principal for i in oids):
            return ()
        parents = [dict(_ancestors(node, i)) for i in oids]
        return [(p, tuple(ps[pi] for ps in parents))
                for pi, p in enumerate(node.premises)]

    return fold((d, ids), step, children)


def _relink(node: Derivation, premises, premise_maps, drop=None, add=()):
    """``node`` over new ``premises``; ``premise_maps[i]`` sends each
    conclusion id of the old premise ``i`` to its id in the new one, and the
    actives and lineage are re-pointed through it.  The conclusion loses the
    occurrence ``drop`` and gains each ``(occurrence, side, ancestors)`` of
    ``add`` at the end of its side.  A leaf gets no lineage."""
    concl = node.conclusion
    if drop is not None:
        concl = _minus(concl, drop)
    if add:
        concl = Sequent(
            concl.ante + tuple(o for o, side, _ in add if side == "ante"),
            concl.succ + tuple(o for o, side, _ in add if side == "succ"),
        )
    lineage = {}
    if len(premises) == 1:
        # the usual entry, one parent, is re-pointed without a generator
        [pm] = premise_maps
        lineage = {
            cid: ((ps[0][0], pm[ps[0][1]]),) if len(ps) == 1
            else tuple([(pi, pm[oid]) for pi, oid in ps])
            for cid, ps in node.lineage.items() if cid != drop
        }
    elif premises:
        lineage = {
            cid: tuple([(pi, premise_maps[pi][oid]) for pi, oid in ps])
            for cid, ps in node.lineage.items() if cid != drop
        }
    if premises:
        lineage.update((o.id, ancestors) for o, _, ancestors in add)
    return remake(
        node, conclusion=concl, premises=tuple(premises), lineage=lineage,
        actives=tuple((pi, premise_maps[pi][oid]) for pi, oid in node.actives),
    )


def _invert(d: Derivation, tid: int, rule: str, parts, selector, fresh_var):
    """Core inversion: replace the target occurrence (and its whole ancestry)
    by new occurrences of the ``parts`` (:data:`~.build.LOGICAL_RULES`) that
    the ``rule`` puts in its premise ``selector``, splicing out the
    introducing ``rule`` node when the target is principal.  With no
    ``rule`` and no ``parts`` it drops a never-principal target.

    Returns (derivation, map old-conclusion-occ-id -> new id for every other
    occurrence, ids of the replacement occurrences)."""

    repl = [(f, side) for f, (i, side) in zip(parts, RULE_SHAPES[rule].actives)
            if i == selector] if rule else ()

    def step(item, done):
        node, (t,) = item
        if t not in node.principal:
            new_occs = tuple(occ(f) for f, _ in repl)
            add = [
                (no, side, tuple((pi, r[2][j]) for pi, r in enumerate(done)))
                for j, (no, (_, side)) in enumerate(zip(new_occs, repl))
            ]
            new = _relink(node, [r[0] for r in done], [r[1] for r in done],
                          t, add)
            return new, _same_ids(node, t), tuple(o.id for o in new_occs)
        if rule is None:
            raise TransformError("cannot drop a principal occurrence")
        if node.rule != rule:
            raise TransformError(
                f"target introduced by {node.rule!r}, cannot invert as {rule!r}"
            )
        # splice the node out: the premise it keeps (the selected one of
        # two) proves the target's components and every context occurrence
        pi = selector
        premise = node.premises[pi]
        if rule == "forallr" and fresh_var != node.var:
            z = node.var
            if z in collect_eigenvars(premise):
                premise = freshen_eigenvariables(premise, {z})
            premise = _subst_tree(premise, z, Var(fresh_var))
        ctx = {o.id: oid for o in node.conclusion.all_occurrences()
               if o.id != t for i, oid in _ancestors(node, o.id) if i == pi}
        return premise, ctx, tuple(oid for i, oid in node.actives if i == pi)

    return _ancestry(d, (tid,), step)


def _takers(node: Derivation, pi: int):
    """The actives in ``node``'s premise ``pi`` that take over the partner
    of its principal: all of them, or the first where the premise keeps the
    principal (:data:`~.build.LOGICAL_RULES`); None when its rule is not a
    logical one."""
    rule = LOGICAL_RULES.get(node.rule)
    if rule is None:
        return None
    actives = [oid for i, oid in node.actives if i == pi]
    return actives[:1] if rule.keeps else actives


def _invert_partner(node: Derivation, pi: int, d: Derivation, tid: int):
    """Invert ``tid`` in ``d``, the partner of ``node``'s principal, into
    ``node``'s parts in premise ``pi`` (:data:`~.build.LOGICAL_RULES`), a
    ``forallr`` onto ``node``'s own eigenvariable.  The parts are read off
    ``node``'s actives, which hold them in a checked proof, so no truth
    principal is decoded again.  Returns (derivation, map of ``d``'s
    conclusion ids, {active id: id of its new partner}), or None when
    ``node``'s rule is not a logical one.  A partner of a principal the
    premise keeps (``foralll``) is kept as it is, the partner of the kept
    active."""
    takers = _takers(node, pi)
    if takers is None:
        return None
    if LOGICAL_RULES[node.rule].keeps:
        return d, _same_ids(d), {takers[0]: tid}
    parts = [node.premises[i].conclusion.find(oid)[2].formula
             for i, oid in node.actives]
    if node.rule == "forallr" and node.var in collect_eigenvars(d):
        d = freshen_eigenvariables(d, {node.var})
    d, m, new = _invert(d, tid, node.rule, parts, pi, node.var)
    return d, m, dict(zip(takers, new))


def invert(d: Derivation, target_id: int, system: str):
    """Invert the rule introducing the target occurrence.

    Supported targets: T-atoms over numerals (either side), negations (either
    side), conjunctions (antecedent: one output with both conjuncts;
    succedent: two outputs), universals (succedent; instantiated with a fresh
    variable).  Length, cut rank, and proof T-complexity do not increase;
    truth inversion strictly decreases the target's positive T-complexity.

    All four supported systems restrict initial sequents to T-free atoms,
    which is exactly what makes truth inversion available; with unrestricted
    initial sequents it would fail at T-principal axioms.
    """
    side, o = _find_occ(d, target_id)
    im = compute_measures(d)
    f = o.formula
    rule = next((r for r, entry in LOGICAL_RULES.items() if not entry.keeps
                 and isinstance(f, entry.principal)
                 and RULE_SHAPES[r].principals == (side,)), None)
    if rule is None:
        raise TransformError(
            f"target mismatch: cannot invert {f!r} in the {SIDE_NAMES[side]}")
    shape = RULE_SHAPES[rule]
    y = None if shape.binds is None else fresh_name("y", all_var_names(d))
    if isinstance(f, Tr) and numeral_value(f.term) is None:
        raise TransformError(
            "truth inversion requires a numeral term (pointwise "
            "compositional principals cannot be inverted)"
        )
    try:
        parts = LOGICAL_RULES[rule].parts(f, None if y is None else Var(y))
    except DecodeError as e:
        raise TransformError(f"target numeral decodes to nothing: {e}") from e
    bound = max(im.tau[target_id] - shape.unquotes, 0)
    results = []
    for pi in range(shape.premises):
        out, ctx, new = _invert(d, target_id, rule, parts, pi, y)
        pointwise = _kept_tau(d, im, ctx, (target_id,))
        labels = ("target.left", "target.right") if len(new) == 2 else ("target",)
        pointwise += [(label, nid, bound) for label, nid in zip(labels, new)]
        name = rule if shape.premises == 1 else f"{rule}[{pi}]"
        results.append(_certify(
            out, system, f"invert {name}", (im,),
            length=im.length, cut_rank=im.cut_rank, proof_tau=im.proof_tau,
            pointwise=pointwise,
            occ_map={k: (v,) for k, v in ctx.items()} | {target_id: new},
        ))
    return tuple(results) if len(results) > 1 else results[0]


# ---------------------------------------------------------------------------
# Contraction


def _contract(d: Derivation, ida: int, idb: int):
    """Merge two same-side occurrences of one formula.  Returns
    (derivation, map old-conclusion-id -> new id)."""
    side_a, oa = _find_occ(d, ida)
    side_b, ob = _find_occ(d, idb)
    if ida == idb:
        raise TransformError("contraction needs two distinct occurrences")
    if side_a != side_b or oa.formula != ob.formula:
        raise TransformError("contraction needs two copies of one formula "
                             "on the same side")

    def step(item, done):
        node, (a, b) = item
        if not node.premises:
            keep, drop = (b, a) if b in node.principal else (a, b)
        elif a in node.principal or b in node.principal:
            pid, cid = (a, b) if a in node.principal else (b, a)
            return _contract_principal(node, pid, cid)
        else:
            keep, drop = a, b
        new = _relink(node, [r[0] for r in done], [r[1] for r in done], drop)
        return new, _same_ids(node, drop, keep)

    return _ancestry(d, (ida, idb), step)


def _contract_principal(node: Derivation, pid: int, cid: int):
    """Merge the context occurrence ``cid`` into the principal ``pid``.  In
    each premise, invert the copy's ancestor into the formulas of the
    node's actives there, then contract each active with its new copy."""
    parents = dict(_ancestors(node, cid))
    subs, maps = [], []
    for pi, premise in enumerate(node.premises):
        inverted = _invert_partner(node, pi, premise, parents[pi])
        if inverted is None:
            raise TransformError(
                "contraction through a pointwise compositional principal is "
                "not supported" if node.rule == "comp" else
                f"cannot contract principal of rule {node.rule!r}")
        sub, m, copies = inverted
        for a, c in copies.items():
            sub, mc = _contract(sub, m[a], c)
            m = {k: mc[v] for k, v in m.items()}
        subs.append(sub)
        maps.append(m)
    return _relink(node, subs, maps, cid), _same_ids(node, cid, pid)


def contract(d: Derivation, ida: int, idb: int, system: str) -> TransformResult:
    """Contract two occurrences of one formula on the same side of the end
    sequent.  Length, cut rank, and proof T-complexity do not increase, and
    the merged occurrence's T-complexity is at most the maximum of the two."""
    im = compute_measures(d)
    out, m = _contract(d, ida, idb)
    pointwise = [("merged", m[ida], max(im.tau[ida], im.tau[idb]))]
    pointwise += _kept_tau(d, im, m, (ida, idb))
    side, oa = _find_occ(d, ida)
    expect_ante = d.conclusion.ante_formulas()
    expect_succ = d.conclusion.succ_formulas()
    if side == "ante":
        expect_ante.remove(oa.formula)
    else:
        expect_succ.remove(oa.formula)
    return _certify(
        out, system, "contract", (im,),
        length=im.length, cut_rank=im.cut_rank, proof_tau=im.proof_tau,
        pointwise=pointwise, expect=(expect_ante, expect_succ), occ_map=m,
    )


# ---------------------------------------------------------------------------
# Dropping a never-principal context occurrence (top/bot monotonicity)


def drop_context(d: Derivation, occ_id: int) -> Derivation:
    """Remove an occurrence whose entire ancestry consists of side formulas
    (as is always the case for top in antecedents and bot in succedents):
    an inversion of it into no formulas."""
    _find_occ(d, occ_id)
    return _invert(d, occ_id, None, (), None, None)[0]


# ---------------------------------------------------------------------------
# Cut reduction


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def burn(self):
        self.left -= 1
        if self.left <= 0:
            raise TransformError(
                "cut reduction fuel exhausted (termination guard)"
            )


def _parents(node: Derivation, pi: int) -> dict[int, int]:
    """``node``'s conclusion ids -> their ancestors in premise ``pi``."""
    return {cid: oid for cid, parents in node.lineage.items()
            for i, oid in parents if i == pi}


def _children(node: Derivation, pi: int) -> dict[int, int]:
    """Premise ``pi``'s ids -> ``node``'s conclusion ids descending from
    them (one each, as in a cut)."""
    return {oid: cid for cid, oid in _parents(node, pi).items()}


def _cut(d0: Derivation, aid: int, d1: Derivation, bid: int, m_allow, fuel):
    """The cut of ``aid`` against ``bid``, reduced at once by :func:`_reduce`
    when its rank is above ``m_allow``.  Returns (derivation, and for each
    premise the map from its conclusion ids to the derivation's)."""
    out = build_cut(d0, aid, d1, bid)
    maps = _children(out, 0), _children(out, 1)
    if cut_rank(d0.conclusion.find(aid)[2].formula) > m_allow:
        out, m = _reduce(out, m_allow, fuel)
        maps = tuple({x: m[c] for x, c in mp.items()} for mp in maps)
    return out, maps


def _reduce(cut: Derivation, m_allow, fuel):
    """Reduce the cut ``cut`` to cuts of rank at most ``m_allow``.  Returns
    (derivation of the cut's conclusion, map from the cut's conclusion ids
    to the output's).  Each case reads which occurrence is which from the
    actives and the lineage of the nodes it takes apart."""
    fuel.burn()
    # truth rules principal on both sides: cut their actives instead
    while True:
        d0, d1 = cut.premises
        (_, aid), (_, bid) = cut.actives
        if not (d0.rule == "Tr" and aid in d0.principal
                and d1.rule == "Tl" and bid in d1.principal):
            break
        cut = _relink(cut, [d0.premises[0], d1.premises[0]], [
            _parents(d, 0) | {i: d.actives[0][1]}
            for d, i in ((d0, aid), (d1, bid))
        ])
        fuel.burn()
    phi = d0.conclusion.find(aid)[2].formula
    vias = _parents(cut, 0), _parents(cut, 1)

    # --- axiom cases: a leaf premise, the left one first ------------------
    for i, dropped in enumerate(("top", "bot")):
        leaf, other = cut.premises[i], cut.premises[1 - i]
        own, other_id = cut.actives[i][1], cut.actives[1 - i][1]
        if RULE_SHAPES[leaf.rule].premises:
            continue
        if own not in leaf.principal:  # the leaf proves the conclusion
            return _relink(leaf, (), (), own), vias[i]
        via = vias[1 - i]
        if leaf.rule == "init":
            # the other premise's partner of the axiom's other copy of phi
            partner = via[_children(cut, i)[leaf.principal[i]]]
            out, mc = _contract(other, other_id, partner)
            return out, {c: mc[x] for c, x in via.items()}
        if leaf.rule == dropped:
            return drop_context(other, other_id), via
        if i == 0:
            raise TransformError(
                f"unexpected succedent principal in leaf {leaf.rule}"
            )
        # a right qg1 leaf: the cut formula S(t)=0 must be chased into d0,
        # whose last rule cannot have it principal (it is not a leaf here)

    # --- cut formula parametric (non-principal) in one premise ------------
    if aid not in d0.principal:
        return _push(cut, 0, m_allow, fuel)
    if bid not in d1.principal:
        return _push(cut, 1, m_allow, fuel)

    # --- principal on both sides ------------------------------------------
    # each case ends in a cut ``out`` one of whose premises keeps the ids of
    # d0's premise 0; ``new`` maps them to ``out``'s conclusion
    if isinstance(phi, Not) and d0.rule == "negr" and d1.rule == "negl":
        p0 = d0.premises[0]  # psi, Gamma => Delta
        p1 = d1.premises[0]  # Gamma => psi, Delta
        out, (_, new) = _cut(p1, d1.actives[0][1], p0, d0.actives[0][1],
                             m_allow, fuel)
    elif isinstance(phi, And) and d0.rule == "andr" and d1.rule == "andl":
        p0a = d0.premises[0]  # Gamma => psi, Delta
        p0b = d0.premises[1]  # Gamma => chi, Delta
        p1 = d1.premises[0]   # psi, chi, Gamma => Delta
        (_, psi0), (_, chi0) = d0.actives
        (_, psi1), (_, chi1) = d1.actives
        w = _weaken(p0b, [phi.left], [])[0]  # Gamma, psi => chi, Delta
        inner, (_, up1) = _cut(w, chi0, p1, chi1, m_allow, fuel)
        out, (new, _) = _cut(p0a, psi0, inner, up1[psi1], m_allow, fuel)
    elif isinstance(phi, Forall) and d0.rule == "forallr" and d1.rule == "foralll":
        p0 = d0.premises[0]   # Gamma => psi(y), Delta
        p1 = d1.premises[0]   # forall x psi, psi(t), Gamma' => Delta
        t = d1.term
        y = d0.var
        inst = substitute(phi.body, phi.var, t)
        s0 = p0
        clash = free_vars(t) & collect_eigenvars(s0)
        if clash:
            s0 = freshen_eigenvariables(s0, clash)
        s0 = _subst_tree(s0, y, t)  # Gamma => psi(t), Delta, p0's ids
        # chase the universal into d1's premise: Gamma, psi(t) => Delta
        d0w = _weaken(d0, [inst], [])[0]  # reuses d0's ids
        (_, kept), (_, inst1) = d1.actives
        inner = build_cut(d0w, aid, p1, kept)
        rec, m = _reduce(inner, m_allow, fuel)
        inst_in_rec = m[_children(inner, 1)[inst1]]
        out, (new, _) = _cut(s0, d0.actives[0][1], rec, inst_in_rec,
                             m_allow, fuel)
    else:
        raise TransformError(
            f"no reduction for principal pair ({d0.rule}, {d1.rule}) on {phi!r}"
        )
    up = _parents(d0, 0)
    return out, {c: new[up[x]] for c, x in vias[0].items()}


def _carry(node: Derivation, pi: int, oth, pair):
    """``oth`` and ``pair`` carried up to ``node``'s premise ``pi`` in
    :func:`_push`.  A paired principal's partner is inverted in ``oth`` into
    the premise's actives, which take over its pair.  With no ``oth`` only
    which ids are paired is carried up (the values of ``pair`` are not read
    then): nothing is inverted, and a paired principal whose rule has no
    inversion is refused all the same."""
    up, moved = {}, None
    for p in node.principal:
        if p not in pair:
            continue  # consumed further down, so ``oth`` never held it
        if oth is None:
            takers = _takers(node, pi)
            inverted = takers if takers is None else (
                None, None, dict.fromkeys(takers))
        else:
            inverted = _invert_partner(node, pi, oth, pair[p])
        if inverted is None:
            raise TransformError(f"cannot push a cut past a {node.rule!r} principal")
        oth, moved, new = inverted
        up.update(new)
    for c, oc in pair.items():
        if c not in node.principal:
            for i, oid in _ancestors(node, c):
                if i == pi:
                    up[oid] = oc if moved is None else moved[oc]
    return oth, up


def _push(cut: Derivation, mi: int, m_allow, fuel):
    """The cut formula is a side formula of the last rule of ``main``, the
    cut's premise ``mi``: one walk up its ancestry carries the other premise
    ``other``, paired with ``main`` by lineage (:func:`_carry`).  At each top
    (where the cut formula is principal, or at a leaf) the cut is reduced: a
    leaf top where it is a side formula is kept without it, as :func:`_reduce`
    keeps it, and any other top is cut against ``other`` weakened by the
    top's unpaired occurrences (after the first such top, a copy with fresh
    ids and fresh eigenvariables).  Each node below is re-linked without the
    cut formula.  ``other`` is carried into, and inverted on, only the
    branches with a top that cuts it, which one pass over the ancestry marks
    first: with ``main`` on the left a kept leaf top does not, and with
    ``main`` on the right every top may (where ``other`` ends a leaf,
    :func:`_reduce` keeps it instead of the top).  A branch without one
    carries only which ids are paired, so a paired principal is refused
    there by its rule as on any other branch.  Returns (derivation, map from
    the cut's conclusion ids to the output's)."""
    a, b = cut.actives[mi][1], cut.actives[1 - mi][1]
    via_main, via_other = _parents(cut, mi), _parents(cut, 1 - mi)
    pair = {x: via_other[c] for c, x in via_main.items()} | {a: b}
    used = False  # whether a top has cut ``other``'s own ids
    names = None  # every variable name in use, once a copy needs new ones

    def mark(item, done):
        # (node, the cut formula's id there, whether a top above it cuts,
        # the same for each premise on the ancestry)
        node, (a,) = item
        cuts = any(p[2] for p in done) if done else mi == 1 or a in node.principal
        return node, a, cuts, done

    def children(item):
        (node, _, _, above), oth, pair = item
        return [(p, *_carry(node, pi, oth if p[2] else None, pair))
                for pi, p in enumerate(above)]

    def step(item, done):
        nonlocal used, names
        (node, a, _, _), oth, pair = item
        if done:
            new = _relink(node, [d for d, _ in done], [m for _, m in done], a)
            return new, _same_ids(node, a)
        # _reduce keeps a leaf left premise, so with ``main`` on the right a
        # leaf ``oth`` is kept instead of the top
        if (not node.premises and a not in node.principal
                and (mi == 0 or oth.premises)):
            fuel.burn()  # as _reduce would, so the guard trips alike
            return _relink(node, (), (), a), _same_ids(node, a)
        b = pair[a]
        if used:  # the cut occurrence keeps its position in the copy
            i = [o.id for o in oth.conclusion.all_occurrences()].index(b)
            oth = refresh_ids(oth)
            b = oth.conclusion.all_occurrences()[i].id
            ev = collect_eigenvars(oth)
            if ev:  # distinct from every other copy's and the proof's
                names = all_var_names(cut) if names is None else names
                oth = freshen_eigenvariables(oth, ev, names)
        used = True
        ctx = _minus(node.conclusion, a)
        ow = _weaken(oth, *([o.formula for o in s if o.id not in pair]
                            for s in (ctx.ante, ctx.succ)))[0]
        top = build_cut(node, a, ow, b) if mi == 0 else build_cut(ow, b, node, a)
        new, m = _reduce(top, m_allow, fuel)
        below = _children(top, mi)
        return new, {o.id: m[below[o.id]] for o in ctx.all_occurrences()}

    marks = _ancestry(cut.premises[mi], (a,), mark)
    out, m = fold((marks, cut.premises[1 - mi], pair), step, children)
    return out, {c: m[x] for c, x in via_main.items()}


def reduce_cut(d0: Derivation, aid: int, d1: Derivation, bid: int,
               system: str) -> TransformResult:
    """Eliminate one cut: from proofs of Gamma => Delta, phi and
    phi, Gamma => Delta produce a proof of Gamma => Delta of length at most
    n0 + n1, cut rank at most the larger of the inputs' cut ranks and
    phi's rank - 1, and proof T-complexity at most the maximum of the
    inputs.  The output may contain cuts on proper subformulas of phi (their
    rank is strictly below phi's); a cut that peeling T off phi exposes
    above that rank is reduced in turn, by induction on (tau of the cut
    formula, rank).  The occurrence map sends each occurrence of ``d0``'s
    Gamma and Delta to its descendant in the output."""
    side0, oa = _find_occ(d0, aid)
    side1, ob = _find_occ(d1, bid)
    if side0 != "succ" or side1 != "ante":
        raise TransformError("cut formula must be right in d0 and left in d1")
    if oa.formula != ob.formula:
        raise TransformError("cut formulas differ")
    phi = oa.formula
    gamma = d0.conclusion.ante_formulas()
    delta = [o.formula for o in d0.conclusion.succ if o.id != aid]
    if not (
        same_multiset([o.formula for o in d1.conclusion.ante if o.id != bid],
                      gamma)
        and same_multiset(d1.conclusion.succ_formulas(), delta)
    ):
        raise TransformError("cut contexts do not match")
    m0 = compute_measures(d0)
    m1 = compute_measures(d1)
    max_rank = max(m0.cut_rank, m1.cut_rank, cut_rank(phi) - 1)
    fuel = _Fuel(200_000)
    cut = build_cut(d0, aid, d1, bid)
    out, m = _reduce(cut, max_rank, fuel)
    return _certify(
        out, system, "reduceCut", (m0, m1),
        length=m0.length + m1.length,
        cut_rank=max_rank,
        proof_tau=max(m0.proof_tau, m1.proof_tau),
        expect=(gamma, delta),
        occ_map={x: m[c] for c, x in _parents(cut, 0).items()},
    )


# ---------------------------------------------------------------------------
# Cut elimination


def hyperexp(m: int, n: int) -> int:
    for _ in range(m):
        n = 2 ** n
    return n


def _hyperexp_exceeds(m: int, n: int, x: int) -> bool:
    """hyperexp(m, n) > x, building no level of the tower above x.

    Levels only grow, and 2**level > x exactly when level >= x.bit_length(),
    so the tower can stop there without building 2**level."""
    for _ in range(m):
        if n >= x.bit_length():
            return True
        n = 2 ** n
    return n > x


#: largest bound a certificate carries as an int
_INT_BOUND_MAX = 2 ** 64 - 1


def _length_bound(m: int, n: int) -> int | dict:
    """The cut-elimination length bound hyperexp(m, n): an int while it is
    below 2**64, otherwise the symbolic ``{"hyperexp": [m, n]}``."""
    if _hyperexp_exceeds(m, n, _INT_BOUND_MAX):
        return {"hyperexp": [m, n]}
    return hyperexp(m, n)


def _within(actual: int, bound: int | dict) -> bool:
    """actual <= bound, for an int or a symbolic hyperexp bound."""
    if isinstance(bound, dict):
        m, n = bound["hyperexp"]
        # actual <= hyperexp(m, n) iff hyperexp(m, n) > actual - 1
        return _hyperexp_exceeds(m, n, actual - 1)
    return actual <= bound


def _cut_rank_of(node: Derivation) -> int:
    pi, oid = node.actives[0]
    return cut_rank(node.premises[pi].conclusion.find(oid)[2].formula)


def _max_cut_rank(d: Derivation) -> int:
    return max(
        (_cut_rank_of(node) for node in d.iter_nodes() if node.rule == "cut"),
        default=0,
    )


def _elim_node(node: Derivation, done, r: int, fuel):
    """Fold step of one rank pass of :func:`eliminate_cuts`: ``node`` over its
    rebuilt premises, with a cut of rank ``r`` reduced to lower rank.  Returns
    (derivation, map from ``node``'s conclusion ids to the derivation's).  A
    node whose premises all come back as themselves is kept as it is, so a
    pass copies no subtree it leaves unchanged."""
    if all(d is p for (d, _), p in zip(done, node.premises)):
        new = node
    else:
        new = _relink(node, [d for d, _ in done], [m for _, m in done])
    if node.rule == "cut" and _cut_rank_of(node) == r:
        return _reduce(new, r - 1, fuel)
    return new, _same_ids(node)


def eliminate_cuts(d: Derivation, system: str) -> TransformResult:
    """Full cut elimination, topmost maximal-rank cuts first, one rank at a
    time.  The output is cut-free, proves the same end sequent, keeps proof
    T-complexity at most the input's, and has length at most hyperexp(m, n)
    (where hyperexp(0, n) = n and hyperexp(j+1, n) = 2^hyperexp(j, n)).
    Each cut is reduced by induction on (tau of the cut formula, rank), so
    a T-cut whose unquoted sentence outranks the pass is reduced too.  The
    occurrence map sends each end-sequent occurrence to its descendant in
    the output."""
    im = compute_measures(d)
    out = d
    occ_map = _same_ids(d)
    fuel = _Fuel(500_000)
    r = _max_cut_rank(out)
    while r > 0:
        out, m = fold(out, lambda node, done: _elim_node(node, done, r, fuel))
        occ_map = {k: m[v] for k, v in occ_map.items()}
        r2 = _max_cut_rank(out)
        if r2 >= r:
            raise TransformError(
                f"cut elimination failed to reduce the maximal rank ({r})"
            )
        r = r2
    return _certify(
        out, system, "eliminateCuts", (im,),
        length=_length_bound(im.cut_rank, im.length),
        cut_rank=0,  # every cut has rank >= 1, so this certifies cut-freeness
        proof_tau=im.proof_tau,
        expect=(d.conclusion.ante_formulas(), d.conclusion.succ_formulas()),
        occ_map=occ_map,
    )
