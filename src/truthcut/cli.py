"""Command-line interface.

Verbs: ``check``, ``measures``, ``elim``, ``search``, ``fixpoint``, ``liar``.
Exit status: 0 on success/valid, 1 on violations/exhausted/bound failures
and on inputs too deep or too large to process, 2 on usage or parse errors
and when a named file cannot be read or written.
``--json`` switches every verb to structured output on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from .coding import LABEL_END, encode, liar
from .deriv import compute_measures
from .kernel import SYSTEMS, check_derivation
from .script import ScriptError, parse_script, print_script
from .search import SearchBudget, search_cut_free
from .semantics import (
    UniverseError,
    build_universe,
    least_fixed_point,
)
from .sexpr import ParseError, format_formula, format_sequent, parse_formula, parse_sequent
from .syntax import Not
from .transform import CertificateError, TransformError, eliminate_cuts

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human + "\n")


def _read_text(path: str) -> str:
    """The text of the input file ``path``.  Every named input is read here,
    so a file that is not UTF-8 is a file error that names it, as the
    ``OSError`` of a missing or unreadable one does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OSError(f"{path!r}: {e}") from None


def _load_script(path: str):
    return parse_script(_read_text(path))


def _system(args) -> str:
    system = args.system
    if getattr(args, "compositional", False):
        if system not in ("lptn", "lptn_comp"):
            raise SystemExit2(
                "--compositional applies to the arithmetical truth system"
            )
        system = "lptn_comp"
    return system


class SystemExit2(Exception):
    """Usage-level error (exit status 2)."""


# ---------------------------------------------------------------------------
# Verbs


def _violations(report) -> list[dict]:
    return [{"path": list(v.path), "code": v.code, "message": v.message}
            for v in report.violations]


def _cmd_check(args) -> int:
    """Check each named script in turn, in one process, so that formulas the
    scripts share are read once (:mod:`~.sexpr`'s formula-text cache).  One
    file prints its verdict alone; several print one verdict per file.  Among
    several, a file that cannot be read or parsed gets its one error line on
    stderr, naming it, and the verb goes on; it then exits 2."""
    system = _system(args)
    if len(args.files) == 1:
        report = check_derivation(_load_script(args.files[0]), system)
        _emit(args, {"verb": "check", "system": system, "valid": report.ok,
                     "violations": _violations(report)},
              "\n".join(["VALID" if report.ok else "INVALID", *map(str, report.violations)]))
        return EXIT_OK if report.ok else EXIT_FAIL
    files, lines = [], []
    for path in args.files:
        try:
            report = check_derivation(_load_script(path), system)
        except (ScriptError, ParseError) as e:
            error = f"parse error: {path}: {e}"
        except OSError as e:
            error = f"file error: {e}"
        else:
            files.append({"file": path, "valid": report.ok,
                          "violations": _violations(report)})
            lines.append(f"{path}: {'VALID' if report.ok else 'INVALID'}")
            lines.extend(f"  {v}" for v in report.violations)
            continue
        sys.stderr.write(error + "\n")
        files.append({"file": path, "error": error})
    valid = all(f.get("valid") for f in files)
    _emit(args, {"verb": "check", "system": system, "valid": valid,
                 "files": files}, "\n".join(lines))
    if any("error" in f for f in files):
        return EXIT_USAGE
    return EXIT_OK if valid else EXIT_FAIL


def _load_valid(args, verb: str):
    """The script's derivation and system, or None after reporting it
    INVALID, for a verb that needs a valid derivation."""
    d = _load_script(args.file)
    system = _system(args)
    report = check_derivation(d, system)
    if report.ok:
        return d, system
    violations = [str(v) for v in report.violations]
    _emit(args, {"verb": verb, "system": system, "valid": False,
                 "violations": violations}, "\n".join(["INVALID"] + violations))
    return None


def _cmd_measures(args) -> int:
    loaded = _load_valid(args, "measures")
    if loaded is None:
        return EXIT_FAIL
    d, system = loaded
    m = compute_measures(d)
    nodes = []
    for path, node in d.iter_paths():
        occs = {
            str(o.id): m.tau[o.id]
            for o in node.conclusion.ante + node.conclusion.succ
        }
        nodes.append({
            "path": list(path),
            "rule": node.rule,
            "sequent": format_sequent(
                node.conclusion.ante_formulas(), node.conclusion.succ_formulas()
            ),
            "tau": occs,
        })
    payload = {
        "verb": "measures",
        "system": system,
        "length": m.length,
        "cut_rank": m.cut_rank,
        "proof_tau": m.proof_tau,
        "nodes": nodes,
    }
    lines = [
        f"length    n = {m.length}",
        f"cut rank  m = {m.cut_rank}",
        f"proof tau k = {m.proof_tau}",
    ]
    for entry in nodes:
        where = "/".join(map(str, entry["path"])) or "root"
        taus = " ".join(f"{i}:{t}" for i, t in entry["tau"].items())
        lines.append(f"{where} [{entry['rule']}] {entry['sequent']}  tau {taus}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_elim(args) -> int:
    loaded = _load_valid(args, "elim")
    if loaded is None:
        return EXIT_FAIL
    d, system = loaded
    try:
        result = eliminate_cuts(d, system)
    except (TransformError, CertificateError) as e:
        _emit(args, {"verb": "elim", "system": system, "error": str(e)},
              f"ELIMINATION FAILED: {e}")
        return EXIT_FAIL
    out_text = print_script(result.derivation)
    if args.out:
        if LABEL_END in out_text:  # a numeral the reader would refuse
            sys.stderr.write(f"cannot write {args.out}: a numeral is too "
                             "long to print in decimal\n")
            return EXIT_FAIL
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out_text)
    cert = result.certificate.as_dict()
    payload = {
        "verb": "elim",
        "system": system,
        "certificate": cert,
        "output_file": args.out,
        "script": None if args.out else out_text,
    }
    lines = ["CUT-FREE", f"certificate: {cert['description']}"]
    for t in cert["input_measures"]:
        lines.append(f"  input  (n, m, k) = {tuple(t)}")
    lines.append(f"  output (n, m, k) = {tuple(cert['output_measures'])}")
    for c in cert["checks"]:
        verdict = "ok" if c["ok"] else "VIOLATED"
        bound = c["bound"]
        if isinstance(bound, dict):  # symbolic: too large to print
            bound = "hyperexp({}, {})".format(*bound["hyperexp"])
        lines.append(f"  check {c['name']}: {c['actual']} <= {bound} {verdict}")
    if args.out:
        lines.append(f"written to {args.out}")
    else:
        lines.append(out_text.rstrip("\n"))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_search(args) -> int:
    ante, succ = parse_sequent(args.sequent)
    system = _system(args)
    result = search_cut_free(ante, succ, _budget(args), system)
    if result.found:
        m = compute_measures(result.derivation)
        text = print_script(result.derivation)
        _emit(args, {
            "verb": "search", "system": system, "found": True,
            "length": m.length, "script": text,
        }, "PROVED\n" + text.rstrip("\n"))
        return EXIT_OK
    frontier = [format_sequent(a, s) for a, s in result.frontier]
    _emit(args, {
        "verb": "search", "system": system, "found": False,
        "frontier": frontier,
    }, "\n".join(["EXHAUSTED"] + [f"  open: {g}" for g in frontier]))
    return EXIT_FAIL


def _read_seed_file(path: str):
    out = []
    for raw in _read_text(path).split("\n"):
        line = raw.split(";", 1)[0].strip()
        if line:
            out.append(parse_formula(line))
    return out


@contextlib.contextmanager
def _full_codes():
    """Lift CPython's int-to-str digit limit, where it has one, while codes
    are written out, so codes past 4300 digits print in full."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _fixpoint_rows(fp):
    """(code, sentence, norm) of each sentence of the universe, by code."""
    u = fp.universe
    return sorted(((u.code(i), phi, fp.stage_of[i]) for i, phi in enumerate(u.order)),
                  key=lambda row: row[0])


def _fixpoint_payload(fp):
    rows = _fixpoint_rows(fp)
    return {
        "universe_size": len(rows),
        "saturation_index": fp.saturation_index,
        "stages": [sorted(s) for s in fp.stages],
        "members": [c for c, _, n in rows if n is not None],
        "norms": {str(c): n for c, _, n in rows if n is not None},
    }


def _fixpoint_lines(fp):
    rows = _fixpoint_rows(fp)
    lines = [
        f"universe: {len(rows)} sentence codes",
        f"saturated after stage {fp.saturation_index}",
    ]
    for i, size in enumerate(itertools.accumulate(map(len, fp.entered))):
        lines.append(f"stage {i}: {size} members")
    lines.append("norms:")
    for c, phi, n in rows:
        if n is not None:
            lines.append(f"  {n:3d}  #{c}  {format_formula(phi)}")
    ungrounded = [(c, phi) for c, phi, _ in rows if not fp.grounded(phi)]
    if ungrounded:
        lines.append("ungrounded:")
        for c, phi in ungrounded:
            lines.append(f"       #{c}  {format_formula(phi)}")
    return lines


def _cmd_fixpoint(args) -> int:
    seeds = _read_seed_file(args.seed)
    try:
        universe = build_universe(seeds, args.term_bound, args.max_size)
    except UniverseError as e:
        _emit(args, {"verb": "fixpoint", "error": str(e)}, f"UNIVERSE ERROR: {e}")
        return EXIT_FAIL
    fp = least_fixed_point(universe)
    with _full_codes():  # only the output printed is built
        if args.json:
            _emit(args, {"verb": "fixpoint", **_fixpoint_payload(fp)}, "")
        else:
            _emit(args, {}, "\n".join(_fixpoint_lines(fp)))
    return EXIT_OK


def _cmd_liar(args) -> int:
    lam = liar()
    code = encode(lam)
    budget = _budget(args)
    r_right = search_cut_free([], [lam], budget, "lptn")
    r_left = search_cut_free([lam], [], budget, "lptn")
    universe = build_universe([lam], args.term_bound)
    fp = least_fixed_point(universe)
    in_fp = fp.is_member(lam)
    neg_in_fp = fp.is_member(Not(lam))
    payload = {
        "verb": "liar",
        "code": code,
        "sentence": format_formula(lam),
        "search_right_found": r_right.found,
        "search_left_found": r_left.found,
        "in_fixed_point": in_fp,
        "negation_in_fixed_point": neg_in_fp,
        "grounded": in_fp or neg_in_fp,
        "fixpoint": _fixpoint_payload(fp) if args.json else None,
    }
    lines = [
        f"liar sentence: {format_formula(lam)}",
        f"code: {code}",
        f"search  => liar : {'PROVED' if r_right.found else 'EXHAUSTED'}",
        f"search liar =>  : {'PROVED' if r_left.found else 'EXHAUSTED'}",
        f"liar in fixed point: {in_fp}",
        f"negation in fixed point: {neg_in_fp}",
        f"grounded: {in_fp or neg_in_fp}",
    ]
    ok = (not r_right.found and not r_left.found
          and not in_fp and not neg_in_fp)
    lines.append("ungrounded and underivable on both sides"
                 if ok else "UNEXPECTED: liar behaved as grounded or derivable")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit2(message)


def _count(text: str) -> int:
    """Type of the budget and bound options: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def _budget(args) -> SearchBudget:
    """The search budget of the options ``add_budget`` adds."""
    return SearchBudget(
        max_depth=args.depth, max_term_index=args.terms, max_tau_unfold=args.tau
    )


def _make_parser() -> _Parser:
    p = _Parser(prog="truthcut", description=__doc__)
    p.add_argument("--json", action="store_true", help="structured output")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_system(sp, default="lptn"):
        sp.add_argument("--system", choices=SYSTEMS, default=default)
        sp.add_argument(
            "--compositional", action="store_true",
            help="enable the pointwise compositional rule",
        )

    def add_budget(sp):
        sp.add_argument("--depth", type=_count, default=12)
        sp.add_argument("--terms", type=_count, default=8)
        sp.add_argument("--tau", type=_count, default=6)

    sp = sub.add_parser("check", help="validate proof scripts")
    sp.add_argument("files", nargs="+", metavar="file")
    add_system(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("measures", help="length, cut rank, and tau annotations")
    sp.add_argument("file")
    add_system(sp)
    sp.set_defaults(func=_cmd_measures)

    sp = sub.add_parser("elim", help="eliminate cuts, with certificate")
    sp.add_argument("file")
    sp.add_argument("--out", default=None)
    add_system(sp)
    sp.set_defaults(func=_cmd_elim)

    sp = sub.add_parser("search", help="bounded backward cut-free search")
    sp.add_argument("sequent")
    add_system(sp)
    add_budget(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("fixpoint", help="finite-stage fixed point of truth")
    sp.add_argument("--seed", required=True, help="file with one sentence per line")
    sp.add_argument("--term-bound", type=_count, default=4)
    sp.add_argument("--max-size", type=_count, default=5000)
    sp.set_defaults(func=_cmd_fixpoint)

    sp = sub.add_parser("liar", help="diagonal sentence demo")
    add_budget(sp)
    sp.add_argument("--term-bound", type=_count, default=2)
    sp.set_defaults(func=_cmd_liar)

    return p


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (ScriptError, ParseError) as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_USAGE
    except OSError as e:  # reading or writing a file
        sys.stderr.write(f"file error: {e}\n")
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("input too deeply nested: Python recursion limit reached\n")
        return EXIT_FAIL
    except MemoryError:
        sys.stderr.write("out of memory\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
