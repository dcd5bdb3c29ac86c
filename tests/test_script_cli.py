"""Proof-script round-trips and the command-line interface."""

import json
import os
import pathlib
import random
import sys
import time

import pytest

from truthcut import build as B
from truthcut import sexpr
from truthcut.arith import prove_equation, refute_equation
from truthcut.cli import main
from truthcut.coding import encode
from truthcut.kernel import check_derivation
from truthcut.script import (
    ScriptError,
    fingerprint,
    parse_script,
    print_script,
)
from truthcut.sexpr import format_formula, parse_formula
from truthcut.syntax import Eq, Forall, Plus, Times, Var, Zero

from proofgen import chain_numeral, nested_cuts, random_derivation

PINS = pathlib.Path(__file__).parent / "fixpoint_pins"


def _roundtrip(d, system):
    text = print_script(d)
    d2 = parse_script(text)
    assert check_derivation(d2, system).ok
    assert fingerprint(d2) == fingerprint(d)
    return text


def test_roundtrip_random_corpus():
    # [DERIVED] parse(print(d)) is structurally identical for 150 random
    # derivations including truth rules
    rng = random.Random(17)
    for _ in range(150):
        _roundtrip(random_derivation(rng), "lptn")


def test_roundtrip_geometric_and_cuts():
    # [DERIVED]
    _roundtrip(prove_equation([], Plus(chain_numeral(2), chain_numeral(1)),
                              chain_numeral(3), []), "qg")
    _roundtrip(refute_equation([], Times(chain_numeral(2), chain_numeral(2)),
                               chain_numeral(3), []), "qg")
    rng = random.Random(19)
    d = None
    while d is None:
        d = nested_cuts(rng, 2)
    _roundtrip(d, "lptn")


def test_parse_errors():
    # [TRIVIAL]
    with pytest.raises(ScriptError):
        parse_script("garbage\n")
    with pytest.raises(ScriptError):
        parse_script("1: init [2] (= 0 0) => (= 0 0)\n")  # undefined premise
    with pytest.raises(ScriptError):
        parse_script(
            "1: init [] (= 0 0) => (= 0 0)\n"
            "2: init [] (= 0 0) => (= 0 0)\n"
        )  # two roots
    with pytest.raises(ScriptError):
        parse_script(
            "1: init [] (= 0 0) => (= 0 0)\n"
            "2: negl [1] (not (= 0 0)), (= 0 0) =>\n"
            "3: negl [1] (not (= 0 0)), (= 0 0) =>\n"
        )  # premise used twice


def test_comments_and_blank_lines():
    # [TRIVIAL]
    d = parse_script("; header\n\n1: init [] (= 0 0) => (= 0 0) ; tail\n")
    assert check_derivation(d, "lgt").ok


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def proof_file(tmp_path):
    d = prove_equation([], Plus(chain_numeral(1), chain_numeral(1)),
                       chain_numeral(2), [])
    p = tmp_path / "proof.gp"
    p.write_text(print_script(d))
    return str(p)


@pytest.fixture
def cut_file(tmp_path):
    phi = Eq(Zero(), Zero())
    bad = Eq(chain_numeral(0), chain_numeral(1))
    d0 = prove_equation([], Zero(), Zero(), [bad])
    d1 = refute_equation([], chain_numeral(0), chain_numeral(1), [phi])
    cut = B.cut(d0, next(o.id for o in d0.conclusion.succ if o.formula == bad),
                d1, next(o.id for o in d1.conclusion.ante if o.formula == bad))
    p = tmp_path / "cut.gp"
    p.write_text(print_script(cut))
    return str(p)


def test_cli_check_valid(proof_file, capsys):
    assert main(["check", proof_file, "--system", "qg"]) == 0
    assert "VALID" in capsys.readouterr().out


def test_cli_check_invalid(tmp_path, capsys):
    p = tmp_path / "bad.gp"
    p.write_text("1: init [] (T (quote (= 0 0))) => (T (quote (= 0 0)))\n")
    assert main(["check", str(p), "--system", "lgt"]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "REF_MINUS_T_PRINCIPAL" in out


def test_cli_check_json(proof_file, capsys):
    assert main(["--json", "check", proof_file, "--system", "qg"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True


def test_cli_check_several_files(proof_file, tmp_path, capsys):
    # [DERIVED] several scripts get one verdict each, in order; the verb
    # fails when any is invalid
    good, bad = tmp_path / "good.gp", tmp_path / "bad.gp"
    good.write_text("1: init [] (= 0 0) => (= 0 0)\n")
    bad.write_text("1: init [] (T (quote (= 0 0))) => (T (quote (= 0 0)))\n")
    assert main(["check", proof_file, proof_file, "--system", "qg"]) == 0
    assert capsys.readouterr().out == f"{proof_file}: VALID\n" * 2
    assert main(["check", str(good), str(bad), "--system", "lgt"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"{good}: VALID", f"{bad}: INVALID"]
    assert lines[2].startswith("  [REF_MINUS_T_PRINCIPAL]") and len(lines) == 3
    assert main(["--json", "check", str(good), str(bad), "--system", "lgt"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert [(f["file"], f["valid"]) for f in payload["files"]] == \
        [(str(good), True), (str(bad), False)]
    assert payload["files"][1]["violations"][0]["code"] == "REF_MINUS_T_PRINCIPAL"


def test_cli_check_names_the_script_it_cannot_read(proof_file, tmp_path, capsys):
    # [DERIVED] among several scripts, a parse error names its file
    bad = tmp_path / "bad.gp"
    bad.write_text("1: init [] (= 0 0) => (= 0 0)\n2: nope\n")
    assert main(["check", proof_file, str(bad)]) == 2
    assert capsys.readouterr().err == f"parse error: {bad}: line 2: malformed line: '2: nope'\n"


def test_cli_check_goes_on_past_a_file_it_cannot_read(proof_file, tmp_path, capsys):
    # [DERIVED] each unreadable or unparsable file gets its one error line
    # and an error entry; the files after it are still checked, and the
    # verb exits 2
    bad, missing = tmp_path / "bad.gp", tmp_path / "missing.gp"
    bad.write_text("2: nope\n")
    files = [str(bad), proof_file, str(missing), proof_file]
    assert main(["check", *files, "--system", "qg"]) == 2
    out, err = capsys.readouterr()
    assert out == f"{proof_file}: VALID\n" * 2
    errors = err.splitlines()
    assert errors[0] == f"parse error: {bad}: line 1: malformed line: '2: nope'"
    assert errors[1].startswith("file error: ") and str(missing) in errors[1]
    assert len(errors) == 2
    assert main(["--json", "check", *files, "--system", "qg"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert [f.get("error") for f in payload["files"]] == [errors[0], None, errors[1], None]
    assert [f["file"] for f in payload["files"]] == files


def test_cli_check_reads_a_text_shared_by_several_scripts_once(monkeypatch, tmp_path, capsys):
    # [DERIVED] one check of several scripts reads each distinct formula
    # text once, however many scripts restate it
    monkeypatch.setattr(sexpr, "_cache", {})
    monkeypatch.setattr(sexpr, "_cached_chars", 0)
    files, per_file, corpus = [], 0, set()
    for k in range(3):
        d = prove_equation([], Plus(chain_numeral(2), chain_numeral(k)),
                           chain_numeral(2 + k), [])
        text = print_script(d)
        p = tmp_path / f"sum{k}.gp"
        p.write_text(text)
        files.append(str(p))
        texts = {piece.strip() for line in text.splitlines()
                 for side in line.split("] ", 1)[1].split("=>")
                 for piece in side.split(",") if piece.strip()}
        per_file += len(texts)
        corpus |= texts
    assert per_file > len(corpus)
    reads = []
    read_whole = sexpr._read_whole
    monkeypatch.setattr(sexpr, "_read_whole",
                        lambda tokens, sort: reads.append(tokens) or read_whole(tokens, sort))
    assert main(["check", *files, "--system", "qg"]) == 0
    assert len(reads) == len(corpus)


def test_cli_measures(proof_file, capsys):
    assert main(["measures", proof_file, "--system", "qg"]) == 0
    out = capsys.readouterr().out
    assert "length" in out and "cut rank" in out and "tau" in out


def test_cli_elim(cut_file, tmp_path, capsys):
    out_file = tmp_path / "free.gp"
    assert main(["elim", cut_file, "--system", "qg", "--out", str(out_file)]) == 0
    assert "CUT-FREE" in capsys.readouterr().out
    d = parse_script(out_file.read_text(encoding="utf-8"))
    assert check_derivation(d, "qg").ok
    assert all(n.rule != "cut" for n in d.iter_nodes())


def test_cli_search_found(capsys):
    rc = main(["search", "=> (= (S 0) (S 0))", "--system", "qg"])
    assert rc == 0
    assert "PROVED" in capsys.readouterr().out


def test_cli_search_exhausted(capsys):
    rc = main(["search", "=>", "--system", "lptn",
               "--depth", "4", "--terms", "2", "--tau", "2"])
    assert rc == 1
    assert "EXHAUSTED" in capsys.readouterr().out


def test_cli_fixpoint(capsys):
    # [DERIVED] human and --json output are pinned byte for byte: truth
    # ascriptions, a syntax-function term, the liar and a quantified sentence
    for name in ("truth", "liar"):
        seeds = PINS / f"{name}.seeds"
        for flags, suffix in (([], "out"), (["--json"], "json")):
            assert main([*flags, "fixpoint", "--seed", str(seeds),
                         "--term-bound", "2"]) == 0
            expected = (PINS / f"{name}.{suffix}").read_text(encoding="utf-8")
            assert capsys.readouterr().out == expected


def test_cli_fixpoint_code_size_cap(tmp_path, capsys):
    # [DERIVED] a truth tower built by `tr` used to run for ever; the capped
    # evaluation leaves the seed ungrounded and the verb exits 0
    seeds = tmp_path / "tower.txt"
    seeds.write_text("(T (tr (quote (= 0 0)) 30))\n")
    assert main(["fixpoint", "--seed", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "stage 0: 0 members" in out and "ungrounded:" in out


def test_cli_fixpoint_capturing_sub(tmp_path, capsys):
    # [DERIVED] a `sub` whose substitution would capture used to end the
    # verb in a CaptureError traceback; now the seed is ungrounded, exit 0
    codes = [encode(Forall("y", Eq(Var("x"), Var("y")))), encode(Var("x")),
             encode(Var("y"))]
    seeds = tmp_path / "capture.txt"
    seeds.write_text("(= (sub {} {} {}) 0)\n".format(*codes))
    assert main(["fixpoint", "--seed", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "stage 0: 0 members" in out and "ungrounded:" in out


#: diag_code((= 0 0), "v"): a DIAG code whose variable is not free
_VACUOUS_DIAG = 43039579506


def test_cli_check_refuses_a_vacuous_diagonal_numeral(tmp_path, capsys):
    # [DERIVED] the code used to decode to (= 0 0), whose code is 391, so
    # Tr accepted (T 43039579506) as the truth of (= 0 0)
    p = tmp_path / "vacuous.gp"
    p.write_text("1: init [] (= 0 0) => (= 0 0)\n"
                 f"2: Tr [1] (= 0 0) => (T {_VACUOUS_DIAG})\n")
    assert main(["check", str(p), "--system", "lptn"]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "NUMERAL_DECODE_MISMATCH" in out


def test_cli_fixpoint_leaves_a_vacuous_diagonal_numeral_ungrounded(tmp_path, capsys):
    # [DERIVED] the norms used to list (= 0 0) under #43039579506
    seeds = tmp_path / "vacuous.txt"
    seeds.write_text(f"(T {_VACUOUS_DIAG})\n(not (T {_VACUOUS_DIAG}))\n")
    assert main(["fixpoint", "--seed", str(seeds)]) == 0
    out = capsys.readouterr().out
    norms, ungrounded = out.split("norms:\n")[1].split("ungrounded:\n")
    assert out.startswith("universe: 2 sentence codes\n")
    assert norms == "" and "(= 0 0)" not in out
    assert ungrounded.count("\n") == 2
    assert f"  (T {_VACUOUS_DIAG})\n" in ungrounded
    assert f"  (not (T {_VACUOUS_DIAG}))\n" in ungrounded


def test_cli_liar(capsys):
    assert main(["liar", "--depth", "5", "--terms", "2", "--tau", "3"]) == 0
    out = capsys.readouterr().out
    assert "EXHAUSTED" in out and "grounded: False" in out


def test_cli_builds_only_the_fixpoint_output_it_prints(monkeypatch, capsys):
    # [DERIVED] the human lines and the --json payload each write every code
    # out in decimal, which dominates at large term bounds; fixpoint and liar
    # build only the one they print, and fixpoint's stays as pinned
    import truthcut.cli as cli

    def refuse(fp):
        raise AssertionError("built an output that is not printed")

    seeds = PINS / "liar.seeds"
    for flags, suffix, unused in (([], "out", "_fixpoint_payload"),
                                  (["--json"], "json", "_fixpoint_lines")):
        with monkeypatch.context() as m:
            m.setattr(cli, unused, refuse)
            assert main([*flags, "fixpoint", "--seed", str(seeds),
                         "--term-bound", "2"]) == 0
        expected = (PINS / f"liar.{suffix}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected
    monkeypatch.setattr(cli, "_fixpoint_payload", refuse)
    assert main(["liar", "--depth", "5", "--terms", "2", "--tau", "3"]) == 0
    assert "grounded: False" in capsys.readouterr().out


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.gp"), "--system", "lgt"]) == 2
    assert main(["check"]) == 2
    bad = tmp_path / "bad.gp"
    bad.write_text("not a script\n")
    assert main(["check", str(bad), "--system", "lgt"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "DIR"],
    ["check", "BYTES"],
    ["fixpoint", "--seed", "DIR"],
    ["fixpoint", "--seed", "BYTES"],
    ["elim", "CUT", "--out", "DIR"],
], ids=["check-dir", "check-bytes", "fixpoint-dir", "fixpoint-bytes", "elim-out-dir"])
def test_cli_file_errors_are_one_line(argv, cut_file, tmp_path, capsys):
    # [DERIVED] a directory or a file of non-UTF-8 bytes, named as an input
    # or an output, ended in an IsADirectoryError or UnicodeDecodeError
    # traceback with exit 1; each is now one file error line with exit 2,
    # which names the file (a non-UTF-8 one was not named)
    raw = tmp_path / "raw.gp"
    raw.write_bytes(b"1: init [] \xff\xfe => \n")
    names = {"DIR": str(tmp_path), "BYTES": str(raw), "CUT": cut_file}
    assert main([names.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert repr(names[[a for a in argv if a in names][-1]]) in err


@pytest.mark.parametrize("argv", [
    ["search", "=> (= 0 0)", "--depth", "-1"],
    ["search", "=> (= 0 0)", "--terms", "-1"],
    ["search", "=> (= 0 0)", "--tau", "-1"],
    ["liar", "--depth", "-1"],
    ["liar", "--term-bound", "-3"],
    ["fixpoint", "--seed", "SEEDS", "--term-bound", "-3"],
    ["fixpoint", "--seed", "SEEDS", "--max-size", "many"],
])
def test_cli_budgets_must_be_non_negative(argv, capsys):
    # [DERIVED] a negative search budget ended in a ValueError traceback and
    # a negative term bound was accepted; each is now one usage line
    argv = [str(PINS / "truth.seeds") if a == "SEEDS" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --") and err.count("\n") == 1


def test_cli_compositional_flag(tmp_path, capsys):
    d0 = prove_equation([], Zero(), Zero(), [])
    d1 = prove_equation([], chain_numeral(1), chain_numeral(1), [])
    comp = B.comp_node(d0, d0.conclusion.succ[0].id,
                       d1, d1.conclusion.succ[0].id)
    p = tmp_path / "comp.gp"
    p.write_text(print_script(comp))
    assert main(["check", str(p), "--system", "lptn"]) == 1
    assert main(["check", str(p), "--system", "lptn", "--compositional"]) == 0


def test_cli_deep_proof_exits_cleanly(capsys):
    # [DERIVED] the 391-node refutation of 8*8=65, taller than the recursion
    # limit, is measured and printed by the explicit-stack walks
    eq = Eq(Times(chain_numeral(8), chain_numeral(8)), chain_numeral(65))
    seq = f"{format_formula(eq)} =>"
    assert main(["search", seq, "--system", "qg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PROVED\n") and out.count("\n") == 392


def test_cli_deep_seed_exits_cleanly(tmp_path, capsys):
    # [DERIVED] a 1500-deep formula overflows the s-expression reader; the
    # CLI reports it in one line with exit 1
    seeds = tmp_path / "deep.txt"
    seeds.write_text("(not " * 1500 + "(= 0 0)" + ")" * 1500 + "\n")
    assert main(["fixpoint", "--seed", str(seeds)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "recursion" in err


def test_cli_elim_rank5_cut(tmp_path, capsys):
    # [DERIVED] the rank-5 cut whose hyperexp(5, 2) bound used to hang `elim`
    neg4 = "(not (not (not (not (= 0 0)))))"
    p = tmp_path / "rank5.gp"
    p.write_text(f"1: init [] (= 0 0) => (= 0 0), {neg4}\n"
                 f"2: eq1 [1] => (= 0 0), {neg4}\n"
                 f"3: init [] {neg4}, (= 0 0) => (= 0 0)\n"
                 f"4: eq1 [3] {neg4} => (= 0 0)\n"
                 "5: cut [2, 4] => (= 0 0)\n")
    assert main(["elim", str(p), "--system", "qg"]) == 0
    assert "check length: 1 <= hyperexp(5, 2) ok" in capsys.readouterr().out


def _nested_truth_seed(depth):
    seed = "(= 0 0)"
    for _ in range(depth):
        seed = f"(T (quote {seed}))"
    return seed


def test_cli_fixpoint_prints_codes_past_digit_limit(tmp_path, capsys):
    # [DERIVED] six nested truth ascriptions have a 31274-bit code, past
    # CPython's 4300-digit int-to-str limit; both outputs print it in full
    seeds = tmp_path / "tower.txt"
    seeds.write_text(_nested_truth_seed(6) + "\n")
    code = encode(parse_formula(_nested_truth_seed(6)))
    assert code.bit_length() == 31274
    limit = sys.get_int_max_str_digits()
    assert main(["fixpoint", "--seed", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "stage 6: 7 members" in out
    assert main(["--json", "fixpoint", "--seed", str(seeds)]) == 0
    text = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert f"#{code}  " in out
        payload = json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in payload["members"] and len(payload["members"]) == 7


def test_cli_fixpoint_large_non_code_argument(tmp_path, capsys):
    # [DERIVED] negdot of a 62k-bit term code used to crash while formatting
    # the DecodeError message; the sentence is now reported ungrounded
    seeds = tmp_path / "negdot.txt"
    seeds.write_text("(T (negdot (num (tr (quote (= 0 0)) 5))))\n")
    assert main(["fixpoint", "--seed", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "stage 0: 0 members" in out and "ungrounded:" in out


def test_cli_check_oversized_numeral(tmp_path, capsys):
    # [DERIVED] a 5000-digit literal is a parse error (exit 2, one line)
    p = tmp_path / "big.gp"
    big = "9" * 5000
    p.write_text(f"1: init [] (= 0 {big}) => (= 0 {big})\n")
    assert main(["check", str(p), "--system", "qg"]) == 2
    err = capsys.readouterr().err
    assert err == ("parse error: line 1: at token 3: numeral literal of 5000 "
                   "digits is too long to read\n")


def test_cli_kernel_messages_past_digit_limit(tmp_path, capsys):
    # [DERIVED] eight nested truth ascriptions carry a 125092-bit code, past
    # CPython's 4300-digit int-to-str limit: an init on it is refused with
    # its reason code and the numeral named by bit length (it used to end in
    # a traceback), and andl matching never formats the formulas at all
    phi = _nested_truth_seed(8)
    bad = tmp_path / "init.gp"
    bad.write_text(f"1: init [] {phi} => {phi}\n")
    ok = tmp_path / "andl.gp"
    ok.write_text(f"1: init [] (= 0 0), {phi} => (= 0 0)\n"
                  f"2: andl [1] (and (= 0 0) {phi}) => (= 0 0)\n")
    start = time.perf_counter()
    for argv in (["check", str(bad), "--system", "lgt"],
                 ["check", str(bad), "--system", "lptn"],
                 ["measures", str(bad)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "INVALID",
            "[REF_MINUS_T_PRINCIPAL] at root: initial sequent principal must "
            "be an atomic T-free equation, got "
            "Tr(term=Num(value=<125092-bit number>))",
        ]
        assert err == ""
    assert main(["check", str(ok), "--system", "lptn"]) == 0
    assert capsys.readouterr().out.startswith("VALID")
    assert time.perf_counter() - start < 1.0


def _andl_past_digit_limit(tmp_path):
    """A valid script whose formulas hold a 125092-bit numeral."""
    phi = _nested_truth_seed(8)
    p = tmp_path / "andl.gp"
    p.write_text(f"1: init [] (= 0 0), {phi} => (= 0 0)\n"
                 f"2: andl [1] (and (= 0 0) {phi}) => (= 0 0)\n")
    return str(p)


def test_cli_measures_past_digit_limit(tmp_path, capsys):
    # [DERIVED] printing such a formula used to end in a ValueError
    # traceback; both outputs now name the numeral by its bit length
    path = _andl_past_digit_limit(tmp_path)
    start = time.perf_counter()
    assert main(["measures", path]) == 0
    out = capsys.readouterr().out
    assert "root [andl] (and (= 0 0) (T <125092-bit number>)) => (= 0 0)" in out
    assert main(["--json", "measures", path]) == 0
    nodes = json.loads(capsys.readouterr().out)["nodes"]
    assert nodes[1]["sequent"] == "(T <125092-bit number>), (= 0 0) => (= 0 0)"
    assert time.perf_counter() - start < 1.0


def test_cli_elim_past_digit_limit(tmp_path, capsys):
    # [DERIVED] elim prints the labelled script, but refuses to write one
    # the reader would not read back: exit 1, one line, no file
    path = _andl_past_digit_limit(tmp_path)
    out_file = tmp_path / "out.gp"
    start = time.perf_counter()
    assert main(["elim", path]) == 0
    out = capsys.readouterr().out
    assert out.endswith("2: andl [1] (and (= 0 0) (T <125092-bit number>)) "
                        "=> (= 0 0)\n")
    assert main(["--json", "elim", path]) == 0
    assert "<125092-bit number>" in json.loads(capsys.readouterr().out)["script"]
    assert main(["elim", path, "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"cannot write {out_file}: a numeral is too "
                                 "long to print in decimal\n")
    assert not out_file.exists()
    assert time.perf_counter() - start < 1.0


def test_python_dash_m_runs_the_cli(tmp_path):
    # [DERIVED] `python -m truthcut` is the `truthcut` command
    import subprocess

    import truthcut

    env = dict(os.environ)
    src = str(pathlib.Path(truthcut.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    p = tmp_path / "proof.gp"
    p.write_text("1: init [] (= 0 0) => (= 0 0)\n")
    run = subprocess.run([sys.executable, "-m", "truthcut", "check", str(p), "--system", "lgt"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0 and run.stdout.startswith("VALID")
    run = subprocess.run([sys.executable, "-m", "truthcut", "check"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2 and run.stderr.startswith("usage error:")
