"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public truthcut functions, at the module
attributes the package calls them through, by wrappers that record a span
(name, start, end, parent span, op id, exception type) and a small payload
taken in O(1).  ``uninstall`` puts the originals back.  Spans stay in memory;
``layer_metrics`` turns one traced pass's spans into the per-layer metrics
and ``dump`` writes every span out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

import reference as ref

# span name -> (module attributes wrapped under that name, payload taker).
# A function the package calls under another module's name is wrapped there
# too: transform re-checks through ``transform.check_derivation`` and
# ``transform.compute_measures``; coding is timed only as semantics calls it.
WRAPPED = {
    "parse_script": (("truthcut.script",), lambda a, r: a[0]),
    "print_script": (("truthcut.script",), None),
    "prove_equation": (("truthcut.arith",), None),
    "refute_equation": (("truthcut.arith",), None),
    "check_derivation": (("truthcut.kernel", "truthcut.transform"), lambda a, r: a[0]),
    "compute_measures": (("truthcut.deriv", "truthcut.transform"), None),
    "eliminate_cuts": (("truthcut.transform",),
                       lambda a, r: (a[0], None if r is None else r.derivation)),
    "weaken": (("truthcut.transform",), None),
    "search_cut_free": (("truthcut.search",), lambda a, r: r is not None and r.found),
    "build_universe": (("truthcut.semantics",), lambda a, r: None if r is None else len(r.codes)),
    "least_fixed_point": (("truthcut.semantics",), lambda a, r: None if r is None else len(r.stages)),
    "check_transparency": (("truthcut.semantics",), None),
    "check_consistency": (("truthcut.semantics",), None),
    "encode": (("truthcut.semantics",), lambda a, r: None if r is None else r.bit_length()),
    "decode_sentence": (("truthcut.semantics",), lambda a, r: a[0].bit_length()),
}

# span fields
NAME, START, END, PARENT, OP, ERROR, PAYLOAD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._op, None, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, payload):
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                self._close(span)
                if payload is not None:
                    span[PAYLOAD] = payload(args, result)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, (modules, payload) in WRAPPED.items():
            for modname in modules:
                module = importlib.import_module(modname)
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn, payload))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    @contextlib.contextmanager
    def root(self, name, op_id):
        """A root span (``op`` or ``setup``) whose descendants carry ``op_id``."""
        self._op = op_id
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "error": s[ERROR],
                }) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, first: int) -> dict:
    """Per-layer metrics from spans[first:], the spans of one traced pass
    (its input generation included).  Times are seconds summed over the
    pass; a layer the pass never called reads 0."""
    own = spans[first:]
    child = [0.0] * len(own)
    for s in own:
        if s[PARENT] >= first:
            child[s[PARENT] - first] += s[END] - s[START]
    time_in: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in own:
        time_in[s[NAME]] = time_in.get(s[NAME], 0.0) + s[END] - s[START]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def named(name):
        return [s for s in own if s[NAME] == name]

    parse_bytes = sum(len(s[PAYLOAD].encode()) for s in named("parse_script"))
    kernel_nodes = sum(ref.tree_facts(s[PAYLOAD])[0] for s in named("check_derivation"))
    elims = named("eliminate_cuts")
    elim_self = sum(s[END] - s[START] - child[i] for i, s in enumerate(own)
                    if s[NAME] == "eliminate_cuts")
    searches = named("search_cut_free")
    bits = [s[PAYLOAD] for s in own
            if s[NAME] in ("encode", "decode_sentence") and s[PAYLOAD] is not None]
    t = time_in.get
    c = calls.get
    return {
        "script.parse_s": t("parse_script", 0.0),
        "script.bytes_per_s": _ratio(parse_bytes, t("parse_script", 0.0)),
        "script.print_s": t("print_script", 0.0),
        "arith.build_s": t("prove_equation", 0.0) + t("refute_equation", 0.0),
        "kernel.check_s": t("check_derivation", 0.0),
        "kernel.check_calls": c("check_derivation", 0),
        "kernel.nodes_per_s": _ratio(kernel_nodes, t("check_derivation", 0.0)),
        "deriv.measures_s": t("compute_measures", 0.0),
        "deriv.measures_calls": c("compute_measures", 0),
        "transform.elim_s": t("eliminate_cuts", 0.0),
        "transform.elim_self_s": elim_self,
        "transform.weaken_s": t("weaken", 0.0),
        "transform.weaken_calls": c("weaken", 0),
        "transform.ok_ratio": _ratio(sum(s[ERROR] is None for s in elims), len(elims)),
        "transform.nodes_in": sum(ref.tree_facts(s[PAYLOAD][0])[0] for s in elims),
        "transform.nodes_out": sum(ref.tree_facts(s[PAYLOAD][1])[0] for s in elims
                                   if s[PAYLOAD][1] is not None),
        "search.search_s": t("search_cut_free", 0.0),
        "search.calls": len(searches),
        "search.found_ratio": _ratio(sum(bool(s[PAYLOAD]) for s in searches), len(searches)),
        "search.build_errors": sum(s[ERROR] == "BuildError" for s in searches),
        "semantics.universe_s": t("build_universe", 0.0),
        "semantics.lfp_s": t("least_fixed_point", 0.0),
        "semantics.checks_s": t("check_transparency", 0.0) + t("check_consistency", 0.0),
        "semantics.universe_size": sum(s[PAYLOAD] or 0 for s in named("build_universe")),
        "semantics.stages": sum(s[PAYLOAD] or 0 for s in named("least_fixed_point")),
        "coding.encode_s": t("encode", 0.0),
        "coding.encode_calls": c("encode", 0),
        "coding.decode_s": t("decode_sentence", 0.0),
        "coding.decode_calls": c("decode_sentence", 0),
        "coding.max_code_bits": max(bits, default=0),
    }


_COUNTS = (
    "kernel.check_calls", "deriv.measures_calls", "transform.weaken_calls",
    "transform.nodes_in", "transform.nodes_out", "search.calls",
    "search.build_errors", "semantics.universe_size", "semantics.stages",
    "coding.encode_calls", "coding.decode_calls",
)
#: unit of every per-layer metric; the rest are seconds
UNITS = {
    **{name: "count" for name in _COUNTS},
    "transform.ok_ratio": "ratio",
    "search.found_ratio": "ratio",
    "script.bytes_per_s": "B/s",
    "kernel.nodes_per_s": "nodes/s",
    "coding.max_code_bits": "bits",
    "trace.overhead": "ratio",
}
