"""Outside-in tracing of the ipscert layers.

Each public function of interest is replaced, at every module namespace that
bound it, by a wrapper that records a span: its name, start, end, parent
span and the benchmark operation it belongs to.  SparsePoly operators and
methods are wrapped on the class.  Spans stay in memory in flat arrays until
the traced pass ends; self time is a span's duration minus the durations of
its direct children (spans nest strictly, since everything runs on one
thread).  Counters that need a function's arguments or result are updated
after the span closes, so their cost lands in the caller, not the callee.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

COMPOSE = "circuit.compose"


def _plen(x) -> int:
    """Term count of a SparsePoly operand (a scalar counts as one term)."""
    return len(x) if hasattr(x, "_t") else 1


def _cells(m) -> int:
    rows = getattr(m, "entries", m)
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    """Spans and counters of one traced pass; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list = []          # span name id -> name
        self._ids: dict = {}
        self.name_of = array("l")      # per span
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}
        self.peak_terms = 0
        self.current_op = -1
        self._stack = [-1]
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        call = self.call

        if after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = call(nid, fn, args, kwargs)
                after(args, result)
                return result
        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> tuple:
        """(calls per name, self seconds per name, seconds inside root spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root += dur[i]
            else:
                child[p] += dur[i]
        calls: dict = {}
        self_s: dict = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        return calls, self_s, root

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, name, start, end, parent, operation."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i}\t{names[nid]}\t{start[i]:.9f}\t{end[i]:.9f}\t{parent[i]}\t{op[i]}\n")

    def nesting_errors(self) -> list:
        """Spans that are unfinished or stick out of their parent."""
        errors = []
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.end[i] < self.start[i] or (
                    p >= 0 and not self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                errors.append(f"span {i} ({self.names[self.name_of[i]]}) is not nested in its parent")
                if len(errors) >= 5:
                    break
        return errors

    # -- installation ------------------------------------------------------

    def install(self, pkg: str = "ipscert") -> None:
        """Wrap every target function wherever a module of pkg bound it."""
        replacements = self._replacements()
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == pkg or name.startswith(pkg + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for cls, attr, name, after in self._methods():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                w = classmethod(self.wrap(name, raw.__func__, after))
            else:
                w = self.wrap(name, raw, after)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, w)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _note_peak(self, result) -> None:
        n = len(result)
        if n > self.peak_terms:
            self.peak_terms = n

    def _replacements(self) -> dict:
        """id(original) -> (original, traced replacement) for module functions."""
        from ipscert import circuit as ci, gadget as ga, instances as ins
        from ipscert import poly as po, rank as rk, refute as rf, verify as vf

        add = self.add

        def count(key, measure):
            def after(args, result):
                add(key, measure(args, result))
            return after

        def compose_after(args, result):
            parent = self._stack[-1]
            if parent < 0 or self.names[self.name_of[parent]] != COMPOSE:
                add(COMPOSE + ".gates_built", len(result))

        specs = [
            (po.parse_poly, "poly.parse_poly", None),
            (po.format_poly, "poly.format_poly", None),
            (ci.parse_circuit, "circuit.parse_circuit",
             count("circuit.parse_circuit.gates", lambda a, r: len(r))),
            (ci.format_circuit, "circuit.format_circuit",
             count("circuit.format_circuit.bytes", lambda a, r: len(r))),
            (ci.normalize_layered, "circuit.normalize_layered", None),
            (ci.expand, "circuit.expand", count("circuit.expand.gates", lambda a, r: len(a[0]))),
            (ci.subcircuit, "circuit.subcircuit", None),
            (ci.measure, "circuit.measure", None),
            (ci.eval_circuit_mod, "circuit.eval_circuit_mod",
             count("circuit.eval_circuit_mod.gates", lambda a, r: len(a[0]))),
            (ci.partial_evaluate, "circuit.partial_evaluate", None),
            (ga.gadgetize, "gadget.gadgetize",
             count("gadget.gadgetize.gates_out", lambda a, r: len(r[0]))),
            (rf.assemble_refutation, "refute.assemble_refutation", None),
            (rf.certificate_to_json, "refute.certificate_to_json", None),
            (rf.certificate_from_json, "refute.certificate_from_json", None),
            (vf.verify_exact, "verify.verify_exact", None),
            (vf.verify_pit, "verify.verify_pit",
             count("verify.verify_pit.evaluations", lambda a, r: r.work.get("evaluations", 0))),
            (vf.boolean_image, "verify.boolean_image",
             count("verify.boolean_image.points", lambda a, r: r.points)),
            (ins.functional_identity_holds, "instances.functional_identity_holds", None),
            (rk.fullrank_witness, "rank.fullrank_witness", None),
            (rk.rank_matrix, "rank.rank_matrix", None),
            (rk.exact_rank, "rank.exact_rank",
             count("rank.exact_rank.cells",
                   lambda a, r: _cells(a[0]))),
        ]
        specs += [(f, COMPOSE, compose_after)
                  for f in (ci.cprod, ci.cmul, ci.cadd, ci.csum, ci.cscale)]
        specs += [(f, "instances.build", None)
                  for f in (ins.ry_circuit, ins.gadgeted_ry_circuit, ins.mnc_instance,
                            ins.subset_sum, ins.lifted_subset_sum)]
        out = {id(f): (f, self.wrap(name, f, after)) for f, name, after in specs}

        # compile_evaluator itself is cheap; the calls of the closure it
        # returns are the compiled-evaluator spans.
        raw_compile = ci.compile_evaluator

        @functools.wraps(raw_compile)
        def compile_evaluator(c):
            return self.wrap("circuit.compiled_eval", raw_compile(c))
        out[id(raw_compile)] = (raw_compile, compile_evaluator)
        return out

    def _methods(self) -> list:
        from ipscert.gadget import GadgetLedger
        from ipscert.poly import SparsePoly

        add = self.add
        note = self._note_peak

        def mul_after(args, result):
            if result is NotImplemented:
                return
            add("poly.mul.term_pairs", _plen(args[0]) * _plen(args[1]))
            add("poly.mul.terms_out", len(result))
            note(result)

        def add_after(args, result):
            if result is NotImplemented:
                return
            add("poly.add.terms_out", len(result))
            note(result)

        def reduce_after(args, result):
            add("poly.multilinear_reduce.terms_in", len(args[0]))
            add("poly.multilinear_reduce.terms_out", len(result))
            note(result)

        def peak_after(args, result):
            note(result)

        return [
            (SparsePoly, "__mul__", "poly.mul", mul_after),
            (SparsePoly, "__rmul__", "poly.mul", mul_after),
            (SparsePoly, "__add__", "poly.add", add_after),
            (SparsePoly, "__radd__", "poly.add", add_after),
            (SparsePoly, "multilinear_reduce", "poly.multilinear_reduce", reduce_after),
            (SparsePoly, "restrict", "poly.restrict", peak_after),
            (SparsePoly, "substitute", "poly.substitute", peak_after),
            (GadgetLedger, "to_json", "gadget.ledger_json", None),
            (GadgetLedger, "from_json", "gadget.ledger_json", None),
        ]
