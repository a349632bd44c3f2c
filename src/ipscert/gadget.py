"""Addressing gadgets and the gadget transform for addition gates.

The addressing gadget of address j among n+1 choices is the multilinear
multiplexer over t+1 control variables, t the smallest integer with
2^t > n:

    A(n, j) = prod_{i in B0} (1 - y_i) * prod_{i in B1} y_i

where B1 holds the bit positions that are 1 in j + 2^t (LSB first) and B0
the rest.  On Boolean controls the gadget is 1 exactly at the encoding of
j + 2^t and 0 elsewhere; at the retrieval point (1/2, ..., 1/2, 2^t) it is
exactly 1, which is what lets a transformed sum gate reconstruct the full
original sum.

The transform rewrites every addition gate g = sum_j g_j of a layered
alternating formula into sum_j g_j * A(fanin-1, j) over a fresh block of
control variables y_{gate,bit}, leaving multiplication gates unchanged.

address_code is the one statement of the code.  literal_gates makes its
literals y or 1 - y as gates (for the transform and the paper's gadgeted
P), and gadget_sum reads codes back off a circuit: for refute, and for the
transform's ledger (per transformed gate, its fresh variables, the child
and summand per address, and the gadget gates), which nothing reads back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .circuit import ADD, CONST, Circuit, CircuitBuilder, MUL, VAR, _postorder
from .poly import Var, parse_var


def t_for(n: int) -> int:
    """Smallest t with 2^t > n."""
    if n < 0:
        raise ValueError("arity parameter must be nonnegative")
    return n.bit_length()


def address_code(j: int, vars: Sequence[Var]) -> tuple:
    """The code of address j over t+1 control variables: the (variable, bit)
    pairs of j + 2^t, LSB first."""
    t = len(vars) - 1
    if not 0 <= j < 1 << t:
        raise ValueError(f"address {j} out of range for {t + 1} control variables")
    code = j + (1 << t)
    return tuple((v, code >> bit & 1) for bit, v in enumerate(vars))


def literal_gates(b, code):
    """The literal gates of a code in b (a CircuitBuilder or a Folding), made
    one at a time as they are taken, in the code's order: y for a 1, 1 - y
    for a 0."""
    return (b.var(v) if bit else b.complement(v) for v, bit in code)


def literal_of(c: Circuit, i: int):
    """(v, 1) if gate i is VAR v, (v, 0) if it computes 1 - v, else None."""
    g = c.gates[i]
    if g.op == VAR:
        return g.var, 1
    if g.op != ADD or len(g.args) != 2:
        return None
    a, b = (c.gates[x] for x in g.args)
    for one, neg in ((a, b), (b, a)):
        if one.op == CONST and one.const == 1 and neg.op == MUL and len(neg.args) == 2:
            x, y = (c.gates[k] for k in neg.args)
            for cst, var in ((x, y), (y, x)):
                if cst.op == CONST and cst.const == -1 and var.op == VAR:
                    return var.var, 0
    return None


def gadget_sum(c: Circuit, i: int):
    """[(summand id, code {v: bit}, child ids), ...] if gate i is a gadget
    sum, else None: an ADD whose every summand (its factors, or itself if no
    MUL) holds one literal v (bit 1) or 1 - v (bit 0) per control variable,
    at pairwise distinct codes; its other factors are its child, maybe none.
    The control variables are those every summand has a literal on, in the
    first summand's order, once each summand of such literals alone, the
    transform's MUL(child, f_0, ..., f_t), has its first factor set apart.
    """
    gates = c.gates
    g = gates[i]
    if g.op != ADD or not g.args:
        return None
    factors = [gates[s].args if gates[s].op == MUL else (s,) for s in g.args]
    lits = [[literal_of(c, a) for a in fs] for fs in factors]

    def controls() -> dict:
        common = set.intersection(*({lit[0] for lit in ls if lit} for ls in lits))
        return dict.fromkeys(lit[0] for lit in lits[0] if lit and lit[0] in common)

    ctrl = controls()
    for ls in lits:
        if len(ls) > 1 and all(lit and lit[0] in ctrl for lit in ls):
            ls[0] = None
    ctrl = controls()
    terms = []
    for s, fs, ls in zip(g.args, factors, lits):
        code, child = {}, []
        for a, lit in zip(fs, ls):
            if lit and lit[0] in ctrl and lit[0] not in code:
                code[lit[0]] = lit[1]
            else:
                child.append(a)
        terms.append((s, {v: code[v] for v in ctrl}, child))
    distinct = len({tuple(code.values()) for _, code, _ in terms}) == len(terms)
    return terms if ctrl and distinct else None


@dataclass(frozen=True)
class GadgetChild:
    """Per-summand record of a transformed addition gate."""

    address: int
    child: int     # root of the transformed child subcircuit
    summand: int   # the MUL gate child * gadget factors


@dataclass(frozen=True)
class LedgerEntry:
    """Bookkeeping for one transformed addition gate."""

    gate: int               # id of the ADD gate in the transformed circuit
    source_gate: int        # id of the original ADD gate
    t: int
    vars: tuple             # t+1 fresh control variables, bit order
    children: tuple         # GadgetChild per summand, address order
    internal: frozenset     # ids of gadget factor gates in the new circuit


_KINDS = {str: "a string", int: "an integer", list: "a list"}


def json_field(doc: str, obj, key: str, name: str = "", kind: type = list,
               item: type | None = None, parse=None):
    """obj[key] from a `doc` JSON document, or a ValueError naming the field
    (as `name` if given) when it is missing, not a JSON value of `kind`, or,
    given an item kind, not a list of such values (element k is `name[k]`).

    With parse, the value is parse(obj[key]), or given an item kind the list
    of parse(element); a ValueError from parse is raised again naming the
    field or element.
    """
    name = name or key
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{doc}: missing field {name}")
    value = obj[key]
    checks = [(name, value, kind)]
    if item and isinstance(value, list):
        checks += [(f"{name}[{k}]", v, item) for k, v in enumerate(value)]
    for at, v, want in checks:
        if not isinstance(v, want) or isinstance(v, bool):   # a JSON bool is no integer
            raise ValueError(f"{doc}: field {at} is not {_KINDS[want]}")
    if parse is None:
        return value
    out = []
    for at, v, _ in checks[1:] if item else checks:
        try:
            out.append(parse(v))
        except ValueError as exc:
            raise ValueError(f"{doc}: field {at}: {exc}") from None
    return out if item else out[0]


_field = partial(json_field, "ledger document")


class GadgetLedger:
    """All transformed addition gates of one circuit, keyed by new gate id."""

    def __init__(self, entries: Sequence[LedgerEntry]):
        self.entries = tuple(entries)

    def fresh_vars(self) -> tuple:
        return tuple(v for e in self.entries for v in e.vars)

    def __len__(self):
        return len(self.entries)

    def to_json(self) -> str:
        doc = {
            "format": "gadget-ledger/1",
            "entries": [
                {
                    "gate": e.gate,
                    "source_gate": e.source_gate,
                    "t": e.t,
                    "vars": [v.name for v in e.vars],
                    "children": [
                        {"address": ch.address, "child": ch.child, "summand": ch.summand}
                        for ch in e.children
                    ],
                    "internal": sorted(e.internal),
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GadgetLedger":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != "gadget-ledger/1":
            raise ValueError("not a gadget ledger document")
        entries = []
        for k, e in enumerate(_field(doc, "entries", kind=list)):
            at = f"entries[{k}]"
            entries.append(LedgerEntry(
                gate=_field(e, "gate", f"{at}.gate", int),
                source_gate=_field(e, "source_gate", f"{at}.source_gate", int),
                t=_field(e, "t", f"{at}.t", int),
                vars=tuple(_field(e, "vars", f"{at}.vars", item=str, parse=parse_var)),
                children=tuple(
                    GadgetChild(*(_field(ch, key, f"{at}.children[{m}].{key}", int)
                                  for key in ("address", "child", "summand")))
                    for m, ch in enumerate(_field(e, "children", f"{at}.children", list))),
                internal=frozenset(_field(e, "internal", f"{at}.internal", item=int)),
            ))
            _check_entry(at, entries[-1])
        return cls(entries)


def _check_entry(at: str, e: LedgerEntry) -> None:
    """ValueError naming the field of entry `at` whose gadget block cannot be built."""
    def bad(field: str, why: str) -> ValueError:
        return ValueError(f"ledger document: field {at}.{field} {why}")
    if not e.children:
        raise bad("children", "is empty")
    n = len(e.children) - 1
    if e.t != t_for(n):
        raise bad("t", f"is {e.t}; {n + 1} children need t = {t_for(n)}")
    if len(e.vars) != e.t + 1:
        raise bad("vars", f"has {len(e.vars)} variables; t = {e.t} needs {e.t + 1}")
    seen = set()
    for m, ch in enumerate(e.children):
        if not 0 <= ch.address <= n:
            raise bad(f"children[{m}].address", f"{ch.address} is outside 0..{n}")
        if ch.address in seen:
            raise bad(f"children[{m}].address", f"{ch.address} repeats an earlier address")
        seen.add(ch.address)


def _check_gadgetize_input(c: Circuit) -> None:
    if not c.is_formula:
        raise ValueError("gadgetize requires a formula (every gate fan-out 1)")
    for v in c.variables():
        if v.ns == "y":
            raise ValueError(f"input already uses gadget namespace variable {v.name}")
    for i, g in enumerate(c.gates):
        if g.op in (ADD, MUL):
            for a in g.args:
                if c.gates[a].op == g.op:
                    raise ValueError(
                        f"g{i}: nested {g.op} gates; run normalize_layered first")


def gadgetize(c: Circuit) -> tuple:
    """Transform every addition gate; returns (new circuit, ledger).

    Requires a layered alternating formula (see normalize_layered).  Each
    addition gate of fan-in r gets a fresh block of t+1 control variables
    named y_<source gate id>_<bit>; its j-th summand becomes one flat MUL of
    the transformed child and the literal gates of address j's code.  The
    ledger is read off the new circuit (_read_ledger).
    """
    _check_gadgetize_input(c)
    code_of: dict = {}       # child of an ADD gate -> the code of its address
    for i, g in enumerate(c.gates):
        if g.op == ADD:
            yvars = tuple(Var("y", i, bit) for bit in range(t_for(len(g.args) - 1) + 1))
            code_of.update((a, address_code(j, yvars)) for j, a in enumerate(g.args))
    b = CircuitBuilder()
    new: dict = {}           # gate id -> id of its transformed gate, or of its summand
    for i in _postorder(c.gates, c.output):
        g = c.gates[i]
        if g.is_leaf():
            new[i] = b._push(g)
        else:
            new[i] = (b.add if g.op == ADD else b.mul)([new[a] for a in g.args])
        if i in code_of:
            # The summand follows its child's subtree: the literals, then the MUL.
            new[i] = b.mul([new[i], *literal_gates(b, code_of[i])])
    cprime = b.build(new[c.output])
    return cprime, _read_ledger(cprime)


def _read_ledger(c: Circuit) -> GadgetLedger:
    """The ledger of gadgetize's output c, read off its gadget sums (every
    ADD but each 1 - y, whose first argument is a CONST): the controls
    y_<source gate>_<bit> in bit order; per summand its address (its code's
    bits less 2^t), child and summand; and as internal the ids strictly
    between each child and its summand, its literal gates."""
    entries = []
    for i, g in enumerate(c.gates):
        if g.op == ADD and c.gates[g.args[0]].op != CONST:
            terms = gadget_sum(c, i)
            ys = tuple(sorted(terms[0][1], key=lambda v: v.idx[1]))
            top = 1 << len(ys) - 1
            kids = tuple(GadgetChild(sum(bit << v.idx[1] for v, bit in code.items()) - top,
                                     child[0], s) for s, code, child in terms)
            internal = frozenset(k for ch in kids for k in range(ch.child + 1, ch.summand))
            entries.append(LedgerEntry(i, ys[0].idx[0], len(ys) - 1, ys, kids, internal))
    return GadgetLedger(entries)
