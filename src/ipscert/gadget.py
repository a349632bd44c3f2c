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
The ledger is the transform's record of what it did: per transformed
gate, the fresh variables, the child and summand per address, and the
gadget gates.  The certificate builder does not read it; it reads the
gadget sums off the circuit (refute.gadget_sum).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .circuit import ADD, Circuit, CircuitBuilder, MUL, _postorder
from .poly import Var, parse_var


def t_for(n: int) -> int:
    """Smallest t with 2^t > n."""
    if n < 0:
        raise ValueError("arity parameter must be nonnegative")
    return n.bit_length()


@dataclass(frozen=True)
class AddressingGadget:
    """Multilinear multiplexer A(n, j) over control variables `vars`."""

    n: int
    j: int
    t: int
    zero_bits: frozenset
    one_bits: frozenset
    vars: tuple

    @classmethod
    def build(cls, n: int, j: int, vars: Sequence[Var]) -> "AddressingGadget":
        if not 0 <= j <= n:
            raise ValueError(f"address {j} out of range for arity parameter {n}")
        t = t_for(n)
        if len(vars) != t + 1:
            raise ValueError(f"gadget needs {t + 1} variables, got {len(vars)}")
        code = j + (1 << t)
        one = frozenset(b for b in range(t + 1) if code >> b & 1)
        zero = frozenset(range(t + 1)) - one
        return cls(n=n, j=j, t=t, zero_bits=zero, one_bits=one, vars=tuple(vars))

    def factors(self, b: CircuitBuilder) -> list:
        """Fresh gates in b, one id per bit position in bit order: y_b or 1 - y_b."""
        return [b.var(v) if bit in self.one_bits else b.complement(v)
                for bit, v in enumerate(self.vars)]


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
    the transformed child and the gadget factors of A(r-1, j).
    """
    _check_gadgetize_input(c)
    b = CircuitBuilder()
    entries = []
    new: dict = {}           # gate id -> id of its transformed gate
    gadget_of: dict = {}     # child of an ADD gate -> the gadget of its summand
    summand_of: dict = {}    # child of an ADD gate -> its GadgetChild
    for i, g in enumerate(c.gates):
        if g.op == ADD:
            n = len(g.args) - 1
            yvars = tuple(Var("y", i, bit) for bit in range(t_for(n) + 1))
            gadget_of.update((a, AddressingGadget.build(n, j, yvars)) for j, a in enumerate(g.args))
    for i in _postorder(c.gates, c.output):
        g = c.gates[i]
        if g.op == ADD:
            children = tuple(summand_of.pop(a) for a in g.args)
            new[i] = b.add([ch.summand for ch in children])
            gadget = gadget_of[g.args[0]]
            # Each summand's gadget factors lie between its child and its MUL.
            internal = frozenset(k for ch in children for k in range(ch.child + 1, ch.summand))
            entries.append(LedgerEntry(gate=new[i], source_gate=i, t=gadget.t, vars=gadget.vars,
                                       children=children, internal=internal))
        elif g.op == MUL:
            new[i] = b.mul([new[a] for a in g.args])
        else:
            new[i] = b._push(g)
        if i in gadget_of:
            # The summand follows its child's subtree: gadget factors, then the MUL.
            factor_ids = gadget_of[i].factors(b)
            summand_of[i] = GadgetChild(address=gadget_of[i].j, child=new[i],
                                        summand=b.mul([new[i]] + factor_ids))
    return b.build(new[c.output]), GadgetLedger(entries)

