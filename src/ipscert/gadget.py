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
The ledger records, per transformed gate, the fresh variables and the
per-summand bookkeeping needed by the certificate builder and by the
retrieval assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .circuit import (
    ADD,
    Circuit,
    CircuitBuilder,
    MUL,
    affine_complement,
    cprod,
    cvar,
)
from .poly import SparsePoly, Var, parse_var


def t_for(n: int) -> int:
    """Smallest t with 2^t > n."""
    if n < 0:
        raise ValueError("arity parameter must be nonnegative")
    t = 0
    while (1 << t) <= n:
        t += 1
    return t


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

    def factor_circuits(self) -> list:
        """One circuit per bit position, in bit order: y_b or (1 - y_b)."""
        out = []
        for b in range(self.t + 1):
            v = self.vars[b]
            out.append(cvar(v) if b in self.one_bits else affine_complement(v))
        return out

    def as_circuit(self) -> Circuit:
        return cprod(self.factor_circuits())

    def polynomial(self) -> SparsePoly:
        p = SparsePoly.constant(1)
        for b in range(self.t + 1):
            v = SparsePoly.variable(self.vars[b])
            p = p * (v if b in self.one_bits else 1 - v)
        return p

    def evaluate(self, assignment: Mapping[Var, object]) -> Fraction:
        acc = Fraction(1)
        for b in range(self.t + 1):
            val = Fraction(assignment[self.vars[b]])
            acc *= val if b in self.one_bits else 1 - val
        return acc

    def selected_point(self) -> dict:
        """The unique Boolean control point where the gadget evaluates to 1."""
        return {self.vars[b]: (1 if b in self.one_bits else 0) for b in range(self.t + 1)}


def addressing_gadget(n: int, j: int, vars: Sequence[Var]) -> Circuit:
    """Circuit form of A(n, j); every control variable is used exactly once."""
    return AddressingGadget.build(n, j, vars).as_circuit()


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

    @property
    def arity_param(self) -> int:
        return len(self.children) - 1

    def gadget(self, address: int) -> AddressingGadget:
        return AddressingGadget.build(self.arity_param, address, self.vars)


class GadgetLedger:
    """All transformed addition gates of one circuit, keyed by new gate id."""

    def __init__(self, entries: Sequence[LedgerEntry]):
        self.entries = tuple(entries)
        self.by_gate = {e.gate: e for e in self.entries}

    def fresh_vars(self) -> tuple:
        out = []
        for e in self.entries:
            out.extend(e.vars)
        return tuple(out)

    def internal_gates(self) -> frozenset:
        ids: set = set()
        for e in self.entries:
            ids |= e.internal
        return frozenset(ids)

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
        if doc.get("format") != "gadget-ledger/1":
            raise ValueError("not a gadget ledger document")
        entries = []
        for e in doc["entries"]:
            entries.append(LedgerEntry(
                gate=e["gate"],
                source_gate=e["source_gate"],
                t=e["t"],
                vars=tuple(parse_var(n) for n in e["vars"]),
                children=tuple(GadgetChild(**ch) for ch in e["children"]),
                internal=frozenset(e["internal"]),
            ))
        return cls(entries)


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

    def rec(i: int) -> int:
        g = c.gates[i]
        if g.is_leaf():
            return b._push(g)
        if g.op == MUL:
            return b.mul([rec(a) for a in g.args])
        r = len(g.args)
        n = r - 1
        t = t_for(n)
        yvars = tuple(Var("y", i, bit) for bit in range(t + 1))
        children = []
        internal: set = set()
        summands = []
        for j, a in enumerate(g.args):
            child = rec(a)
            gadget = AddressingGadget.build(n, j, yvars)
            before = len(b._gates)
            factor_ids = [b.var(y) if bit in gadget.one_bits else b.complement(y)
                          for bit, y in enumerate(yvars)]
            internal.update(range(before, len(b._gates)))
            summand = b.mul([child] + factor_ids)
            summands.append(summand)
            children.append(GadgetChild(address=j, child=child, summand=summand))
        gate = b.add(summands)
        entries.append(LedgerEntry(gate=gate, source_gate=i, t=t, vars=yvars,
                                   children=tuple(children), internal=frozenset(internal)))
        return gate

    root = rec(c.output)
    return b.build(root), GadgetLedger(entries)


def retrieval_assignment(ledger: GadgetLedger) -> dict:
    """Per gate: controls (1/2, ..., 1/2, 2^t); substitution recovers the sum."""
    out: dict = {}
    for e in ledger.entries:
        for v in e.vars[:-1]:
            out[v] = Fraction(1, 2)
        out[e.vars[-1]] = Fraction(1 << e.t)
    return out
