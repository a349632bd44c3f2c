"""Algebraic circuit IR: DAGs of add/mul gates over variables and rationals.

A circuit is a flat table of gates indexed by position; every gate may only
reference earlier gates, which makes the table a topological order and rules
out cycles by construction.  Circuits are immutable; every transformation
returns a new circuit.  A circuit is a formula when every non-output gate
feeds exactly one other gate (the underlying graph is a tree).

There is no subtraction gate: -p is MUL(CONST -1, p).  Negation and scaling
therefore show up as fan-in-2 MUL gates with a constant child.  The metrics
treat such a gate as a coefficient riding on a wire (no wires or depth of
its own; the edge into its parent is the parent's fan-in), matching the
wire-count model in which linear-combination gates carry coefficients on
their input wires; `measure(c, fold_scalars=False)` gives the plain
sum-of-fan-ins count instead.

Line-based file format, one gate per line, ids defined before use:

    g0 = VAR x1
    g1 = CONST 1/2
    g2 = ADD g0 g1
    g3 = MUL g2 g0
    OUTPUT g3

Comments start with `#`.  Serialization is canonical and byte-stable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import (
    ResourceLimitError,
    SparsePoly,
    TERM_GUARD,
    UnassignedVariableError,
    Var,
    _Accumulator,
    format_frac,
    frac_mod,
    parse_frac,
    parse_var,
)

VAR = "VAR"
CONST = "CONST"
ADD = "ADD"
MUL = "MUL"


class Gate:
    """One gate: VAR(var), CONST(value), ADD(args) or MUL(args)."""

    __slots__ = ("op", "var", "const", "args")

    def __init__(self, op, var=None, const=None, args=()):
        self.op = op
        self.var = var
        self.const = const
        self.args = tuple(args)

    def is_leaf(self) -> bool:
        return self.op in (VAR, CONST)

    def __repr__(self):
        if self.op == VAR:
            return f"Gate(VAR {self.var.name})"
        if self.op == CONST:
            return f"Gate(CONST {self.const})"
        return f"Gate({self.op} {list(self.args)})"


@dataclass(frozen=True)
class Metrics:
    """Wire count and leaf-to-output depth of a circuit."""

    size: int
    depth: int


class Circuit:
    """Immutable gate table plus designated output gate."""

    __slots__ = ("gates", "output")

    def __init__(self, gates: Sequence[Gate], output: int):
        gates = tuple(gates)
        if not gates:
            raise ValueError("circuit must contain at least one gate")
        if not 0 <= output < len(gates):
            raise ValueError(f"output id g{output} is not defined")
        for i, g in enumerate(gates):
            if g.op == VAR:
                if not isinstance(g.var, Var):
                    raise ValueError(f"g{i}: VAR gate without a variable")
            elif g.op == CONST:
                if not isinstance(g.const, Fraction):
                    raise ValueError(f"g{i}: CONST gate without a rational value")
            elif g.op in (ADD, MUL):
                if not g.args:
                    raise ValueError(f"g{i}: {g.op} gate with no children")
                for a in g.args:
                    if not 0 <= a < i:
                        raise ValueError(f"g{i}: child g{a} not defined before use")
            else:
                raise ValueError(f"g{i}: unknown gate kind {g.op!r}")
        reach = [False] * len(gates)
        reach[output] = True
        for i in range(len(gates) - 1, -1, -1):
            if reach[i]:
                for a in gates[i].args:
                    reach[a] = True
        if not all(reach):
            dead = [i for i, r in enumerate(reach) if not r]
            raise ValueError(f"gates unreachable from output: {dead}")
        self.gates = gates
        self.output = output

    def __len__(self):
        return len(self.gates)

    def fanouts(self) -> list:
        out = [0] * len(self.gates)
        for g in self.gates:
            for a in g.args:
                out[a] += 1
        return out

    @property
    def is_formula(self) -> bool:
        return all(f <= 1 for f in self.fanouts())

    def variables(self) -> tuple:
        seen = {g.var for g in self.gates if g.op == VAR}
        return tuple(sorted(seen, key=lambda v: v._key))

    def constants(self) -> frozenset:
        return frozenset(g.const for g in self.gates if g.op == CONST)

    def __repr__(self):
        return f"Circuit({len(self.gates)} gates, output g{self.output})"


class CircuitBuilder:
    """Accumulates gates with sequential deterministic ids."""

    def __init__(self):
        self._gates: list = []

    def _push(self, g: Gate) -> int:
        self._gates.append(g)
        return len(self._gates) - 1

    def var(self, v: Var) -> int:
        return self._push(Gate(VAR, var=v))

    def const(self, value) -> int:
        return self._push(Gate(CONST, const=Fraction(value)))

    def add(self, args: Iterable[int]) -> int:
        return self._push(Gate(ADD, args=tuple(args)))

    def mul(self, args: Iterable[int]) -> int:
        return self._push(Gate(MUL, args=tuple(args)))

    def complement(self, v: Var) -> int:
        """1 - v as ADD(CONST 1, MUL(CONST -1, VAR v)), in fresh gates."""
        one = self.const(1)
        return self.add([one, self.mul([self.const(-1), self.var(v)])])

    def inline(self, c: Circuit) -> int:
        """Copy another circuit into this builder; returns its output id."""
        offset = len(self._gates)
        for g in c.gates:
            if g.is_leaf():
                self._gates.append(g)
            else:
                self._gates.append(Gate(g.op, args=tuple(a + offset for a in g.args)))
        return c.output + offset

    def gate(self, i: int) -> Gate:
        return self._gates[i]

    def build(self, output: int) -> Circuit:
        return Circuit(self._gates, output)


def _compact(gates: Sequence[Gate], output: int) -> Circuit:
    """Drop gates unreachable from output, renumbering in stable id order."""
    reach = [False] * len(gates)
    reach[output] = True
    for i in range(len(gates) - 1, -1, -1):
        if reach[i]:
            for a in gates[i].args:
                reach[a] = True
    remap = {}
    kept = []
    for i, g in enumerate(gates):
        if reach[i]:
            remap[i] = len(kept)
            if g.is_leaf():
                kept.append(g)
            else:
                kept.append(Gate(g.op, args=tuple(remap[a] for a in g.args)))
    return Circuit(kept, remap[output])


def subcircuit(c: Circuit, gid: int) -> Circuit:
    """The subcircuit rooted at gid, as a standalone circuit."""
    return _compact(c.gates, gid)


def _is_scaled_wire(c_gates, g: Gate) -> int | None:
    """If g is MUL(CONST, x) with fan-in 2, return the non-constant child."""
    if g.op != MUL or len(g.args) != 2:
        return None
    a, b = g.args
    a_const = c_gates[a].op == CONST
    b_const = c_gates[b].op == CONST
    if a_const == b_const:
        return None
    return b if a_const else a


def measure(c: Circuit, fold_scalars: bool = True) -> Metrics:
    """Wire count and depth.

    With fold_scalars (the default), a fan-in-2 MUL with one constant child
    is a coefficient riding on a wire: it contributes no wires of its own
    (the edge into its parent is already counted by the parent's fan-in)
    and no depth step.  This is the convention under which an affine factor
    (1 - y) measures as size 2, depth 1.  With fold_scalars=False the size
    is the plain sum of fan-ins and every internal gate adds a depth step.
    """
    depth = [0] * len(c.gates)
    size = 0
    for i, g in enumerate(c.gates):
        if g.is_leaf():
            continue
        if fold_scalars:
            other = _is_scaled_wire(c.gates, g)
            if other is not None:
                depth[i] = depth[other]
                continue
        size += len(g.args)
        depth[i] = 1 + max(depth[a] for a in g.args)
    return Metrics(size=size, depth=depth[c.output])


def expand(c: Circuit, guard: int = TERM_GUARD) -> SparsePoly:
    """The polynomial computed by the circuit, by bottom-up expansion."""
    polys: list = [None] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            polys[i] = SparsePoly.variable(g.var)
        elif g.op == CONST:
            polys[i] = SparsePoly.constant(g.const)
        elif g.op == ADD:
            acc = _Accumulator()
            for a in g.args:
                acc.add(polys[a])
            polys[i] = acc.result()
        else:
            acc = polys[g.args[0]]
            for a in g.args[1:]:
                if len(acc) * len(polys[a]) > guard:
                    raise ResourceLimitError(
                        f"expansion of g{i} projects over the dense-size guard")
                acc = acc * polys[a]
            polys[i] = acc
    return polys[c.output]


def partial_evaluate(c: Circuit, assignment: Mapping[Var, object]) -> Circuit:
    """Replace assigned VAR leaves by CONST gates; structure is preserved."""
    gates = []
    for g in c.gates:
        if g.op == VAR and g.var in assignment:
            gates.append(Gate(CONST, const=Fraction(assignment[g.var])))
        else:
            gates.append(g)
    return Circuit(gates, c.output)


def compile_evaluator(c: Circuit):
    """Compile the gate table once; returns run(assignment, prime=None).

    run evaluates the circuit at a total assignment of its variables.  With
    prime None the value is exact: a plain int when every constant and every
    assigned value is an integer (the hot path of Boolean image scans), and
    otherwise a Fraction, with each non-int value taken through Fraction().
    With a prime the value lies in GF(prime): assigned values are reduced mod
    prime and rational constants are transported by frac_mod, once per prime.
    A variable missing from the assignment raises UnassignedVariableError in
    both rings.
    """
    leaves = []     # (gate id, variable) per VAR gate
    consts = []     # (gate id, rational) per CONST gate
    internal = []   # (gate id, is ADD, children) per ADD or MUL gate
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            leaves.append((i, g.var))
        elif g.op == CONST:
            consts.append((i, g.const))
        else:
            internal.append((i, g.op == ADD, g.args))

    def table(convert) -> list:
        # The initial value table: constants in place, zeros elsewhere.
        vals = [0] * len(c.gates)
        for i, q in consts:
            vals[i] = convert(q)
        return vals

    exact = table(lambda q: int(q) if q.denominator == 1 else q)
    transported: dict = {}
    out = c.output

    def run(assignment: Mapping[Var, object], prime: int | None = None):
        if prime is None:
            vals = exact[:]
        else:
            start = transported.get(prime)
            if start is None:
                start = transported[prime] = table(lambda q: frac_mod(q, prime))
            vals = start[:]
        for i, v in leaves:
            try:
                x = assignment[v]
            except KeyError:
                raise UnassignedVariableError(f"no value assigned to {v.name}") from None
            if prime is not None:
                x %= prime
            elif type(x) is not int:
                x = Fraction(x)
            vals[i] = x
        for i, is_add, args in internal:
            if is_add:
                acc = 0
                for a in args:
                    acc += vals[a]
            else:
                acc = 1
                for a in args:
                    acc *= vals[a]
            vals[i] = acc if prime is None else acc % prime
        return vals[out]

    return run


def eval_circuit(c: Circuit, assignment: Mapping[Var, object]) -> Fraction:
    """Exact evaluation at a total assignment of the circuit's variables."""
    return Fraction(compile_evaluator(c)(assignment))


def eval_circuit_mod(c: Circuit, assignment: Mapping[Var, int], prime: int) -> int:
    """Evaluation over GF(prime); rational constants transported exactly."""
    return compile_evaluator(c)(assignment, prime)


def normalize_layered(c: Circuit) -> Circuit:
    """Flatten nested same-kind gates and put an ADD gate on top.

    The result alternates ADD and MUL layers (leaves may feed either) and
    computes the same polynomial.  A MUL root is wrapped under a fan-in-1
    ADD; a leaf root is left alone.  Formulas stay formulas.
    """
    gates = list(c.gates)
    new = CircuitBuilder()
    memo: dict = {}

    def rec(i: int) -> int:
        if i in memo:
            return memo[i]
        g = gates[i]
        if g.is_leaf():
            nid = new._push(g)
        else:
            children = []
            for a in g.args:
                ca = rec(a)
                cg = new.gate(ca)
                if cg.op == g.op:
                    children.extend(cg.args)
                else:
                    children.append(ca)
            nid = new._push(Gate(g.op, args=tuple(children)))
        memo[i] = nid
        return nid

    root = rec(c.output)
    if new.gate(root).op == MUL:
        root = new.add([root])
    return _compact(new._gates, root)


def is_syntactically_multilinear(c: Circuit) -> bool:
    """True iff every MUL gate's children use pairwise disjoint variables."""
    varsets: list = [frozenset()] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            varsets[i] = frozenset((g.var,))
        elif g.op == CONST:
            varsets[i] = frozenset()
        else:
            union: set = set()
            if g.op == MUL:
                total = 0
                for a in g.args:
                    total += len(varsets[a])
                    union |= varsets[a]
                if len(union) != total:
                    return False
            else:
                for a in g.args:
                    union |= varsets[a]
            varsets[i] = frozenset(union)
    return True


def is_constant_free(c: Circuit) -> bool:
    """All constant leaves drawn from {-1, 0, 1}."""
    return all(g.const in (-1, 0, 1) for g in c.gates if g.op == CONST)


def has_zero_one_leaves(c: Circuit) -> bool:
    """All constant leaves drawn from {0, 1}."""
    return all(g.const in (0, 1) for g in c.gates if g.op == CONST)


# ---------------------------------------------------------------------------
# Functional composition helpers.  Each returns a fresh standalone circuit;
# cprod and csum fold literal 0/1 constant factors so generated cofactor
# circuits stay free of trivial units.

def cvar(v: Var) -> Circuit:
    return Circuit([Gate(VAR, var=v)], 0)


def cconst(value) -> Circuit:
    return Circuit([Gate(CONST, const=Fraction(value))], 0)


def _is_const_circuit(c: Circuit, value) -> bool:
    g = c.gates[c.output]
    return g.op == CONST and g.const == value


def cadd(*parts: Circuit) -> Circuit:
    b = CircuitBuilder()
    ids = [b.inline(p) for p in parts]
    return b.build(b.add(ids))


def cmul(*parts: Circuit) -> Circuit:
    b = CircuitBuilder()
    ids = [b.inline(p) for p in parts]
    return b.build(b.mul(ids))


def cscale(value, c: Circuit) -> Circuit:
    """value * c as a fan-in-2 MUL with the constant first (a scaled wire)."""
    return cmul(cconst(value), c)


def affine_complement(v: Var) -> Circuit:
    """The affine factor 1 - v as a standalone circuit."""
    b = CircuitBuilder()
    return b.build(b.complement(v))


def cprod(factors: Sequence[Circuit]) -> Circuit:
    """Flat product folding literal 1s; a literal 0 collapses to CONST 0."""
    kept = []
    for f in factors:
        if _is_const_circuit(f, 0):
            return cconst(0)
        if _is_const_circuit(f, 1):
            continue
        kept.append(f)
    if not kept:
        return cconst(1)
    if len(kept) == 1:
        return kept[0]
    return cmul(*kept)


def csum(terms: Sequence[Circuit]) -> Circuit:
    """Flat sum dropping literal 0s; the empty sum is CONST 0."""
    kept = [t for t in terms if not _is_const_circuit(t, 0)]
    if not kept:
        return cconst(0)
    if len(kept) == 1:
        return kept[0]
    return cadd(*kept)


def poly_to_circuit(p: SparsePoly) -> Circuit:
    """Sum-of-products circuit for a polynomial (terms in canonical order)."""
    from .poly import mono_key

    if not p:
        return cconst(0)
    terms = []
    for m in sorted(p.terms, key=mono_key):
        c = p.terms[m]
        factors = []
        for v, e in m:
            factors.extend([cvar(v)] * e)
        if not factors:
            terms.append(cconst(c))
        elif c == 1:
            terms.append(cprod(factors))
        else:
            terms.append(cmul(cconst(c), *factors))
    return csum(terms)


# ---------------------------------------------------------------------------
# Circuit file format.

def format_circuit(c: Circuit) -> str:
    """Canonical line-based text form (one gate per line, then OUTPUT)."""
    lines = []
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            lines.append(f"g{i} = VAR {g.var.name}")
        elif g.op == CONST:
            lines.append(f"g{i} = CONST {format_frac(g.const)}")
        else:
            lines.append(f"g{i} = {g.op} " + " ".join(f"g{a}" for a in g.args))
    lines.append(f"OUTPUT g{c.output}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based format; ids must be defined before use."""
    id_map: dict = {}
    gates: list = []
    output = None

    def gate_ref(tok: str) -> int:
        if not tok.startswith("g") or tok[1:] not in id_map:
            raise ValueError(f"reference to undefined gate {tok!r}")
        return id_map[tok[1:]]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("OUTPUT"):
                if output is not None:
                    raise ValueError("multiple OUTPUT lines")
                toks = line.split()
                if len(toks) < 2:
                    raise ValueError("OUTPUT line names no gate")
                output = gate_ref(toks[1])
                continue
            lhs, rhs = line.split("=", 1)
            lhs = lhs.strip()
            if not lhs.startswith("g") or not lhs[1:].isdigit():
                raise ValueError(f"bad gate id {lhs!r}")
            if lhs[1:] in id_map:
                raise ValueError(f"gate {lhs} defined twice")
            toks = rhs.split()
            if not toks:
                raise ValueError(f"gate {lhs} has no kind")
            kind = toks[0]
            if kind in (VAR, CONST) and len(toks) < 2:
                raise ValueError(f"{kind} gate {lhs} has no operand")
            if kind == VAR:
                g = Gate(VAR, var=parse_var(toks[1]))
            elif kind == CONST:
                g = Gate(CONST, const=parse_frac(toks[1]))
            elif kind in (ADD, MUL):
                g = Gate(kind, args=tuple(gate_ref(t) for t in toks[1:]))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
            id_map[lhs[1:]] = len(gates)
            gates.append(g)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if output is None:
        raise ValueError("missing OUTPUT line")
    return Circuit(gates, output)


def circuit_sha256(c: Circuit) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(format_circuit(c).encode("utf-8")).hexdigest()
