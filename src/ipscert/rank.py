"""Partition coefficient matrices, exact rank, and full-rank witnesses.

For a multilinear polynomial f over 2n variables split into two sides of
size n, the partition matrix has rows indexed by multilinear monomials in
the row side and columns by monomials in the column side; its (m_y, m_z)
entry is the coefficient of m_y * m_z in f.  The matrix is kept times
f's one denominator d > 0, which keeps the rank, so its entries are f's
int numerators; it is kept as its nonzero rows, each {column: int} over
its nonzero entries.  Rank is computed exactly over the rationals by
sparse fraction-free row echelon: each row is reduced over the integers
against a basis keyed by leading column.

fullrank_witness reproduces the recursive control assignment that makes
the gadgeted interval polynomial full rank for any balanced partition,
over the interval sets the polynomial was built from (interval_wvarsets):
if the interval endpoints lie on opposite sides, take the leaf branch at
weight 1/2 (w_top = 0, w_leaf = 1/2) and recurse inward; if they lie on
the same side, some valid split cuts the interval into two halves that are
themselves balanced (a discrete intermediate-value argument guarantees
one exists), so select it through the address block (w_top = 1) and
recurse into both halves.  Control variables off the recursion path are
set to 0.  When several splits balance, the smallest cut point is chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .instances import uvar
from .poly import SparsePoly, Var, parse_var

# The values of a witness, shared by all its variables.
_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


@dataclass(frozen=True)
class Partition:
    """A balanced split of variables into row side and column side."""

    y_side: tuple
    z_side: tuple

    def __post_init__(self):
        if not self.y_side or len(self.y_side) != len(self.z_side):
            raise ValueError("partition sides must be nonempty and of equal size")
        if len(set(self.y_side + self.z_side)) != 2 * len(self.y_side):
            raise ValueError("partition sides must be disjoint, with no variable repeated")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        left, _, right = text.partition("|")
        if not right:
            raise ValueError("partition syntax is 'u1,u3|u2,u4'")
        y = tuple(parse_var(t.strip()) for t in left.split(","))
        z = tuple(parse_var(t.strip()) for t in right.split(","))
        return cls(y_side=tuple(sorted(y)), z_side=tuple(sorted(z)))

    def format(self) -> str:
        return ",".join(v.name for v in self.y_side) + "|" + ",".join(v.name for v in self.z_side)


def rank_matrix(f: SparsePoly, p: Partition) -> list:
    """The nonzero rows of the 2^n x 2^n partition coefficient matrix of
    d*f, d the one denominator of the multilinear polynomial f, in
    ascending row.

    Row and column indices are the subset masks of the row-side and
    column-side monomials; a row is {column: int} over its nonzero entries,
    the stored numerators of f.
    """
    if not f.is_multilinear():
        raise ValueError("rank matrix requires a multilinear polynomial")
    outside = [v for v in f.variables() if v not in p.y_side and v not in p.z_side]
    if outside:
        raise ValueError(
            f"variable {outside[0].name} is outside the partition; substitute it first")
    n = len(p.y_side)
    row_mask = (1 << n) - 1
    rows: dict = {}
    numerators, _ = f.subset_masks(p.y_side + p.z_side)
    for mask, c in numerators.items():
        rows.setdefault(mask & row_mask, {})[mask >> n] = c
    return [rows[r] for r in sorted(rows)]


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}


def _echelon(rows) -> dict:
    """A row echelon basis of the rows' span, as {leading column: row}.

    Each row is reduced against the basis row with its leading column,
    r <- b_lead*r - r_lead*b, and made primitive, until its leading column
    is free (it joins the basis) or it vanishes (it was dependent).
    """
    basis: dict = {}
    for row in rows:
        r = _primitive({c: v for c, v in row.items() if v})
        while r:
            lead = min(r)
            b = basis.get(lead)
            if b is None:
                basis[lead] = r
                break
            bl, rl = b[lead], r[lead]
            out = {c: v * bl for c, v in r.items()}
            for c, v in b.items():
                w = out.get(c, 0) - rl * v
                if w:
                    out[c] = w
                else:
                    out.pop(c, None)
            r = _primitive(out)
    return basis


def exact_rank(rows) -> int:
    """Exact rank over the rationals by sparse fraction-free row echelon.

    rows are sparse rows {column: int}, as rank_matrix returns them; an
    explicit 0 counts as no entry.
    Every intermediate value is an exact integer, and a row is reduced only
    at pivot columns where it is nonzero; the rank is the number of rows in
    the echelon basis.
    """
    return len(_echelon(rows))


def balanced_partitions(uvars: Sequence[Var]):
    """All unordered balanced partitions, the first variable fixed to the row side."""
    uvars = tuple(uvars)
    n = len(uvars) // 2
    if not uvars or len(uvars) != 2 * n:
        raise ValueError(f"balanced partitions need 2n variables with n >= 1, not {len(uvars)}")
    first, rest = uvars[0], uvars[1:]
    for combo in itertools.combinations(rest, n - 1):
        y = (first,) + combo
        z = tuple(v for v in rest if v not in combo)
        yield Partition(y_side=y, z_side=z)


def fullrank_witness(wsets: Sequence, p: Partition) -> dict:
    """Control assignment making the gadgeted interval polynomial full rank.

    wsets are the interval sets of gadgeted_ry_circuit(n), as it returns
    them (interval_wvarsets(n)); the partition must cover u1..u2n.  An
    interval's balance is a difference of prefix sums over the sides.
    Raises RuntimeError if no balancing split exists at some same-side
    interval, which would contradict the construction; the failure is
    reported rather than patched.
    """
    n = wsets[-1].j // 2     # the last interval set is [1, 2n]'s
    expected = tuple(uvar(k) for k in range(1, 2 * n + 1))     # in Var order
    if tuple(sorted(p.y_side + p.z_side)) != expected:
        raise ValueError(f"partition must cover exactly u1..u{2 * n}")
    by_interval = {(ws.i, ws.j): ws for ws in wsets}
    assignment = dict.fromkeys((v for ws in wsets
                                for v in (ws.w_top, ws.w_leaf, *ws.address_vars)), _ZERO)
    y_side = set(p.y_side)
    prefix = [0]             # prefix[k]: row-side minus column-side among u1..uk
    for v in expected:
        prefix.append(prefix[-1] + (1 if v in y_side else -1))

    def balance(i: int, j: int) -> int:
        return prefix[j] - prefix[i - 1]

    def rec(i: int, j: int) -> None:
        if j < i:
            return
        if balance(i, j) != 0:
            raise RuntimeError(f"interval [{i},{j}] is not balanced under the partition")
        ws = by_interval[i, j]
        if balance(i, i) != balance(j, j):     # u_i and u_j lie on opposite sides
            assignment[ws.w_leaf] = _HALF
            rec(i + 1, j - 1)
            return
        idx = next((idx for idx, r in enumerate(ws.splits) if balance(i, r) == 0), None)
        if idx is None:
            raise RuntimeError(
                f"no balancing split for same-side interval [{i},{j}]; "
                "this contradicts the full-rank recursion")
        assignment[ws.w_top] = _ONE
        assignment.update((v, _ONE if bit else _ZERO) for v, bit in ws.addresses[idx])
        r = ws.splits[idx]
        rec(i, r)
        rec(r + 1, j)

    rec(1, 2 * n)
    return assignment
