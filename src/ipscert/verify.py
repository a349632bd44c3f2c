"""Certificate verification: exact, probabilistic, and Boolean-image checks.

Both verifiers take a NullstellensatzCertificate: one gate table with a
root id per circuit axiom and cofactor (see refute).

verify_exact expands every cofactor and checks sum(cofactor * axiom) = 1 as
a polynomial identity, plus the placeholder discipline: cofactors may not
mention the reserved placeholder namespace, so the induced substitution
circuit sum_k placeholder_k * cofactor_k vanishes at placeholder zero and
is linear in every placeholder.  Each root is expanded on its own, every
gate it reaches once; nothing is kept from one root to the next.

verify_pit evaluates the same identity at seeded uniform points over a
large prime field (default: the 62-bit prime 2^62 - 57).  A false accept
happens with probability at most total-degree/prime per trial; a genuinely
valid certificate is never rejected.  The identity is one circuit,
ADD(MUL(axiom_0, cofactor_0), MUL(axiom_1, cofactor_1), ...), over the
certificate's gate table (hash-consed when read from a document), so a
gate shared by many cofactors is evaluated once per trial.  A constant
whose denominator vanishes mod the prime is named as the first such in the
written order of the axioms and cofactors, pair by pair.  Trial points are
derived from (seed, trial index), so identical configurations produce
identical reports.

boolean_image enumerates the value set of a circuit over the Boolean cube,
exhaustively when the variable count is small and by seeded sampling
otherwise.  The exhaustive image is a zeta transform of the multilinear
coefficients: the value at the point with support S is the sum of the
coefficients of the monomials inside S.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add

from .circuit import CONST, Circuit, compile_evaluator, expand, poly_to_circuit
from .poly import TERM_GUARD, SparsePoly, _Accumulator, frac_mod
from .refute import NullstellensatzCertificate

# 2^62 - 57, the largest 62-bit prime; comfortably above 2^61.
DEFAULT_PIT_PRIME = 4611686018427387847

# Namespace reserved for the placeholder variables of substitution circuits.
PLACEHOLDER_NS = "fresh"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PitConfig:
    """Parameters for probabilistic identity testing over GF(prime)."""

    prime: int = DEFAULT_PIT_PRIME
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.prime == 2:
            raise ValueError("prime 2 is excluded (the constructions divide by 2)")
        if not is_probable_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass
class VerifyReport:
    """Outcome of a verification run.

    verdict is one of verified-exact, verified-probabilistic, refuted,
    error; a refuted report carries a concrete falsifying assignment.
    """

    verdict: str
    detail: str = ""
    witness: dict | None = None
    work: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("verified-exact", "verified-probabilistic")

    def exit_code(self) -> int:
        if self.ok:
            return 0
        if self.verdict == "refuted":
            return 1
        return 2

    def to_jsonable(self) -> dict:
        doc = {"verdict": self.verdict, "detail": self.detail, "work": self.work}
        if self.witness is not None:
            doc["witness"] = {v.name: str(val) for v, val in self.witness.items()}
        return doc


def _nonzero_witness(p: SparsePoly) -> dict:
    """A rational point where the nonzero polynomial p does not vanish.

    Fixes variables one at a time: a polynomial of degree d in v cannot
    vanish identically at d+1 distinct values of v.
    """
    point: dict = {}
    current = p
    for v in p.variables():
        d = current.degree_in(v)
        for val in range(d + 1):
            restricted = current.restrict(v, val)
            if restricted:
                point[v] = Fraction(val)
                current = restricted
                break
        else:
            raise AssertionError("nonzero polynomial vanished at every probe")
    return point


def verify_exact(cert: NullstellensatzCertificate) -> VerifyReport:
    """Check sum(cofactor * axiom) = 1 by exact expansion, root by root."""
    if len(cert.axioms) != len(cert.cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    table = cert.table
    expansions = 0
    total = _Accumulator()
    for (label, ax), cf in zip(cert.axioms, cert.cofactors):
        ax_p = ax if isinstance(ax, SparsePoly) else table.expand(ax)
        cf_p = table.expand(cf)
        expansions += 2
        for v in cf_p.variables():
            if v.ns == PLACEHOLDER_NS:
                return VerifyReport(
                    "error",
                    detail=f"cofactor of {label} mentions placeholder variable {v.name}")
        total.add_product(cf_p, ax_p)
    total.add(SparsePoly.constant(-1))
    residual = total.result()
    if residual.is_zero():
        return VerifyReport("verified-exact", work={"expansions": expansions})
    witness = _nonzero_witness(residual)
    return VerifyReport(
        "refuted",
        detail="sum(cofactor * axiom) - 1 is not the zero polynomial",
        witness=witness,
        work={"expansions": expansions})


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"pit:{seed}:{trial}")


def _pairs(cert: NullstellensatzCertificate):
    """Each axiom, then its cofactor, as a polynomial or a root id."""
    for (_, ax), cf in zip(cert.axioms, cert.cofactors):
        yield ax
        yield cf


def verify_pit(cert: NullstellensatzCertificate, cfg: PitConfig = PitConfig()) -> VerifyReport:
    """Probabilistic identity check at cfg.trials seeded points mod cfg.prime.

    The identity circuit is compiled once and run once per trial; work still
    counts two evaluations (axiom and cofactor) per pair and trial.
    """
    if len(cert.axioms) != len(cert.cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    b = cert.table.copy()
    ids = [b.poly(x) if isinstance(x, SparsePoly) else x for x in _pairs(cert)]
    products = [b.mul(ids[k:k + 2]) for k in range(0, len(ids), 2)]
    identity = b.subcircuit(b.add(products) if products else b.const(0))
    run = compile_evaluator(identity)
    ordered = identity.variables()
    evaluations = 0
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        point = {v: rng.randrange(cfg.prime) for v in ordered}
        try:
            total = run(point, cfg.prime)
        except ZeroDivisionError:
            return VerifyReport("error", detail=_bad_constant(cert, cfg.prime))
        evaluations += len(ids)
        if total != 1 % cfg.prime:
            return VerifyReport(
                "refuted",
                detail=f"identity failed at trial {trial} mod {cfg.prime}",
                witness=dict(point),
                work={"evaluations": evaluations, "trials": trial + 1})
    return VerifyReport(
        "verified-probabilistic",
        detail=f"{cfg.trials} trials mod {cfg.prime}",
        work={"evaluations": evaluations, "trials": cfg.trials})


def _bad_constant(cert: NullstellensatzCertificate, prime: int) -> str:
    """The error of the first constant, in the written order of the axioms
    and cofactors pair by pair, whose denominator vanishes mod prime."""
    for x in _pairs(cert):
        c = poly_to_circuit(x) if isinstance(x, SparsePoly) else cert.table.formula(x)
        for g in c.gates:
            if g.op == CONST:
                try:
                    frac_mod(g.const, prime)
                except ZeroDivisionError as exc:
                    return str(exc)
    raise AssertionError("no constant's denominator vanishes mod the prime")


# ---------------------------------------------------------------------------
# Boolean image.

@dataclass
class ImageReport:
    """Observed value set of a circuit over the Boolean cube."""

    values: frozenset
    exhaustive: bool
    points: int
    contained: bool | None = None

    def to_jsonable(self) -> dict:
        return {
            "values": sorted(str(v) for v in self.values),
            "exhaustive": self.exhaustive,
            "points": self.points,
            "contained": self.contained,
        }


def boolean_image_poly(p: SparsePoly) -> frozenset:
    """Exact value set of a polynomial over all Boolean assignments.

    With the k variables of the multilinear reduction as bits, the value
    at the point with support S is a[S] = sum of c_T over T inside S.  The
    coefficients are scaled to integers over one common denominator, and
    the zeta transform fills all 2^k sums in place, one pass per variable:
    each pass adds the half of every block with the variable at 0 into the
    half with it at 1.  Raises ValueError if 2^k exceeds TERM_GUARD.
    """
    reduced = p.multilinear_reduce()
    vars_ = reduced.variables()
    size = 1 << len(vars_)
    if size > TERM_GUARD:
        raise ValueError(f"exhaustive Boolean image over {len(vars_)} variables "
                         f"needs 2^{len(vars_)} values, over the 2^24 guard")
    coeffs = reduced.subset_masks(vars_)
    den = lcm(*(c.denominator for c in coeffs.values()))
    a = [0] * size
    for mask, c in coeffs.items():
        a[mask] = c.numerator * (den // c.denominator)
    step = 1
    while step < size:
        span = 2 * step
        if span * step >= size:
            # Few wide blocks: one slice per block.
            for lo in range(0, size, span):
                a[lo + step:lo + span] = map(add, a[lo + step:lo + span], a[lo:lo + step])
        else:
            # Many narrow blocks: one strided slice per offset in the block.
            for off in range(step):
                a[step + off::span] = map(add, a[step + off::span], a[off::span])
        step = span
    return frozenset(Fraction(v, den) for v in set(a))


def boolean_image(c: Circuit, target: frozenset | None = None,
                  exhaustive_limit: int = 16, samples: int = 20000,
                  seed: int = 0) -> ImageReport:
    """Value set of the circuit over Boolean inputs.

    Exhaustive when the circuit has at most exhaustive_limit variables,
    otherwise sampled at `samples` seeded uniform Boolean points.
    """
    vars_ = c.variables()
    if len(vars_) <= exhaustive_limit:
        values = boolean_image_poly(expand(c))
        report = ImageReport(values=values, exhaustive=True, points=1 << len(vars_))
    else:
        rng = random.Random(f"image:{seed}")
        run = compile_evaluator(c)
        seen: set = set()
        for _ in range(samples):
            point = {v: rng.randrange(2) for v in vars_}
            seen.add(Fraction(run(point)))
        report = ImageReport(values=frozenset(seen), exhaustive=False, points=samples)
    if target is not None:
        report.contained = report.values <= frozenset(Fraction(t) for t in target)
    return report
