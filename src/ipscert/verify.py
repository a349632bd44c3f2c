"""Certificate verification: exact, probabilistic, and Boolean-image checks.

verify_exact expands every cofactor and checks sum(cofactor * axiom) = 1 as
a polynomial identity, plus the placeholder discipline: cofactors may not
mention the reserved placeholder namespace, so the induced substitution
circuit sum_k placeholder_k * cofactor_k vanishes at placeholder zero and
is linear in every placeholder.

verify_pit evaluates the same identity at seeded uniform points over a
large prime field (default: the 62-bit prime 2^62 - 57).  A false accept
happens with probability at most total-degree/prime per trial; a genuinely
valid certificate is never rejected.  Trial points are derived from
(seed, trial index), so parallel and serial runs agree and identical
configurations produce identical reports.

boolean_image enumerates the value set of a circuit over the Boolean cube,
exhaustively when the variable count is small and by seeded sampling
otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .circuit import Circuit, compile_evaluator, expand
from .poly import SparsePoly, _Accumulator

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


def _expanded(x) -> SparsePoly:
    """The polynomial of an axiom or cofactor given as a circuit or a polynomial."""
    return expand(x) if isinstance(x, Circuit) else x


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


def verify_exact(axioms: Sequence, cofactors: Sequence) -> VerifyReport:
    """Check sum(cofactor * axiom) = 1 by exact expansion."""
    if len(axioms) != len(cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    expansions = 0
    total = _Accumulator()
    for (label, ax), cf in zip(axioms, cofactors):
        ax_p = _expanded(ax)
        cf_p = _expanded(cf)
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


def _evaluator(x):
    """run(assignment, prime) for an axiom or cofactor circuit or polynomial."""
    return compile_evaluator(x) if isinstance(x, Circuit) else x.evaluate_mod


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"pit:{seed}:{trial}")


def verify_pit(axioms: Sequence, cofactors: Sequence, cfg: PitConfig = PitConfig()) -> VerifyReport:
    """Probabilistic identity check at cfg.trials seeded points mod cfg.prime."""
    if len(axioms) != len(cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    vars_seen: set = set()
    for (label, ax), cf in zip(axioms, cofactors):
        vars_seen.update(ax.variables() if isinstance(ax, (Circuit, SparsePoly)) else ())
        vars_seen.update(cf.variables())
    ordered = sorted(vars_seen, key=lambda v: v._key)
    pairs = [(_evaluator(ax), _evaluator(cf)) for (_, ax), cf in zip(axioms, cofactors)]
    evaluations = 0
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        point = {v: rng.randrange(cfg.prime) for v in ordered}
        total = 0
        try:
            for ax_run, cf_run in pairs:
                av = ax_run(point, cfg.prime)
                cv = cf_run(point, cfg.prime)
                evaluations += 2
                total = (total + av * cv) % cfg.prime
        except ZeroDivisionError as exc:
            return VerifyReport("error", detail=str(exc))
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
    """Exact value set of a polynomial over all Boolean assignments."""
    reduced = p.multilinear_reduce()
    values: set = set()

    def split(q: SparsePoly, vs: tuple):
        if not vs:
            values.add(q.constant_term())
            return
        v, rest = vs[0], vs[1:]
        split(q.restrict(v, 0), rest)
        split(q.restrict(v, 1), rest)

    split(reduced, reduced.variables())
    return frozenset(values)


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
