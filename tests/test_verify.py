import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (build_corpus, certificate_of, laid_out, mutate_certificate, pointwise,
                     random_layered_formula, ref_evaluate, ref_evaluate_mod)

from ipscert import verify as verify_module
from ipscert.circuit import (
    Circuit,
    CircuitBuilder,
    as_circuit,
    cadd,
    cconst,
    cmul,
    cscale,
    cvar,
    compile_evaluator,
    eval_circuit,
    expand,
    normalize_layered,
    poly_to_circuit,
)
from ipscert.gadget import gadgetize
from ipscert.poly import SparsePoly, Var
from ipscert.refute import (
    NullstellensatzCertificate,
    assemble_refutation,
    certificate_from_json,
    certificate_to_json,
)
from ipscert.verify import (
    DEFAULT_PIT_PRIME,
    PitConfig,
    VerifyReport,
    _formal_degree,
    _identity,
    boolean_image,
    boolean_image_poly,
    check_claims,
    is_probable_prime,
    verify_exact,
    verify_pit,
)

X1, X2 = Var("x", 1), Var("x", 2)


def leaf_certificate():
    from ipscert.gadget import GadgetLedger

    return assemble_refutation(cvar(X1), GadgetLedger(()))


def test_default_prime_is_a_62_bit_prime():
    assert DEFAULT_PIT_PRIME == 2 ** 62 - 57
    assert DEFAULT_PIT_PRIME > 2 ** 61
    assert is_probable_prime(DEFAULT_PIT_PRIME)


def test_pit_config_validation():
    with pytest.raises(ValueError, match="not prime"):
        PitConfig(prime=2 ** 61)
    with pytest.raises(ValueError, match="prime 2"):
        PitConfig(prime=2)
    with pytest.raises(ValueError, match="trials"):
        PitConfig(trials=0)


def test_verify_exact_hand_example():
    cert = leaf_certificate()
    report = verify_exact(cert)
    assert report.verdict == "verified-exact"
    assert report.ok and report.exit_code() == 0


def test_verify_exact_flipped_sign_refuted_with_witness():
    axioms, cofactors = laid_out(leaf_certificate())
    cofactors[1] = cscale(-1, cofactors[1])
    report = verify_exact(certificate_of(axioms, cofactors))
    assert report.verdict == "refuted"
    assert report.witness is not None
    residual = SparsePoly.zero() - 1
    for (_, ax), cf in zip(axioms, cofactors):
        axp = ax if isinstance(ax, SparsePoly) else expand(ax)
        residual = residual + expand(cf) * axp
    assert ref_evaluate(dict(residual.items()), report.witness) != 0


def test_verify_exact_trivial_certificate():
    axioms = (("one", SparsePoly.constant(1)),)
    cofactors = (cconst(1),)
    assert verify_exact(certificate_of(axioms, cofactors)).verdict == "verified-exact"


def test_verify_exact_rejects_placeholder_use():
    axioms = (("one", SparsePoly.constant(1)),)
    cofactors = (cadd(cconst(1), cvar(Var("fresh", 1))),)
    report = verify_exact(certificate_of(axioms, cofactors))
    assert report.verdict == "error"
    assert "placeholder" in report.detail


def test_verify_exact_length_mismatch():
    assert verify_exact(certificate_of((), (cconst(1),))).verdict == "error"


def test_pit_accepts_valid_certificate_many_seeds():
    cert = leaf_certificate()
    for seed in range(100):
        cfg = PitConfig(trials=5, seed=seed)
        assert verify_pit(cert, cfg).verdict == "verified-probabilistic"


def test_pit_determinism():
    cert = leaf_certificate()
    cfg = PitConfig(trials=7, seed=42)
    r1 = verify_pit(cert, cfg)
    r2 = verify_pit(cert, cfg)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_pit_rejects_mutations():
    rng = random.Random(5)
    base = build_corpus(551, 3)
    certs = []
    for c in base:
        cp, ledger = gadgetize(normalize_layered(c))
        certs.append(assemble_refutation(cp, ledger))
    for i in range(30):
        cert = certs[i % len(certs)]
        mutated = mutate_certificate(rng, cert, seed=i)
        cfg = PitConfig(trials=20, seed=i)
        report = verify_pit(mutated, cfg)
        assert report.verdict == "refuted"
        assert report.witness is not None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_transform_then_certificate_on_random_layered_formulas(seed):
    rng = random.Random(seed)
    cp, ledger = gadgetize(normalize_layered(random_layered_formula(rng, max_nodes=20)))
    cert = assemble_refutation(cp, ledger)
    assert check_claims(cert) is None
    cfg = PitConfig(trials=5, seed=seed)
    assert verify_exact(cert).verdict == "verified-exact"
    assert verify_pit(cert, cfg).verdict == "verified-probabilistic"
    axioms, cofactors = laid_out(cert)
    axioms = [ax if isinstance(ax, Circuit) else poly_to_circuit(ax) for _, ax in axioms]
    vars_ = sorted({v for c in axioms + cofactors for v in c.variables()}, key=lambda v: v._key)
    for _ in range(3):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in vars_}
        assert sum(pointwise(cf)(point) * pointwise(ax)(point)
                   for ax, cf in zip(axioms, cofactors)) == 1
    mutated = mutate_certificate(rng, cert, seed)
    assert verify_exact(mutated).verdict == "refuted"
    assert verify_pit(mutated, cfg).verdict == "refuted"


def test_pit_denominator_divisible_by_prime():
    axioms = (("f", SparsePoly.constant(Fraction(1, 3))),)
    cofactors = (cconst(3),)
    report = verify_pit(certificate_of(axioms, cofactors), PitConfig(prime=3, trials=1))
    assert report.verdict == "error"
    assert "denominator" in report.detail and "3" in report.detail
    # Two constants vanish mod 5.  The error names the first in written
    # order, pair by pair, not the first in the table, which reads the
    # axioms first and holds one CONST 7/5 for both of its uses.
    axioms = (("f", cadd(cvar(X1), cconst(1))), ("g", cmul(cconst(Fraction(7, 5)), cvar(X2))))
    cofactors = (cadd(cmul(cvar(X1), cconst(Fraction(3, 10))), cconst(Fraction(7, 5))), cconst(1))
    report = verify_pit(certificate_of(axioms, cofactors), PitConfig(prime=5, trials=1))
    assert report.verdict == "error"
    assert report.detail == "denominator 10 of constant 3/10 is divisible by prime 5"


def ci_chain_certificate() -> NullstellensatzCertificate:
    """The certificate the CI chain refutes x1*(x2 + x3) + x4 with."""
    x3, x4 = Var("x", 3), Var("x", 4)
    c = cadd(cmul(cvar(X1), cadd(cvar(X2), cvar(x3))), cvar(x4))
    return assemble_refutation(*gadgetize(normalize_layered(c)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pit_refuses_a_prime_at_or_below_the_formal_degree(p):
    # q (x1^2 - x1) = x1^p - x1 for q = sum_{j < p-1} x1^j: added to x1's
    # cofactor, it leaves a residual that vanishes at every point of GF(p).
    cert = ci_chain_certificate()
    assert _formal_degree(_identity(cert)) == 12
    axioms, cofactors = laid_out(cert)
    k = [label for label, _ in axioms].index("x1^2-x1")
    x, q, power = SparsePoly.variable(X1), SparsePoly.constant(0), SparsePoly.constant(1)
    for _ in range(p - 1):
        q, power = q + power, power * x
    cofactors[k] = cadd(cofactors[k], poly_to_circuit(q))
    forged = certificate_of(axioms, cofactors, instance_sha256=cert.instance_sha256,
                            shift=cert.shift)
    assert check_claims(forged) is None
    assert verify_exact(forged).verdict == "refuted"
    with pytest.raises(ValueError, match=f"^--prime {p} is not above 1[0-9], the formal degree"):
        verify_pit(forged, PitConfig(prime=p, trials=50))
    assert verify_pit(forged).verdict == "refuted"
    with pytest.raises(ValueError, match="^--prime 11 is not above 12"):
        verify_pit(cert, PitConfig(prime=11))
    assert verify_pit(cert, PitConfig(prime=13)).verdict == "verified-probabilistic"


def test_formal_degree_bounds_the_identity_degree(transformed01):
    rng = random.Random(29)
    for k, (_, cp, ledger) in enumerate(transformed01[::10]):
        cert = assemble_refutation(cp, ledger)
        for c in (cert, mutate_certificate(rng, cert, seed=k)):
            identity = _identity(c)
            assert _formal_degree(identity) >= expand(identity).total_degree()
            axioms, cofactors = laid_out(c)
            for (_, ax), cf in zip(axioms, cofactors):
                pair = cmul(as_circuit(ax), cf)
                assert _formal_degree(pair) >= expand(pair).total_degree()


def reference_pit(axioms, cofactors, cfg):
    """verify_pit pair by pair: each axiom and cofactor compiled on its own
    and evaluated separately at every trial (the per-copy algorithm)."""
    if len(axioms) != len(cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    vars_seen: set = set()
    for (_, ax), cf in zip(axioms, cofactors):
        vars_seen.update(ax.variables())
        vars_seen.update(cf.variables())
    ordered = sorted(vars_seen, key=lambda v: v._key)
    runs = [pointwise(x if isinstance(x, Circuit) else poly_to_circuit(x))
            for (_, ax), cf in zip(axioms, cofactors) for x in (ax, cf)]
    evaluations = 0
    for trial in range(cfg.trials):
        rng = random.Random(f"pit:{cfg.seed}:{trial}")
        point = {v: rng.randrange(cfg.prime) for v in ordered}
        total = 0
        try:
            for ax_run, cf_run in zip(runs[::2], runs[1::2]):
                av = ax_run(point, cfg.prime)
                cv = cf_run(point, cfg.prime)
                evaluations += 2
                total = (total + av * cv) % cfg.prime
        except ZeroDivisionError as exc:
            return VerifyReport("error", detail=str(exc))
        if total != 1 % cfg.prime:
            return VerifyReport(
                "refuted", detail=f"identity failed at trial {trial} mod {cfg.prime}",
                witness=dict(point), work={"evaluations": evaluations, "trials": trial + 1})
    return VerifyReport(
        "verified-probabilistic", detail=f"{cfg.trials} trials mod {cfg.prime}",
        work={"evaluations": evaluations, "trials": cfg.trials})


def assert_pit_matches_reference(cert, cfg):
    report = verify_pit(cert, cfg)
    assert report.to_jsonable() == reference_pit(*laid_out(cert), cfg).to_jsonable()
    return report


def test_pit_matches_the_per_pair_reference_on_corpus_certificates(transformed01):
    certs = [assemble_refutation(cp, ledger) for _, cp, ledger in transformed01[::10]]
    assert len(certs) == 20
    for k, cert in enumerate(certs):
        report = assert_pit_matches_reference(cert, PitConfig(trials=5, seed=k))
        assert report.verdict == "verified-probabilistic"
        assert_pit_matches_reference(certificate_from_json(certificate_to_json(cert)),
                                     PitConfig(trials=5, seed=k))
    rng = random.Random(17)
    verdicts = set()
    for i in range(30):
        mutated = mutate_certificate(rng, certs[i % len(certs)], seed=i)
        for cfg in (PitConfig(trials=20, seed=i), PitConfig(prime=101, trials=20, seed=i)):
            verdicts.add(assert_pit_matches_reference(mutated, cfg).verdict)
    assert "refuted" in verdicts


@pytest.mark.parametrize("axioms, cofactors, prime", [
    ((("f", SparsePoly.constant(Fraction(1, 3))),), (cconst(3),), 3),
    ((("f", cconst(1)), ("g", cconst(Fraction(1, 5)))), (cconst(Fraction(1, 7)), cconst(2)), 7),
    ((("f", cconst(1)),), (cconst(2),), 11),
    ((), (), 11),
    ((("f", cconst(1)),), (), 11),
    ((("f", cconst(1)), ("g", cconst(Fraction(1, 14)))), (cconst(Fraction(1, 7)), cconst(2)), 7),
])
def test_pit_matches_the_per_pair_reference_on_edge_cases(axioms, cofactors, prime):
    cert = certificate_of(axioms, cofactors)
    assert_pit_matches_reference(cert, PitConfig(prime=prime, trials=3))
    # Read back, the axioms come before the cofactors in the table.
    assert_pit_matches_reference(certificate_from_json(certificate_to_json(cert)),
                                 PitConfig(prime=prime, trials=3))


def test_verify_invariant_under_restructuring():
    c = cadd(cvar(X1), cmul(cvar(X2), cvar(X1)))
    cp, ledger = gadgetize(normalize_layered(c))
    cert = assemble_refutation(cp, ledger)
    axioms, cofactors = laid_out(cert)
    restructured = [normalize_layered(cf) for cf in cofactors]
    assert verify_exact(certificate_of(axioms, restructured)).verdict == "verified-exact"


def test_boolean_image_product():
    report = boolean_image(cmul(cvar(X1), cvar(X2)))
    assert report.exhaustive
    assert report.values == frozenset((Fraction(0), Fraction(1)))


def test_boolean_image_matches_pointwise_oracle():
    rng = random.Random(61)
    from helpers import random_dag_circuit

    for _ in range(15):
        c = random_dag_circuit(rng, n_gates=rng.randint(6, 18))
        report = boolean_image(c)
        assert report.exhaustive
        vars_ = c.variables()
        oracle = set()
        for bits in itertools.product((0, 1), repeat=len(vars_)):
            oracle.add(eval_circuit(c, dict(zip(vars_, bits))))
        assert report.values == frozenset(oracle)


def test_boolean_image_poly_oracle_agreement():
    p = SparsePoly.variable(X1) * 2 - SparsePoly.variable(X2)
    assert boolean_image_poly(p) == frozenset(
        (Fraction(0), Fraction(2), Fraction(-1), Fraction(1)))


def random_expanded_formula(rng, vars_, depth):
    """A random formula over vars_ with negative and rational constants."""
    b = CircuitBuilder()
    consts = (-3, -1, 2, Fraction(-1, 3), Fraction(5, 2), Fraction(7, 4))

    def node(d):
        if d == 0 or rng.random() < 0.2:
            if rng.random() < 0.3:
                return b.const(rng.choice(consts))
            return b.var(rng.choice(vars_))
        kids = [node(d - 1) for _ in range(rng.randint(2, 3))]
        return b.add(kids) if rng.random() < 0.5 else b.mul(kids)

    return b.build(node(depth))


def image_by_evaluation(c):
    """The value set of c from compile_evaluator at every point of its cube,
    evaluated as one batch."""
    vars_ = c.variables()
    cube = list(itertools.product((0, 1), repeat=len(vars_)))
    return frozenset(map(Fraction, compile_evaluator(c)(dict(zip(vars_, zip(*cube))), len(cube))))


def test_boolean_image_poly_matches_compiled_evaluation_at_every_cube_point():
    rng = random.Random(89)
    pool = [Var("x", i) for i in range(1, 10)]
    sizes = set()
    for _ in range(60):
        c = random_expanded_formula(rng, rng.sample(pool, rng.randint(1, 9)), rng.randint(1, 4))
        image = boolean_image_poly(expand(c))
        assert image == image_by_evaluation(c)
        sizes.add(len(image))
    assert len(sizes) > 10


@pytest.mark.parametrize("build, image", [
    # the zero polynomial
    (lambda b: b.add([b.var(X1), b.mul([b.const(-1), b.var(X1)])]), {0}),
    # a constant, with and without variables in the circuit
    (lambda b: b.const(Fraction(-7, 3)), {Fraction(-7, 3)}),
    (lambda b: b.add([b.const(Fraction(-7, 3)), b.mul([b.const(0), b.var(X2)])]),
     {Fraction(-7, 3)}),
    # x1^2 - x1 vanishes on the cube, so only x3 is left of x1, x2, x3
    (lambda b: b.add([b.mul([b.var(X1), b.var(X1)]), b.mul([b.const(-1), b.var(X1)]),
                      b.mul([b.const(Fraction(5, 2)), b.var(Var("x", 3))]),
                      b.mul([b.var(X2), b.const(0)])]),
     {0, Fraction(5, 2)}),
])
def test_boolean_image_poly_edge_cases(build, image):
    b = CircuitBuilder()
    c = b.build(build(b))
    p = expand(c)
    assert len(p.multilinear_reduce().variables()) < len(c.variables()) or not c.variables()
    assert boolean_image_poly(p) == frozenset(Fraction(v) for v in image) == image_by_evaluation(c)


def test_boolean_image_poly_guards_the_cube_size(monkeypatch):
    xs = [SparsePoly.variable(Var("x", i)) for i in range(1, 26)]
    with pytest.raises(ValueError, match="25 variables"):
        boolean_image_poly(sum(xs, SparsePoly.zero()))
    monkeypatch.setattr(verify_module, "TERM_GUARD", 1 << 4)
    assert boolean_image_poly(sum(xs[:4], SparsePoly.zero())) == frozenset(range(5))
    with pytest.raises(ValueError, match="5 variables"):
        boolean_image_poly(sum(xs[:5], SparsePoly.zero()))


def test_boolean_image_sampling_mode():
    vars_ = [Var("x", i) for i in range(1, 20)]
    parts = [cvar(v) for v in vars_]
    c = cadd(*parts)
    report = boolean_image(c, exhaustive_limit=10, samples=500, seed=1)
    assert not report.exhaustive
    assert report.points == 500
    assert all(0 <= v <= 19 for v in report.values)
    again = boolean_image(c, exhaustive_limit=10, samples=500, seed=1)
    assert report.values == again.values


def test_boolean_image_containment_verdict():
    report = boolean_image(cmul(cvar(X1), cvar(X2)), target=frozenset((0, 1)))
    assert report.contained is True
    report = boolean_image(cadd(cvar(X1), cvar(X2)), target=frozenset((0, 1)))
    assert report.contained is False


CHUNK = verify_module._IMAGE_CHUNK


def reference_points(seed, width, samples):
    """The sampled image's points drawn one coordinate at a time by
    rng.randrange(2): the reference for the bulk draw."""
    rng = random.Random(f"image:{seed}")
    return [[rng.randrange(2) for _ in range(width)] for _ in range(samples)]


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 13, 17, 29, 31, 32, 33, 40])
def test_sampled_bits_are_the_points_of_randrange(width):
    longest = 2 * CHUNK + 5
    for seed in (0, 20260810):
        expected = bytes(b for point in reference_points(seed, width, longest) for b in point)
        for samples in (1, CHUNK - 1, CHUNK, CHUNK + 1, longest):
            rng = random.Random(f"image:{seed}")
            chunks = list(verify_module._sampled_bits(rng, width, samples))
            assert [count for count, _ in chunks] == \
                [min(CHUNK, samples - s) for s in range(0, samples, CHUNK)]
            assert all(len(bits) == count * width for count, bits in chunks)
            assert b"".join(bits for _, bits in chunks) == expected[:samples * width]


@pytest.mark.parametrize("n_vars, samples, seed", [
    (17, 300, 0), (20, CHUNK, 3), (24, CHUNK + 3, 11), (40, 2 * CHUNK + 1, 5)])
def test_sampled_image_is_the_set_of_reference_points(n_vars, samples, seed):
    # sum_j 2^j x_j: the value of the circuit is its point, written in binary.
    weight = {Var("x", j): 1 << j for j in range(n_vars)}
    b = CircuitBuilder()
    c = b.build(b.add([b.mul([b.const(w), b.var(v)]) for v, w in weight.items()]))
    report = boolean_image(c, samples=samples, seed=seed)
    assert not report.exhaustive and report.points == samples
    assert report.values == frozenset(
        Fraction(sum(weight[v] * bit for v, bit in zip(c.variables(), point)))
        for point in reference_points(seed, n_vars, samples))


def test_sampled_image_of_a_constant_circuit():
    # 0 * x1 * ... * x20 + 5 is 5 at every point of its 2^20 cube.
    b = CircuitBuilder()
    product = b.mul([b.const(0)] + [b.var(Var("x", j)) for j in range(1, 21)])
    c = b.build(b.add([product, b.const(5)]))
    report = boolean_image(c, target=frozenset((5,)), samples=CHUNK + 7, seed=2)
    assert not report.exhaustive and report.points == CHUNK + 7
    assert report.values == frozenset((Fraction(5),))
    assert report.contained is True


@pytest.mark.parametrize("kwargs, name", [
    ({"samples": 0}, "samples"), ({"samples": -5}, "samples"),
    ({"exhaustive_limit": -1}, "exhaustive_limit")])
def test_boolean_image_rejects_bad_sample_counts(kwargs, name):
    with pytest.raises(ValueError, match=name):
        boolean_image(cadd(cvar(X1), cvar(X2)), **kwargs)


def test_batch_evaluation_agrees_with_expansion_at_every_point():
    rng = random.Random(53)
    xs = [Var("x", j) for j in range(1, 13)]
    b = CircuitBuilder()
    leaves = [b.var(v) for v in xs] + [b.const(Fraction(1, 3)), b.const(-2)]
    # Fan-ins on both sides of the nested-map limit, and a fan-in-1 gate.
    wide = b.add([b.mul(rng.sample(leaves, k)) for k in (1, 2, 3, 8, 9, 14)])
    c = b.build(b.mul([wide, b.add(leaves[:11]), b.add([leaves[0]])]))
    run, terms = compile_evaluator(c), dict(expand(c).items())
    count = 25
    for draw in (lambda: rng.randrange(2), lambda: rng.randint(-9, 9),
                 lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
        points = [{v: draw() for v in xs} for _ in range(count)]
        columns = {v: [p[v] for p in points] for v in xs}
        assert run(columns, count) == [ref_evaluate(terms, p) for p in points]
        integral = all(type(x) is int for p in points for x in p.values())
        for prime in (101, DEFAULT_PIT_PRIME) if integral else ():
            assert run(columns, count, prime) == [ref_evaluate_mod(terms, p, prime) for p in points]
    assert compile_evaluator(cvar(X1))({X1: bytes((0, 1, 1))}, 3) == [0, 1, 1]
    assert compile_evaluator(cconst(Fraction(7, 2)))({}, 3) == [Fraction(7, 2)] * 3
    assert compile_evaluator(cconst(Fraction(7, 2)))({}, 3, 11) == [9] * 3
    with pytest.raises(ValueError, match="x1 has 2 values for 3 points"):
        run({v: [0, 1] for v in xs}, 3)
