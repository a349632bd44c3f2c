"""Batch command-line front end.

Subcommands: parse, normalize, transform, refute, verify, image, instance,
rank, funcref.  Exit codes follow the verifier convention: 0 verified/ok,
1 refuted, 2 usage or internal error.  All randomness flows from --seed;
identical invocations on identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import circuit as ci
from . import gadget as ga
from . import instances as ins
from . import rank as rk
from . import refute as rf
from . import verify as vf


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def cmd_parse(args) -> int:
    c = ci.parse_circuit(_read(args.input))
    if args.out:
        _write(args.out, ci.format_circuit(c))
    m = ci.measure(c)
    _print_json({
        "gates": len(c),
        "size": m.size,
        "depth": m.depth,
        "formula": c.is_formula,
        "variables": [v.name for v in c.variables()],
        "sha256": ci.circuit_sha256(c),
    })
    return 0


def cmd_normalize(args) -> int:
    c = ci.parse_circuit(_read(args.input))
    _write(args.out, ci.format_circuit(ci.normalize_layered(c)))
    return 0


def cmd_transform(args) -> int:
    c = ci.normalize_layered(ci.parse_circuit(_read(args.input)))
    cprime, ledger = ga.gadgetize(c)
    _write(args.out, ci.format_circuit(cprime))
    _write(args.ledger, ledger.to_json())
    m, mp = ci.measure(c), ci.measure(cprime)
    _print_json({"size": m.size, "size_transformed": mp.size,
                 "depth": m.depth, "depth_transformed": mp.depth,
                 "fresh_vars": len(ledger.fresh_vars())})
    return 0


def cmd_refute(args) -> int:
    cprime = ci.parse_circuit(_read(args.input))
    if args.ledger:
        ledger = ga.GadgetLedger.from_json(_read(args.ledger))
    else:
        ledger = ga.GadgetLedger(())
    cert = rf.assemble_refutation(cprime, ledger, shift=Fraction(args.shift))
    _write(args.out, rf.certificate_to_json(cert))
    _print_json({"axioms": len(cert.axioms), "total_size": cert.total_size,
                 "total_depth": cert.total_depth,
                 "instance_sha256": cert.instance_sha256})
    return 0


def cmd_verify(args) -> int:
    cert = rf.certificate_from_json(_read(args.cert))
    if args.mode == "exact":
        report = vf.verify_exact(cert)
    else:
        cfg = vf.PitConfig(prime=args.prime, trials=args.trials, seed=args.seed)
        report = vf.verify_pit(cert, cfg)
    _print_json(report.to_jsonable())
    return report.exit_code()


def cmd_image(args) -> int:
    c = ci.parse_circuit(_read(args.input))
    target = None
    if args.target:
        target = frozenset(Fraction(t.strip()) for t in args.target.split(","))
    report = vf.boolean_image(c, target=target, exhaustive_limit=args.exhaustive_limit,
                              samples=args.samples, seed=args.seed)
    values = ";".join(str(v) for v in sorted(report.values))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "mode", "points", "values", "contained"])
    writer.writerow([args.input,
                     "exhaustive" if report.exhaustive else "sampled",
                     report.points,
                     values,
                     "" if report.contained is None else str(report.contained).lower()])
    text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    if report.contained is False:
        return 1
    return 0


def _bundle(args) -> ins.InstanceBundle:
    beta = None if args.beta is None else Fraction(args.beta)
    return ins.FAMILIES[args.family](args.n, beta)


def cmd_instance(args) -> int:
    if args.family in ins.FAMILIES:
        bundle = _bundle(args)
        _write(args.out + ".instance.circ", ci.format_circuit(ci.as_circuit(bundle.instance)))
        _write(args.out + ".refutation.circ", ci.format_circuit(ci.as_circuit(bundle.refutation)))
        sidecar = {"generator": bundle.name, "params": bundle.params,
                   "provenance": bundle.provenance}
    elif args.family == "ry":
        _write(args.out + ".circ", ci.format_circuit(ins.ry_circuit(args.n)))
        sidecar = {"generator": "ry", "n": args.n,
                   "split_convention": "even-length subintervals only"}
    else:
        c, wsets = ins.gadgeted_ry_circuit(args.n)
        _write(args.out + ".circ", ci.format_circuit(c))
        sidecar = {"generator": "gadgeted-ry", "n": args.n,
                   "intervals": [{"i": w.i, "j": w.j,
                                  "w_top": w.w_top.name, "w_leaf": w.w_leaf.name,
                                  "address_vars": [v.name for v in w.address_vars]}
                                 for w in wsets]}
    _write(args.out + ".json", json.dumps(sidecar, indent=2) + "\n")
    return 0


def cmd_rank(args) -> int:
    if args.partition == "all":
        parts = list(rk.balanced_partitions([ins.uvar(k) for k in range(1, 2 * args.n + 1)]))
    else:
        parts = [rk.Partition.parse(args.partition)]
    p_circ, _ = ins.gadgeted_ry_circuit(args.n)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "rank", "witness"])
    for part in parts:
        witness = rk.fullrank_witness(args.n, part)
        sub = ci.partial_evaluate(p_circ, witness)
        mat = rk.rank_matrix(ci.expand(sub), part)
        r = rk.exact_rank(mat)
        wtext = ";".join(f"{v.name}={val}" for v, val in sorted(witness.items()))
        writer.writerow([part.format(), r, wtext])
    text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


def cmd_funcref(args) -> int:
    bundle = _bundle(args)
    ok = ins.functional_identity_holds(bundle)
    _print_json({"family": bundle.name, "params": bundle.params,
                 "identity": "reduce(refutation * instance) == 1",
                 "verdict": "verified-exact" if ok else "refuted"})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ipscert",
                                  description="circuit transforms and refutation certificates")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and canonicalize a circuit file")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("normalize", help="flatten into alternating layers")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("transform", help="attach addressing gadgets to addition gates")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("refute", help="build a Nullstellensatz certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--ledger")
    p.add_argument("--shift", default="-2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("verify", help="verify a certificate document")
    p.add_argument("--cert", required=True)
    p.add_argument("--mode", choices=("exact", "pit"), default="exact")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=vf.DEFAULT_PIT_PRIME)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("image", help="Boolean image of a circuit")
    p.add_argument("--input", required=True)
    p.add_argument("--target", help="comma-separated values, e.g. '0,1'")
    p.add_argument("--exhaustive-limit", type=int, default=16)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("instance", help="emit a hard-instance family member")
    p.add_argument("--family", required=True,
                   choices=("ry", "gadgeted-ry", *ins.FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_instance)

    p = sub.add_parser("rank", help="partition rank of the gadgeted family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", default="all", help="'u1,u3|u2,u4' or 'all'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("funcref", help="check a functional refutation identity")
    p.add_argument("--family", required=True, choices=tuple(ins.FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta")
    p.set_defaults(func=cmd_funcref)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser tree; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
