import contextlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

from helpers import build_corpus, mutate_certificate

from ipscert.circuit import (
    cadd,
    cmul,
    cvar,
    format_circuit,
    measure,
    normalize_layered,
    parse_circuit,
)
from ipscert import cli
from ipscert.cli import main
from ipscert.gadget import GadgetLedger, gadgetize
from ipscert.poly import Var
from ipscert.refute import assemble_refutation, certificate_to_json


X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_parse_round_trip_is_byte_exact(tmp_path):
    c = cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))
    src = tmp_path / "c.circ"
    out1 = tmp_path / "c1.circ"
    out2 = tmp_path / "c2.circ"
    write(src, format_circuit(c))
    assert main(["parse", "--input", str(src), "--out", str(out1)]) == 0
    assert main(["parse", "--input", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == src.read_bytes() == out2.read_bytes()


def test_parse_reports_metrics(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cadd(cvar(X1), cvar(X2))))
    assert main(["parse", "--input", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2 and doc["depth"] == 1 and doc["formula"] is True
    assert doc["variables"] == ["x1", "x2"]


def test_usage_error_exits_2(tmp_path, capsys):
    assert main(["parse"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["parse", "--input", str(tmp_path / "missing.circ")]) == 2


def test_end_to_end_refute_verify(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))))
    cp = tmp_path / "cp.circ"
    ledger = tmp_path / "l.json"
    cert = tmp_path / "cert.json"
    assert main(["transform", "--input", str(src), "--out", str(cp), "--ledger", str(ledger)]) == 0
    assert main(["refute", "--input", str(cp), "--ledger", str(ledger),
                 "--shift", "-2", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "pit",
                 "--trials", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "verified-exact" in out and "verified-probabilistic" in out


def test_refute_leaf_without_ledger(tmp_path):
    src = tmp_path / "x.circ"
    write(src, format_circuit(cvar(X1)))
    cert = tmp_path / "cert.json"
    assert main(["refute", "--input", str(src), "--shift", "-2", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0


def test_verify_mutated_certificate_exits_1(tmp_path):
    c = normalize_layered(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3)))
    cp, ledger = gadgetize(c)
    cert = assemble_refutation(cp, ledger)
    mutated = mutate_certificate(random.Random(3), cert, seed=99)
    path = tmp_path / "mutated.json"
    write(path, certificate_to_json(mutated))
    assert main(["verify", "--cert", str(path), "--mode", "pit",
                 "--trials", "20", "--seed", "7"]) == 1
    assert main(["verify", "--cert", str(path), "--mode", "exact"]) == 1


def test_pipeline_determinism(tmp_path):
    c = build_corpus(881, 1)[0]
    src = tmp_path / "c.circ"
    write(src, format_circuit(c))
    outs = []
    for tag in ("a", "b"):
        cp = tmp_path / f"cp_{tag}.circ"
        led = tmp_path / f"l_{tag}.json"
        cert = tmp_path / f"cert_{tag}.json"
        assert main(["transform", "--input", str(src), "--out", str(cp),
                     "--ledger", str(led)]) == 0
        assert main(["refute", "--input", str(cp), "--ledger", str(led),
                     "--out", str(cert)]) == 0
        outs.append((cp.read_bytes(), led.read_bytes(), cert.read_bytes()))
    assert outs[0] == outs[1]


def test_normalize_command(tmp_path):
    src = tmp_path / "c.circ"
    out = tmp_path / "n.circ"
    write(src, format_circuit(cmul(cvar(X1), cvar(X2))))
    assert main(["normalize", "--input", str(src), "--out", str(out)]) == 0
    n = parse_circuit(out.read_text())
    assert n.gates[n.output].op == "ADD"


def test_image_command_csv(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cmul(cvar(X1), cvar(X2))))
    assert main(["image", "--input", str(src), "--target", "0,1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "source,mode,points,values,contained"
    assert "exhaustive" in out and "0;1" in out and "true" in out
    # additive circuit escapes {0,1}
    write(src, format_circuit(cadd(cvar(X1), cvar(X2))))
    assert main(["image", "--input", str(src), "--target", "0,1"]) == 1


def test_image_over_too_many_variables_exits_2_at_once(tmp_path, capsys):
    src = tmp_path / "sum.circ"
    write(src, format_circuit(cadd(*(cvar(Var("x", i)) for i in range(1, 26)))))
    started = time.perf_counter()
    assert main(["image", "--input", str(src), "--exhaustive-limit", "30"]) == 2
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert captured.out == "" and "25 variables" in captured.err


def test_one_parser_serves_every_call_of_main(monkeypatch):
    argv_list = [["rank", "--n"],
                 ["--help"],
                 ["funcref", "--family", "mnc", "--n", "1"],
                 ["rank", "--n", "2", "--partition", "u1,u3|u2,u4"]]

    def run_all():
        outs = []
        for argv in argv_list:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            outs.append((rc, out.getvalue(), err.getvalue()))
        return outs

    shared = run_all()
    assert cli._parser() is cli._parser()
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0]
    assert "expected one argument" in shared[0][2] and "usage: ipscert" in shared[1][1]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == shared


def test_instance_and_funcref_commands(tmp_path, capsys):
    prefix = tmp_path / "mnc1"
    assert main(["instance", "--family", "mnc", "--n", "1", "--out", str(prefix)]) == 0
    assert (tmp_path / "mnc1.instance.circ").exists()
    assert (tmp_path / "mnc1.refutation.circ").exists()
    sidecar = json.loads((tmp_path / "mnc1.json").read_text())
    assert sidecar["generator"] == "mnc"
    assert main(["funcref", "--family", "mnc", "--n", "1"]) == 0
    assert main(["funcref", "--family", "subset-sum", "--n", "5"]) == 0
    assert main(["funcref", "--family", "subset-sum", "--n", "5", "--beta", "26"]) == 0
    assert main(["funcref", "--family", "lifted-subset-sum", "--n", "3"]) == 0
    prefix2 = tmp_path / "ss"
    assert main(["instance", "--family", "subset-sum", "--n", "4", "--out", str(prefix2)]) == 0
    sidecar = json.loads((tmp_path / "ss.json").read_text())
    assert "alphas" in sidecar["provenance"]


def test_instance_gadgeted_ry_sidecar(tmp_path):
    prefix = tmp_path / "gry"
    assert main(["instance", "--family", "gadgeted-ry", "--n", "2", "--out", str(prefix)]) == 0
    sidecar = json.loads((tmp_path / "gry.json").read_text())
    intervals = {(e["i"], e["j"]): e for e in sidecar["intervals"]}
    assert intervals[(1, 4)]["address_vars"] == ["w_1_4_0"]
    c = parse_circuit((tmp_path / "gry.circ").read_text())
    assert len(c.variables()) == 13


def test_instance_ry_emission(tmp_path):
    prefix = tmp_path / "ry2"
    assert main(["instance", "--family", "ry", "--n", "2", "--out", str(prefix)]) == 0
    from ipscert.circuit import expand
    from ipscert.instances import ry_circuit

    c = parse_circuit((tmp_path / "ry2.circ").read_text())
    assert expand(c) == expand(ry_circuit(2))


def test_rank_command_csv(tmp_path, capsys):
    import csv as csvmod

    assert main(["rank", "--n", "1", "--partition", "u1|u2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "partition,rank,witness"
    assert lines[1].startswith("u1|u2,2,")
    assert "w_1_2_leaf=1/2" in lines[1]
    report = tmp_path / "rank.csv"
    assert main(["rank", "--n", "2", "--partition", "all", "--out", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert len(rows) == 4  # header + 3 balanced partitions
    assert all(row[1] == "4" for row in rows[1:])


def test_jobs_flag_validation(capsys):
    # --jobs is gone: like any unknown option it is a usage error.
    assert main(["--jobs", "4", "funcref", "--family", "mnc", "--n", "1"]) == 2
    assert "ipscert: error:" in capsys.readouterr().err
    assert main(["funcref", "--family", "mnc", "--n", "1"]) == 0


def test_removed_rank_witness_option_is_a_usage_error():
    assert main(["rank", "--n", "1", "--partition", "u1|u2", "--witness", "auto"]) == 2


@pytest.mark.parametrize("field", ["axioms", "cofactors", "metrics", "instance_sha256", "shift"])
def test_verify_incomplete_certificate_exits_2(tmp_path, capsys, field):
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    del doc[field]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_verify_wrongly_typed_field_exits_2(tmp_path, capsys):
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    doc["cofactors"] = [5]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 2
    assert "cofactors[0]" in capsys.readouterr().err


def test_verify_unparsable_cofactor_exits_2_naming_it(tmp_path, capsys):
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    doc["cofactors"][1] = ["g0 = ADD", "OUTPUT g0"]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path), "--mode", "pit"]) == 2
    assert "field cofactors[1]: line 1: ADD gate g0 has no children" in capsys.readouterr().err


def test_refute_and_verify_a_3000_deep_chain(tmp_path, capsys):
    # g = MUL(g, CONST 1), 3,000 times over x1: deeper than Python's recursion limit.
    lines = ["g0 = VAR x1"]
    g = 0
    for _ in range(3000):
        lines += [f"g{g + 1} = CONST 1", f"g{g + 2} = MUL g{g} g{g + 1}"]
        g += 2
    src, cert = tmp_path / "chain.circ", tmp_path / "cert.json"
    write(src, "\n".join(lines) + f"\nOUTPUT g{g}\n")
    assert main(["refute", "--input", str(src), "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified-exact"


def test_normalize_and_transform_a_3000_level_alternating_chain(tmp_path):
    # MUL and ADD alternate 3,000 times, each with a fresh leaf: no flattening,
    # and deeper than Python's recursion limit.  refute is not run: the
    # certificate of such a chain grows with its depth.
    lines = ["g0 = VAR x1"]
    for k in range(1, 3001):
        op = "MUL" if k % 2 else "ADD"
        lines += [f"g{2 * k - 1} = VAR x{k % 3 + 1}", f"g{2 * k} = {op} g{2 * k - 2} g{2 * k - 1}"]
    src, layered, cp, ledger = (tmp_path / n for n in ("c.circ", "n.circ", "cp.circ", "l.json"))
    write(src, "\n".join(lines) + "\nOUTPUT g6000\n")
    assert main(["normalize", "--input", str(src), "--out", str(layered)]) == 0
    assert main(["transform", "--input", str(layered), "--out", str(cp),
                 "--ledger", str(ledger)]) == 0
    assert measure(parse_circuit(layered.read_text())).depth == 3000
    assert len(GadgetLedger.from_json(ledger.read_text())) == 1500
    parse_circuit(cp.read_text())


def test_refute_with_a_malformed_ledger_exits_2(tmp_path, capsys):
    src, ledger = tmp_path / "cp.circ", tmp_path / "l.json"
    cp, good = gadgetize(cadd(cvar(X1), cvar(X2)))
    write(src, format_circuit(cp))
    doc = json.loads(good.to_json())
    doc["entries"][0] = {}
    write(ledger, json.dumps(doc))
    assert main(["refute", "--input", str(src), "--ledger", str(ledger),
                 "--out", str(tmp_path / "cert.json")]) == 2
    assert "entries[0].gate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["instance", "funcref"])
def test_mnc_rejects_beta(tmp_path, capsys, command):
    argv = [command, "--family", "mnc", "--n", "1", "--beta", "3"]
    if command == "instance":
        argv += ["--out", str(tmp_path / "mnc1")]
    assert main(argv) == 2
    assert "mnc takes no --beta" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "ipscert.cli", "funcref",
                           "--family", "subset-sum", "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verified-exact" in proc.stdout


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["cofactors"][1].__setitem__(0, "g² = VAR x1"),
     "field cofactors[1]: line 1: bad gate id 'g²'"),
    (lambda doc: doc["axioms"][0]["circuit"].__setitem__(0, "g١ = VAR x1"),
     "field axioms[0].circuit: line 1: bad gate id 'g١'"),
    (lambda doc: doc.__setitem__("builder", 5), "field builder is not a string"),
    (lambda doc: doc["metrics"].pop(), "field metrics has 4 entries for 5 cofactors"),
])
def test_verify_rejects_what_the_reader_must_not_accept(tmp_path, capsys, edit, message):
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    assert len(doc["cofactors"]) == 5
    edit(doc)
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    for mode in ("exact", "pit"):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
        assert message in capsys.readouterr().err


def test_parse_rejects_a_gate_id_with_non_ascii_digits(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, "g² = VAR x1\nOUTPUT g²\n")
    assert main(["parse", "--input", str(src)]) == 2
    assert "line 1: bad gate id 'g²'" in capsys.readouterr().err
