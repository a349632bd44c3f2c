import json
import random
import subprocess
import sys

import pytest

from helpers import build_corpus, mutate_certificate

from ipscert.circuit import cadd, cmul, cvar, format_circuit, normalize_layered, parse_circuit
from ipscert.cli import main
from ipscert.gadget import gadgetize
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


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "ipscert.cli", "funcref",
                           "--family", "subset-sum", "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verified-exact" in proc.stdout
