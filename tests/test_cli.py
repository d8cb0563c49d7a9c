import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mtqsim import calibration, cli, defense, experiment
from mtqsim.adversary import apply_misreport, h1_plan
from mtqsim.calibration import (
    CalibrationSeries,
    load_calibration_csv,
    synth_drift,
    uniform_snapshot,
)
from mtqsim.cli import main, parse_attack_spec, parse_seed_list, parse_windows
from mtqsim.errors import ConfigError
from mtqsim.experiment import SWEEP_COLUMNS, resolve_errors
from mtqsim.topology import hanoi27


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "topology": "hanoi27",
        "errors": {"uniform": {"cnot": 0.02, "readout": 0.02}},
        "allocator": "greedy",
        "attack": {"kind": "H1", "n": 3, "k": 0.15},
        "workload": {"count": 6, "size_min": 2, "size_max": 6, "seed": 3},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def write_honest_calib(path):
    """14 cycles of honest drift at cv 0.30 around the flat 2% snapshot."""
    g = hanoi27()
    series = synth_drift(uniform_snapshot(g, 0.02, 0.02), 14, 0.30, 7)
    path.write_text(oracles.write_calibration_csv(series))
    return path


def test_parse_attack_spec():
    assert parse_attack_spec("none") == "none"
    assert parse_attack_spec("H1:n=3,k=0.15") == {"kind": "H1", "n": 3, "k": 0.15}
    assert parse_attack_spec("h2:k=0.15,0.12,0.10") == {
        "kind": "H2",
        "ks": [0.15, 0.12, 0.10],
    }
    assert parse_attack_spec("H2:0.2,0.1") == {"kind": "H2", "ks": [0.2, 0.1]}
    # the text only becomes a config attack; resolve_attack checks it (see REJECTED)
    assert parse_attack_spec("H1:n=3.5,k=1") == {"kind": "H1", "n": 3.5, "k": 1}
    assert parse_attack_spec("H1:n=x,k=0.1") == {"kind": "H1", "n": "x", "k": 0.1}
    assert parse_attack_spec("sideways") == "sideways"
    # 'none' is a kind like H1 and H2, so any case of it is the no-attack spec
    for spec in ("None", "NONE", " nOnE "):
        assert parse_attack_spec(spec) == "none"
    assert parse_attack_spec("nones") == "nones"
    with pytest.raises(ConfigError, match="given twice"):
        parse_attack_spec("H1:n=3,k=0.1,k=0.9")


def test_parse_seed_list():
    assert parse_seed_list("1,2,5") == [1, 2, 5]
    assert parse_seed_list("1..4") == [1, 2, 3, 4]
    assert parse_seed_list("7..7") == [7]
    assert parse_seed_list(f"1..{cli.MAX_SEEDS}") == list(range(1, cli.MAX_SEEDS + 1))
    for bad in ("5..2", "a,b", "1..x", "", ",", f"0..{cli.MAX_SEEDS}"):
        with pytest.raises(ConfigError):
            parse_seed_list(bad)


def test_parse_windows():
    assert parse_windows("0:7,7:14") == ((0, 7), (7, 14))
    for bad in ("0:7", "0:7,7:14,14:21", "0-7,7-14", "a:b,c:d"):
        with pytest.raises(ConfigError):
            parse_windows(bad)


SIMULATE_FILES = (
    "baseline.json",
    "attacked.json",
    "summary.json",
    "baseline_rounds.csv",
    "baseline_jobs.csv",
    "attacked_rounds.csv",
    "attacked_jobs.csv",
)


def simulate_digests(cfg, out, *flags):
    """Run simulate on a config; the sha256 of each file it writes, by name."""
    assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SIMULATE_FILES}


def test_simulate_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "reports"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in SIMULATE_FILES:
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["delta"]) == {
        "rounds",
        "mean_utilization",
        "depth_pct",
        "pst_pct",
        "swaps",
    }
    assert [t["qubit"] for t in summary["attack_targets"]] == [12, 14, 8]
    baseline = json.loads((out / "baseline.json").read_text())
    attacked = json.loads((out / "attacked.json").read_text())
    assert baseline["config"]["attack"] == {"kind": "none"}
    assert attacked["config"]["attack"] == {"kind": "H1", "n": 3, "k": 0.15}
    # round CSVs carry the header and one line per round
    rounds = (out / "baseline_rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,placed,active,utilization"
    assert len(rounds) == 1 + baseline["report"]["total_rounds"]
    jobs = (out / "baseline_jobs.csv").read_text().splitlines()
    assert jobs[0] == "id,round,depth,cnots,swaps,pst"
    assert len(jobs) == 1 + 6
    assert "reports written" in capsys.readouterr().out


def test_attack_none_in_any_case_writes_the_none_files(tmp_path):
    cfg = write_config(tmp_path)
    none = simulate_digests(cfg, tmp_path / "lower", "--attack", "none")
    assert simulate_digests(cfg, tmp_path / "upper", "--attack", "NONE") == none
    assert simulate_digests(cfg, tmp_path / "title", "--attack", "None") == none


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("baseline.json", "attacked.json", "summary.json", "attacked_jobs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_reproduces_from_embedded_config(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "orig"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    embedded = json.loads((out1 / "attacked.json").read_text())["config"]
    cfg2 = tmp_path / "embedded.json"
    cfg2.write_text(json.dumps(embedded))
    out2 = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "attacked.json").read_bytes() == (out2 / "attacked.json").read_bytes()
    assert (out1 / "baseline.json").read_bytes() == (out2 / "baseline.json").read_bytes()


# sha256 of each simulate file for six gen-workload circuits (2-6 qubits,
# seed 5) read as qasm_files, under write_config's greedy H1 attack
QASM_DIGESTS = {
    "baseline.json": "8094fb7f5eeabd2b252313b2a0752f5af72e8db6403fc2a658e7e038402a2d90",
    "attacked.json": "603cdc3309d7ffc2fd07e196544c8f3d5d18fd56dfa3097786f5eba1045413a3",
    "summary.json": "34113033ac15c19c0d4953a3e16f88484ce9af041877a9ce0abbd4bd4cd97f4d",
    "baseline_rounds.csv": "d5fa3bd5dada7ae11f538ed007acdb4328f46c91dd576ab1287e72b29163f492",
    "baseline_jobs.csv": "9db92d33404b3684809d4e0ff95d394a2ae6abb1e6e5d56de9286430f6cc4ddc",
    "attacked_rounds.csv": "896cb919b34a62114714c2ddec2f155a12fd1ee055146748910c8d7509dc4b7a",
    "attacked_jobs.csv": "ed10a3136683d8d1b093e86663f8b5bfa43cdaa710c161bf182dbe7606bf86c7",
}


def test_qasm_workload_reports_are_pinned_and_replay(tmp_path):
    gen = ["gen-workload", "--count", "6", "--size-min", "2", "--size-max", "6", "--seed", "5"]
    assert main([*gen, "--out", str(tmp_path / "w")]) == 0
    cfg = write_config(tmp_path, workload={"qasm_files": [f"w/job{i:03d}.qasm" for i in range(6)]})
    assert simulate_digests(cfg, tmp_path / "r1") == QASM_DIGESTS
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(json.loads((tmp_path / "r1" / "attacked.json").read_text())["config"]))
    assert simulate_digests(replay, tmp_path / "r2") == QASM_DIGESTS
    assert main(["simulate", "--config", str(replay), "--seed", "2", "--out", str(tmp_path / "r3")]) == 2


def test_a_generator_workload_reports_as_its_written_qasm_files(tmp_path):
    """gen-workload's files, read as qasm_files, place and price every job as
    the generator config of the same parameters does."""
    gen = ["gen-workload", "--count", "6", "--size-min", "2", "--size-max", "6", "--seed", "5"]
    assert main([*gen, "--out", str(tmp_path / "w")]) == 0
    manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
    files = [f"w/{job['file']}" for job in manifest["jobs"]]
    workloads = {
        "files": {"qasm_files": files},
        "generator": {"count": 6, "size_min": 2, "size_max": 6, "seed": 5},
    }
    for name, workload in workloads.items():
        cfg = write_config(tmp_path, f"{name}.json", workload=workload)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    from_files, from_generator = tmp_path / "files", tmp_path / "generator"
    for leg in ("baseline", "attacked"):
        for name in (f"{leg}_rounds.csv", f"{leg}_jobs.csv"):
            assert (from_files / name).read_bytes() == (from_generator / name).read_bytes()
        report = json.loads((from_files / f"{leg}.json").read_text())["report"]
        assert report == json.loads((from_generator / f"{leg}.json").read_text())["report"]


# sha256 of each simulate file for the 40-job preset (hanoi27, flat 2% errors,
# 2-10 qubits at density 2.0, seed 1) under each allocator's preset attack
PRESET_FLAGS = {
    "comdap": ["--allocator", "comdap", "--attack", "H1:n=3,k=0.15"],
    "greedy": ["--allocator", "greedy", "--attack", "H2:k=0.15,0.12,0.10"],
}
PRESET_DIGESTS = {
    "comdap": {
        "baseline.json": "80821d59fbabcd81b83a06fe73555515d0f5d399b6e2e958e16bc7f809e9de13",
        "attacked.json": "65976a53d4ffe7bccef960ec2372ac27307d105448918ef8984929968e157578",
        "summary.json": "9593aaa3006cb657306a5676e5220a2ff89d2f134cd7b2543a52fbf91863f0bf",
        "baseline_rounds.csv": "f2f116fc8488b74eb9da78f081e7a3ebfc8d13e87bd1cfaab158650393bed94c",
        "baseline_jobs.csv": "48d4c666f91b23f3897583dd890c55388917ace881e2ae744dfefd3e6e0133df",
        "attacked_rounds.csv": "07c7e9db50bcf7d582668c2c3b31b350a424e99aedf7fac89215da0579d3c3e2",
        "attacked_jobs.csv": "6920d55ac6eaa318fd7dd42abe9557bf6b33b6be47a9bbd705dfa618fd31cbfe",
    },
    "greedy": {
        "baseline.json": "3461e585dcf31089c9daa776f39ef4fbec012f7f428713b5b377b142725efb63",
        "attacked.json": "c5058bafe3c816ed776bc0a1f58b46e125a3b12631062aecdc1afb32cf898523",
        "summary.json": "2a9279ddf656b2725239f0d10f280ff699014d8aa863ed43874e8f37ac458776",
        "baseline_rounds.csv": "68382272e1968f1dafdfa3b0869e5b60afe7e54310458c059201d672e14f769f",
        "baseline_jobs.csv": "e2cd502204a36f2abbe523211664482fb7f26df010b5b3dd627a6e298990aa95",
        "attacked_rounds.csv": "d9f6b7434ae78d5d2c335c73b79ed13fffbc1ed94bc8ff6524a0cfae9ec2d4d3",
        "attacked_jobs.csv": "958020f863b26f2514041e1a0657c183306f77e673ecca8ee4e93c35b14d2abf",
    },
}


@pytest.mark.parametrize("allocator", sorted(PRESET_FLAGS))
def test_simulate_files_are_pinned(allocator, tmp_path):
    workload = {"count": 40, "size_min": 2, "size_max": 10, "gate_density": 2.0, "seed": 1}
    cfg = write_config(tmp_path, workload=workload)
    got = simulate_digests(cfg, tmp_path / "r", *PRESET_FLAGS[allocator])
    assert got == PRESET_DIGESTS[allocator]


# sha256 of sweep.csv for write_config's workload at seeds 1-3 under H2
SWEEP_DIGESTS = {
    "comdap": "5637f4b54a35b1c73cb3dbba0c0964052fcdce839ed02b4630b6e6b8ba8b6fe0",
    "greedy": "a89308475dde0fb3496272fe9d4c520a5f9eb1715244d1519dba834476e7dca2",
}


@pytest.mark.parametrize("allocator", sorted(SWEEP_DIGESTS))
def test_sweep_csv_is_pinned(allocator, tmp_path):
    cfg = write_config(tmp_path, allocator=allocator, attack={"kind": "H2", "ks": [0.15, 0.12, 0.10]})
    assert main(["sweep", "--config", str(cfg), "--seeds", "1..3", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == SWEEP_DIGESTS[allocator]


def test_simulate_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, attack="none")
    out = tmp_path / "o"
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--attack",
            "H2:k=0.15,0.12,0.10",
            "--allocator",
            "comdap",
            "--seed",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "attacked.json").read_text())
    assert doc["config"]["attack"] == {"kind": "H2", "ks": [0.15, 0.12, 0.10]}
    assert doc["config"]["allocator"] == "comdap"
    assert doc["config"]["workload"]["seed"] == 9


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err

    bad_alloc = write_config(tmp_path, "bad_alloc.json", allocator="magic")
    assert main(["simulate", "--config", str(bad_alloc)]) == 2

    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--attack", "H3:n=1,k=0.1"]) == 2
    assert main(["attack-plan", "--topology", "mystery99", "--attack", "H1:n=2,k=0.1"]) == 2
    assert main(["attack-plan", "--topology", "hanoi27", "--attack", "none"]) == 2

    not_json = tmp_path / "text.json"
    not_json.write_text("not json {")
    assert main(["simulate", "--config", str(not_json)]) == 2

    capsys.readouterr()
    not_utf8 = tmp_path / "bom.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    assert main(["simulate", "--config", str(not_utf8)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {not_utf8} is not UTF-8 text:")
    assert len(err.splitlines()) == 1


def test_malformed_data_exits_3(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("cycle,kind,subject,value\n0,cnot,0-1,0.02\n0,wavefn,3,0.1\n")
    code = main(
        ["detect", "--calib", str(bad_csv), "--windows", "0:3,3:6", "--tau", "0.5"]
    )
    assert code == 3
    assert "data error" in capsys.readouterr().err

    negative = tmp_path / "neg.csv"
    negative.write_text("cycle,kind,subject,value\n-1,cnot,0-1,0.02\n-1,cnot,1-2,0.02\n")
    assert main(["detect", "--calib", str(negative), "--windows", "0:3,3:6"]) == 3
    assert capsys.readouterr().err == "data error: line 2: cycle -1 is negative\n"

    bad_qasm = tmp_path / "bad.qasm"
    bad_qasm.write_text("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
    cfg = write_config(tmp_path, "q.json", workload={"qasm_files": ["bad.qasm"]})
    assert main(["simulate", "--config", str(cfg)]) == 3
    capsys.readouterr()

    (tmp_path / "div0.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nrx(pi/0) q[0];\n")
    cfg = write_config(tmp_path, "div0.json", workload={"qasm_files": ["div0.qasm"]})
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "data error: workload circuit 'div0': line 3: angle 'pi/0' divides by zero\n"
    )

    # bytes that are not UTF-8 in a calibration CSV, an edge list or a QASM file
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"cycle,kind\n\xff\x00\xfe")
    (tmp_path / "ff.qasm").write_bytes(b"\xff")
    cfg = write_config(tmp_path, "ff.json", workload={"qasm_files": ["ff.qasm"]})
    for argv, path in (
        (["detect", "--calib", str(binary), "--windows", "0:3,3:6"], binary),
        (["attack-plan", "--topology", str(binary), "--attack", "H1:n=2,k=0.1"], binary),
        (["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")], tmp_path / "ff.qasm"),
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path} is not UTF-8 text:")
        assert len(err.splitlines()) == 1


def test_a_circuit_that_does_not_parse_is_named(tmp_path, capsys):
    """Of several circuits, the one that fails to parse is named by its id: a
    file's stem, or an inline circuit's id."""
    (tmp_path / "good.qasm").write_text(BELL)
    (tmp_path / "bad.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nfrob q[0];\n")
    files = write_config(
        tmp_path, "files.json", workload={"qasm_files": ["good.qasm", "bad.qasm"]}
    )
    inline = write_config(tmp_path, "inline.json", workload={"circuits": [
        {"id": "ok", "qasm": BELL}, {"id": "broken", "qasm": "qreg q[1];\nh q[1];\n"}
    ]})
    for cfg, message in (
        (files, "workload circuit 'bad': line 3: unknown gate 'frob'"),
        (inline, "workload circuit 'broken': line 2: index 1 overflows qreg q[1]"),
    ):
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()


def test_attack_plan_h1_evidence(tmp_path):
    out = tmp_path / "plan.json"
    code = main(
        ["attack-plan", "--topology", "hanoi27", "--attack", "H1:n=3,k=0.15", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["heuristic"] == "H1"
    assert [t["qubit"] for t in doc["targets"]] == [12, 14, 8]
    assert all(t["delta"] == pytest.approx(0.15) for t in doc["targets"])
    ranking = doc["pool_sigma_ranking"]
    assert [r["qubit"] for r in ranking] == [12, 14, 8, 18, 7, 19, 1, 25]
    sigmas = [r["sigma"] for r in ranking]
    assert sigmas == sorted(sigmas)
    # target sigma evidence matches the pool entry
    pool = {r["qubit"]: r["sigma"] for r in ranking}
    for t in doc["targets"]:
        assert t["sigma"] == pool[t["qubit"]]


def test_attack_plan_h2_evidence(capsys):
    code = main(["attack-plan", "--attack", "H2:k=0.15,0.12,0.10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["heuristic"] == "H2"
    assert [t["qubit"] for t in doc["targets"]] == [1, 25, 14]
    assert [t["delta"] for t in doc["targets"]] == [-0.15, -0.12, -0.10]
    assert doc["targets"][0]["min_distance_to_selected"] is None
    assert doc["targets"][1]["distance_profile"] == [10]
    g = hanoi27()
    d = g.distance_matrix
    assert doc["targets"][2]["distance_profile"] == [int(d[14, 1]), int(d[14, 25])]


def test_gen_workload_density_sets_the_cnot_count(tmp_path):
    """--density is the manifest's gate_density, and a 4-qubit job draws
    round(density * 4*3/2) CNOTs: 6 at density 1.0."""
    out = tmp_path / "w"
    args = ["gen-workload", "--count", "3", "--size-min", "4", "--size-max", "4",
            "--density", "1.0", "--seed", "2", "--out", str(out)]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["gate_density"] == 1.0
    assert [entry["size"] for entry in manifest["jobs"]] == [4, 4, 4]
    for entry in manifest["jobs"]:
        lines = (out / entry["file"]).read_text().splitlines()
        assert sum(line.startswith("cx ") for line in lines) == 6


def test_gen_workload_manifest_and_determinism(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    args = ["gen-workload", "--count", "4", "--size-min", "2", "--size-max", "5", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["params"]["count"] == 4
    assert manifest["params"]["seed"] == 11
    assert len(manifest["jobs"]) == 4
    for entry in manifest["jobs"]:
        assert 2 <= entry["size"] <= 5
        assert (out1 / entry["file"]).exists()
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()
    assert main(["gen-workload", "--count", "0", "--seed", "1", "--out", str(tmp_path / "x")]) == 2


def test_sweep_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, attack={"kind": "H2", "ks": [0.15, 0.12, 0.10]})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--seeds", "1..3", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(["seed", *SWEEP_COLUMNS])
    assert len(lines) == 1 + 3 + 2  # header, three seeds, mean, std
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "mean", "std"]
    for row in lines[1:4]:
        cells = row.split(",")
        assert int(cells[3]) == int(cells[2]) - int(cells[1])  # delta_rounds
    assert "3 seeds" in capsys.readouterr().out


def test_sweep_prints_its_csv_mean_row(tmp_path, capsys):
    cfg = write_config(tmp_path, allocator="comdap")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--seeds", "2,4,4,9", "--out", str(out)]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    mean = dict(zip(header.split(","), rows[-2].split(",")))
    assert mean["seed"] == "mean"
    m = {c: float(v) for c, v in mean.items() if c != "seed"}
    assert capsys.readouterr().out.splitlines()[0] == (
        f"4 seeds: mean delta rounds {m['delta_rounds']:+.2f}, mean utilization delta "
        f"{m['delta_mean_utilization']:+.4f}, mean depth change {m['depth_pct']:+.2f}%, "
        f"mean pst change {m['pst_pct']:+.2f}%"
    )


def test_detect_cli_flags_misreported_targets(tmp_path, capsys):
    g = hanoi27()
    base = uniform_snapshot(g, 0.02, 0.02)
    series = synth_drift(base, 14, 0.30, 42)
    # inject an over-report on qubit 12's edges in the second window
    cnot = series.cnot_error.copy()
    for e in g.incident_edges(12):
        cnot[7:, g.edge_column[e]] = np.minimum(1.0, cnot[7:, g.edge_column[e]] + 0.15)
    doctored = CalibrationSeries(g, series.cycle_ids, cnot, series.readout_error)
    calib = tmp_path / "calib.csv"
    calib.write_text(oracles.write_calibration_csv(doctored))
    out = tmp_path / "verdict.json"
    code = main(
        [
            "detect",
            "--calib",
            str(calib),
            "--windows",
            "0:7,7:14",
            "--bins",
            "5",
            "--eps",
            "0.05",
            "--calibration-runs",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    flagged = {row["qubit"] for row in doc["qubits"] if row["flagged"]}
    assert 12 in flagged
    assert doc["tau"] > 0
    assert doc["params"]["window1"] == [0, 7]
    assert "flagged qubits" in capsys.readouterr().out


def test_detect_cli_explicit_tau(tmp_path):
    calib = write_honest_calib(tmp_path / "honest.csv")
    out = tmp_path / "v.json"
    code = main(
        ["detect", "--calib", str(calib), "--windows", "0:7,7:14",
         "--tau", "1000.0", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(not row["flagged"] for row in doc["qubits"])
    assert doc["params"]["tau_source"] == "explicit"


@pytest.fixture(scope="module")
def audit_dir(tmp_path_factory):
    """420 cycles of cv 0.30 drift with H1 n=3, k=0.15 on cycles 336-419."""
    d = tmp_path_factory.mktemp("audit")
    g = hanoi27()
    series = synth_drift(uniform_snapshot(g, 0.02, 0.02), 420, 0.30, 5)
    attacked = apply_misreport(series, h1_plan(g, 3, 0.15), (336, 420))
    (d / "audit.csv").write_text(oracles.write_calibration_csv(attacked))
    return d


# sha256 of the --out verdict JSON and of stdout for detect on audit.csv
DETECT_DIGESTS = {
    "calibrated": (
        ["--calibration-runs", "30"],
        (
            "483d29553b9b482840e3afbfcf69c42196033fbac59da17820aea682aca48c01",
            "48e7468d9145012ef2efd23c1e32c4242d5cde4afa1024830e7ab660ea31ea28",
        ),
    ),
    "calibrated-cv-0.25": (
        ["--calibration-cv", "0.25", "--calibration-runs", "30"],
        (
            "1bf638e23e3ae097059b5a49623b9935f3fe1d77b1582990acdaa971bfbd1627",
            "c7efe6e8a27472e6e39c2aeba1a9e0001aea12384e38859271c6b346d0d67a02",
        ),
    ),
    "explicit-tau": (
        ["--tau", "0.05"],
        (
            "0c2c58c26bf0e48a7551b2f5e8894ad69bcd236e5df23215c1d8d35b28d1f87f",
            "ef383d1535d4ac96d9ab99043e61a551a1e20cb26932d00c6744bb48106d4a37",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(DETECT_DIGESTS))
def test_detect_reports_are_pinned(case, audit_dir, monkeypatch, capsys):
    flags, digests = DETECT_DIGESTS[case]
    monkeypatch.chdir(audit_dir)
    argv = ["detect", "--calib", "audit.csv", "--windows", "0:336,336:420",
            "--bins", "3", "--eps", "0.1", *flags, "--out", f"{case}.json"]
    assert main(argv) == 0
    got = tuple(
        hashlib.sha256(data).hexdigest()
        for data in ((audit_dir / f"{case}.json").read_bytes(), capsys.readouterr().out.encode())
    )
    assert got == digests


@pytest.mark.parametrize("case", ["calibrated", "explicit-tau"])
def test_detect_without_out_writes_only_the_verdict_to_stdout(
    case, audit_dir, monkeypatch, capsys
):
    """Without --out, stdout is the bytes --out writes, and the summary line
    goes to stderr alone."""
    flags, _ = DETECT_DIGESTS[case]
    monkeypatch.chdir(audit_dir)
    argv = ["detect", "--calib", "audit.csv", "--windows", "0:336,336:420",
            "--bins", "3", "--eps", "0.1", *flags]
    assert main([*argv, "--out", f"{case}-stdout.json"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == (audit_dir / f"{case}-stdout.json").read_text()
    json.loads(out)
    assert len(err.splitlines()) == 1
    assert err.startswith("tau ") and "flagged qubits: " in err


# inputs detect rejects before it draws a synthetic honest run
EARLY_ERRORS = {
    "window2-past-the-series": (["--windows", "0:336,500:600"], "window2 covers 0 cycles"),
    "overlapping-windows": (["--windows", "0:336,300:420"], "overlap"),
    "percentile-150": (["--windows", "0:336,336:420", "--percentile", "150"], "percentile"),
    "calibration-runs-29": (
        ["--windows", "0:336,336:420", "--calibration-runs", "29"], "needs >= 30 honest runs, got 29"
    ),
}


@pytest.mark.parametrize("case", sorted(EARLY_ERRORS))
def test_detect_rejects_bad_input_before_calibrating(case, audit_dir, monkeypatch, capsys):
    flags, message = EARLY_ERRORS[case]
    calls = []
    monkeypatch.setattr(defense, "synth_drift", lambda *args: calls.append(args))
    assert main(["detect", "--calib", str(audit_dir / "audit.csv"), *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")
    assert message in err
    assert calls == []


def test_incomplete_cycle_exits_3_naming_the_cycle(tmp_path, capsys):
    calib = write_honest_calib(tmp_path / "c14.csv")
    lines = calib.read_text().splitlines(keepends=True)
    lines.remove(next(ln for ln in lines if ln.startswith("1,cnot,0-1,")))
    calib.write_text("".join(lines))
    assert main(["detect", "--calib", str(calib), "--windows", "0:7,7:14"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("data error: cycle 1:")
    assert "(0, 1)" in err


BOM = "\ufeff".encode()


def test_a_leading_byte_order_mark_is_read_as_if_absent(tmp_path, capsys):
    """A UTF-8 byte-order mark before a calibration CSV or a config changes no
    output; bytes after it that are not UTF-8 still exit 3 naming the file."""
    calib = write_honest_calib(tmp_path / "c14.csv")
    (tmp_path / "bom.csv").write_bytes(BOM + calib.read_bytes())
    for name in ("c14", "bom"):
        argv = ["detect", "--calib", str(tmp_path / f"{name}.csv"), "--windows", "0:7,7:14",
                "--calibration-runs", "30", "--out", str(tmp_path / f"{name}-verdict.json")]
        assert main(argv) == 0
    assert (tmp_path / "bom-verdict.json").read_bytes() == (tmp_path / "c14-verdict.json").read_bytes()

    cfg = write_config(tmp_path)
    (tmp_path / "bom.json").write_bytes(BOM + cfg.read_bytes())
    for name in ("config", "bom"):
        assert main(["simulate", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}-out")]) == 0
    plain, marked = (sorted((tmp_path / f"{name}-out").iterdir()) for name in ("config", "bom"))
    assert [p.name for p in plain] == [p.name for p in marked] and plain
    assert all(p.read_bytes() == m.read_bytes() for p, m in zip(plain, marked))

    # a byte that is not UTF-8 is named by its offset in the file, mark or none
    for mark, offset in ((BOM, 14), (b"", 11)):
        binary = tmp_path / "bom-binary.csv"
        binary.write_bytes(mark + b"cycle,kind\n\xff\x00\xfe")
        capsys.readouterr()
        assert main(["detect", "--calib", str(binary), "--windows", "0:3,3:6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {binary} is not UTF-8 text:")
        assert f"can't decode byte 0xff in position {offset}:" in err


def test_a_rate_outside_the_unit_range_exits_3_naming_its_line(tmp_path, capsys):
    calib = write_honest_calib(tmp_path / "c14.csv")
    lines = calib.read_text().splitlines(keepends=True)
    lines[4] = lines[4].rsplit(",", 1)[0] + ",1.000000001\n"
    calib.write_text("".join(lines))
    assert main(["detect", "--calib", str(calib), "--windows", "0:7,7:14"]) == 3
    assert capsys.readouterr().err == "data error: line 5: value 1.000000001 outside [0, 1]\n"


def test_errors_file_cycle_selects_that_cycle(tmp_path):
    g = hanoi27()
    calib = write_honest_calib(tmp_path / "cal.csv")
    series = load_calibration_csv(calib.read_text(), g)
    for spec, row in (({"file": "cal.csv"}, 0), ({"file": "cal.csv", "cycle": 3}, 3)):
        snap = resolve_errors(spec, g, tmp_path)
        assert snap.cycle_ids == (series.cycle_ids[row],)
        assert snap.cnot_error.tolist() == [series.cnot_error[row].tolist()]
        assert snap.readout_error.tolist() == [series.readout_error[row].tolist()]
    with pytest.raises(ConfigError, match="cycle 14 not present"):
        resolve_errors({"file": "cal.csv", "cycle": 14}, g, tmp_path)


# two 3-qubit paths: no connected region holds 4 qubits, and comdap's
# whole-device CRI term is undefined
TWO_PATHS = {"qubits": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5]]}
DETECT = ["detect", "--calib", "c14.csv", "--windows", "0:7,7:14"]
REJECTED = {
    "detect-bins-0": DETECT + ["--bins", "0"],
    "detect-eps-negative": DETECT + ["--eps", "-1"],
    "detect-eps-nan": DETECT + ["--eps", "nan"],
    "detect-tau-nan": DETECT + ["--tau", "nan"],
    "detect-tau-negative": DETECT + ["--tau", "-1"],
    # one past the cap, with tau given so no threshold calibration runs first
    "detect-bins-over-cap": DETECT + ["--bins", str(defense.MAX_BINS + 1), "--tau", "0.1"],
    "detect-percentile-150": DETECT + ["--percentile", "150"],
    "detect-cv-3": DETECT + ["--calibration-cv", "3"],
    "detect-5-runs": DETECT + ["--calibration-runs", "5"],
    "detect-overlapping-windows": ["detect", "--calib", "c14.csv", "--windows", "0:7,5:14"],
    "detect-short-window": ["detect", "--calib", "c14.csv", "--windows", "0:2,7:14"],
    "h1-n-too-large": ["attack-plan", "--attack", "H1:n=9,k=0.1"],
    "h1-k-negative": ["attack-plan", "--attack", "H1:n=3,k=-0.1"],
    "h2-k-increasing": ["attack-plan", "--attack", "H2:k=0.1,0.2"],
    "h1-k-nan": ["attack-plan", "--attack", "H1:n=3,k=nan"],
    "h1-k-inf": ["attack-plan", "--attack", "H1:n=3,k=inf"],
    "h2-k-nan": ["attack-plan", "--attack", "H2:k=nan"],
    "h2-k-inf": ["attack-plan", "--attack", "H2:k=inf,0.1"],
    "h1-n-not-a-number": ["attack-plan", "--attack", "H1:n=x,k=0.1"],
    "h1-n-fraction": ["attack-plan", "--attack", "H1:n=3.5,k=0.1"],
    "h1-missing-n": ["attack-plan", "--attack", "H1:k=0.1"],
    "h1-unknown-field": ["attack-plan", "--attack", "H1:n=3,k=0.1,x=5"],
    "h1-field-twice": ["attack-plan", "--attack", "H1:n=3,k=0.1,k=0.9"],
    "h2-no-magnitudes": ["attack-plan", "--attack", "H2:"],
    "h3-kind": ["attack-plan", "--attack", "H3:n=1,k=0.1"],
    "h1-no-fields": ["attack-plan", "--attack", "H1"],
    "attack-sideways": ["attack-plan", "--attack", "sideways"],
    "simulate-h1-k-nan": ["simulate", "--config", "config.json", "--attack", "H1:n=3,k=nan",
                          "--out", "r"],
    "h2-disconnected": ["simulate", "--config", "two_greedy.json", "--attack", "H2:k=0.15,0.12",
                        "--out", "r"],
    "greedy-no-region": ["simulate", "--config", "two_greedy.json", "--out", "r"],
    "comdap-disconnected": ["simulate", "--config", "two_comdap.json", "--out", "r"],
    # every rate 1 on one edge: the whole-device CRI term is exactly 0
    "comdap-cri-term-zero": ["simulate", "--config", "cri_zero.json", "--out", "r"],
    # a 4-qubit path whose mean error exceeds 1 + D/C: the term is negative
    "comdap-cri-term-negative": ["simulate", "--config", "cri_negative.json", "--out", "r"],
    "gen-workload-huge-density": ["gen-workload", "--count", "1", "--density=1e300",
                                  "--seed", "1", "--out", "d"],
    "gen-workload-count-0": ["gen-workload", "--count", "0", "--seed", "1", "--out", "d"],
    "gen-workload-size-min-over-max": ["gen-workload", "--count", "1", "--size-min", "7",
                                       "--size-max", "6", "--seed", "1", "--out", "d"],
    "gen-workload-seed-negative": ["gen-workload", "--count", "1", "--seed=-1", "--out", "d"],
    "simulate-seed-negative": ["simulate", "--config", "config.json", "--seed", "-5",
                               "--out", "r"],
    "sweep-seed-negative": ["sweep", "--config", "config.json", "--seeds", "1,-2", "--out", "r"],
    # rejected before any list of its seeds is built
    "sweep-seeds-range-huge": ["sweep", "--config", "config.json", "--seeds",
                               "0..100000000000000", "--out", "r"],
    "gen-workload-size-max-huge": ["gen-workload", "--count", "1", "--size-max", "9" * 400,
                                   "--seed", "1", "--out", "d"],
    # "taken" is an existing file and "dir" an existing directory
    "simulate-out-under-a-file": ["simulate", "--config", "config.json", "--out", "taken"],
    "gen-workload-out-under-a-file": ["gen-workload", "--count", "1", "--seed", "1",
                                      "--out", "taken"],
    "attack-plan-out-a-directory": ["attack-plan", "--attack", "H1:n=3,k=0.1", "--out", "dir"],
    "detect-out-a-directory": DETECT + ["--tau", "0.1", "--out", "dir"],
}


@pytest.mark.parametrize("argv", list(REJECTED.values()), ids=list(REJECTED))
def test_invalid_values_exit_2_without_traceback(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_honest_calib(tmp_path / "c14.csv")
    write_config(tmp_path)
    for allocator, size in (("greedy", 4), ("comdap", 2)):
        workload = {"count": 3, "size_min": size, "size_max": size, "seed": 1}
        write_config(tmp_path, f"two_{allocator}.json", topology=TWO_PATHS,
                     allocator=allocator, attack="none", workload=workload)
    write_config(tmp_path, "cri_zero.json", topology={"qubits": 2, "edges": [[0, 1]]},
                 errors={"uniform": {"cnot": 1.0, "readout": 1.0}}, allocator="comdap",
                 attack="none", workload={"count": 2, "size_min": 2, "size_max": 2, "seed": 1})
    write_config(tmp_path, "cri_negative.json",
                 topology={"qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
                 errors={"cnot": {"0-1": 1.0, "1-2": 1.0, "2-3": 0.5},
                         "readout": {"0": 1.0, "1": 1.0, "2": 0.5, "3": 0.5}},
                 allocator="comdap", attack="none",
                 workload={"count": 2, "size_min": 2, "size_max": 2, "seed": 1})
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir").mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "d").exists()  # gen-workload writes nothing


@pytest.mark.parametrize("flag", ["--eps", "--tau"])
def test_detect_names_a_nan_parameter(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_honest_calib(tmp_path / "c14.csv")
    assert main(DETECT + [flag, "nan"]) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--eps", "nan", "--out", "v.json"], ["--eps", "-5", "--bins", "3", "--tau", "0.1"]]
)
def test_detect_checks_eps_on_a_series_with_no_spread(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flat = synth_drift(uniform_snapshot(hanoi27(), 0.02, 0.02), 14, 0.0, 1)
    (tmp_path / "c.csv").write_text(oracles.write_calibration_csv(flat))
    assert main(["detect", "--calib", "c.csv", "--windows", "0:7,7:14", *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "eps must be finite" in err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("eps", ["1e-320", "1e308"])
@pytest.mark.parametrize("tau", [[], ["--tau", "0.1"]], ids=["calibrated", "explicit-tau"])
def test_detect_rejects_an_eps_that_cannot_smooth(eps, tau, tmp_path, monkeypatch, capsys):
    """1e-320 once wrote "divergence": Infinity for every qubit, and 1e308
    failed on a probability sum that named neither eps nor bins."""
    monkeypatch.chdir(tmp_path)
    write_honest_calib(tmp_path / "c14.csv")
    assert main(DETECT + ["--eps", eps, *tau, "--out", "v.json"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: eps {float(eps)} with bins 10 smooths to a divergence")
    assert not (tmp_path / "v.json").exists()


BELL = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"


def bell_circuits(*ids):
    return {"workload": {"circuits": [{"id": jid, "qasm": BELL} for jid in ids]}}


def path3(topology):
    """A three-qubit path topology with a workload and no attack that run on it."""
    workload = {"count": 2, "size_min": 2, "size_max": 2, "seed": 3}
    return {"topology": topology, "attack": "none", "workload": workload}


def path3_errors(cnot=(), readout=(), **extra):
    """path3 with inline error maps at 2%, cnot and readout entries added to
    them, and extra fields beside them."""
    errors = {
        "cnot": {"0-1": 0.02, "1-2": 0.02, **dict(cnot)},
        "readout": {"0": 0.02, "1": 0.02, "2": 0.02, **dict(readout)},
        **extra,
    }
    return {**path3({"qubits": 3, "edges": [[0, 1], [1, 2]]}), "errors": errors}


# config fields of the right name but the wrong JSON shape or value
MALFORMED = {
    "allocator-list": {"allocator": ["greedy"]},
    "topology-file-number": {"topology": {"file": 3}},
    "errors-file-number": {"errors": {"file": 3}},
    "errors-cnot-number": {"errors": {"cnot": 5, "readout": {}}},
    "qasm-files-number": {"workload": {"qasm_files": 3}},
    "circuits-number": {"workload": {"circuits": 3}},
    "circuit-qasm-number": {"workload": {"circuits": [{"id": [1], "qasm": 5}]}},
    "errors-cycle-bool": {"errors": {"file": "cal.csv", "cycle": True}},
    "errors-cycle-string": {"errors": {"file": "cal.csv", "cycle": "3"}},
    "out-number": {"out": 5},
    "out-null": {"out": None},
    "circuit-id-list": bell_circuits(["p", "q"]),
    "circuit-id-empty": bell_circuits(""),
    "circuit-id-comma": bell_circuits("p,q"),
    "circuit-id-line-break": bell_circuits("p\nq"),
    "circuit-ids-duplicate": bell_circuits("p", "q", "p"),
    "qasm-files-same-stem": {"workload": {"qasm_files": ["x/a.qasm", "y/a.qasm"]}},
    # each number a config holds is checked as it is, never coerced
    "attack-n-fraction": {"attack": {"kind": "H1", "n": 3.5, "k": 0.15}},
    "attack-n-bool": {"attack": {"kind": "H1", "n": True, "k": 0.15}},
    "attack-k-string": {"attack": {"kind": "H1", "n": 3, "k": "0.15"}},
    "attack-unknown-field": {"attack": {"kind": "H1", "n": 3, "k": 0.15, "x": 5}},
    "workload-count-string": {"workload": {"count": "6", "size_min": 2, "size_max": 6, "seed": 3}},
    "workload-seed-fraction": {"workload": {"count": 6, "size_min": 2, "size_max": 6, "seed": 1.9}},
    "topology-qubits-fraction": path3({"qubits": 3.9, "edges": [[0, 1], [1, 2]]}),
    "topology-edge-fraction": path3({"qubits": 3, "edges": [[0, 1], [1, 2.7]]}),
    "errors-cnot-bool": {"errors": {"uniform": {"cnot": True, "readout": 0.02}}},
    # gen_workload's range rules
    "workload-count-0": {"workload": {"count": 0, "size_min": 2, "size_max": 6, "seed": 3}},
    "workload-size-min-over-max": {"workload": {"count": 6, "size_min": 7, "size_max": 6, "seed": 3}},
    "workload-seed-negative": {"workload": {"count": 6, "size_min": 2, "size_max": 6, "seed": -5}},
    "workload-density-1e300": {
        "workload": {"count": 6, "size_min": 2, "size_max": 6, "gate_density": 1e300, "seed": 3}
    },
    # one edge or qubit spelled twice in an inline error map
    "errors-cnot-edge-twice": path3_errors(cnot={"01-2": 0.5}),
    "errors-readout-qubit-twice": path3_errors(readout={"02": 0.5}),
    # a field that a nested object's form does not take
    "topology-unknown-field": path3({"qubits": 3, "edges": [[0, 1], [1, 2]], "weights": [1, 1]}),
    # one edge listed twice in an inline topology, as it is or reversed
    "topology-edge-repeated": path3({"qubits": 3, "edges": [[0, 1], [1, 2], [0, 1]]}),
    "topology-edge-reversed": path3({"qubits": 3, "edges": [[0, 1], [1, 2], [2, 1]]}),
    "errors-uniform-cycle": {"errors": {"uniform": {"cnot": 0.02, "readout": 0.02}, "cycle": 3}},
    "errors-uniform-unknown-field": {"errors": {"uniform": {"cnot": 0.02, "readout": 0.02, "t1": 5}}},
    "errors-file-unknown-field": {"errors": {"file": "cal.csv", "cylce": 3}},
    "errors-inline-cycle": path3_errors(cycle=0),
    "workload-density-typo": {
        "workload": {"count": 6, "size_min": 2, "size_max": 6, "seed": 3, "gate_densty": 9.0}
    },
    "workload-kind-mismatch": {
        "workload": {"kind": "qasm", "count": 6, "size_min": 2, "size_max": 6, "seed": 3}
    },
    "circuits-unknown-field": {"workload": {"circuits": [{"id": "p", "qasm": BELL}], "seed": 3}},
    "circuit-unknown-field": {"workload": {"circuits": [{"id": "p", "qasm": BELL, "shots": 9}]}},
    "qasm-files-unknown-field": {"workload": {"qasm_files": ["x/a.qasm"], "count": 3}},
}


@pytest.fixture
def run_calls(monkeypatch):
    """Every run_simulate call that simulate or sweep makes, not run."""
    calls = []
    for module in (cli, experiment):
        monkeypatch.setattr(module, "run_simulate", calls.append)
    return calls


@pytest.mark.parametrize("overrides", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_config_shapes_exit_2_without_traceback(overrides, tmp_path, capsys, run_calls):
    write_honest_calib(tmp_path / "cal.csv")
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "a.qasm").write_text(BELL)
    cfg = write_config(tmp_path, **overrides)
    for command in (["simulate"], ["sweep", "--seeds", "1"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")
    assert run_calls == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "edges, named",
    [([[0, 1], [1, 2], [0, 1]], "(0, 1)"), ([[0, 1], [1, 0], [1, 2], [0, 1]], "(1, 0)")],
    ids=["repeated", "reversed"],
)
def test_an_inline_topology_names_its_first_duplicate_edge(edges, named, tmp_path):
    with pytest.raises(ConfigError) as info:
        experiment.resolve_topology({"qubits": 3, "edges": edges}, tmp_path)
    assert str(info.value) == f"invalid inline topology: duplicate edge {named}"


@pytest.mark.parametrize(
    "argv, value",
    [
        (["simulate", "--config", "config.json", "--seed", "-5", "--out", "r"], -5),
        (["sweep", "--config", "config.json", "--seeds", "1,-2", "--out", "r"], -2),
        (["gen-workload", "--count", "1", "--seed=-1", "--out", "d"], -1),
    ],
    ids=["simulate", "sweep", "gen-workload"],
)
def test_a_negative_seed_is_named_before_any_run(argv, value, tmp_path, monkeypatch, capsys,
                                                 run_calls):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: seed must be non-negative, got {value}\n"
    assert run_calls == []
    assert not (tmp_path / "d").exists()
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("seeds", ["1,x", "", "5..2"])
def test_a_rejected_seed_list_leaves_no_output_directory(seeds, tmp_path, capsys, run_calls):
    cfg = write_config(tmp_path)
    out = tmp_path / "X"
    assert main(["sweep", "--config", str(cfg), "--seeds", seeds, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert run_calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["simulate", "--seed", "3"], ["sweep", "--seeds", "1..2"]], ids=["simulate", "sweep"]
)
def test_a_seed_override_needs_a_generator_workload(command, tmp_path, capsys, run_calls):
    (tmp_path / "a.qasm").write_text(BELL)
    cfg = write_config(tmp_path, workload={"qasm_files": ["a.qasm"]})
    out = tmp_path / "r"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed overrides require a generator workload\n"
    assert run_calls == []
    assert not out.exists()


@pytest.mark.parametrize("attack", ["H1:n=3,k=0.15", "H2:k=0.15,0.12,0.10"])
@pytest.mark.parametrize(
    "command", [["simulate"], ["sweep", "--seeds", "1..3"]], ids=["simulate", "sweep"]
)
def test_a_run_builds_its_snapshot_and_plan_once(command, attack, tmp_path, monkeypatch):
    """resolve_config builds the true snapshot, the plan and the reported
    snapshot, and every seed's run uses them as built."""
    calls = {"snapshot": 0, "plan": 0, "reported": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    validate = counted("snapshot", calibration.validate_snapshot)
    for module in (calibration, experiment):
        monkeypatch.setattr(module, "validate_snapshot", validate)
    for name in ("h1_plan", "h2_plan"):
        monkeypatch.setattr(experiment, name, counted("plan", getattr(experiment, name)))
    monkeypatch.setattr(
        experiment, "apply_misreport", counted("reported", experiment.apply_misreport)
    )
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    assert main([*command, "--config", str(cfg), "--attack", attack, "--out", str(out)]) == 0
    assert calls == {"snapshot": 1, "plan": 1, "reported": 1}


# config file text that json.dumps cannot write: a key given twice, at any
# depth, and nesting deeper than the JSON decoder recurses
REPEATED_OR_DEEP = {
    "attack-n-twice": (
        '{"topology": "hanoi27", "errors": {"uniform": {"cnot": 0.02, "readout": 0.02}},'
        ' "attack": {"kind": "H1", "n": 9, "k": 0.15, "n": 3},'
        ' "workload": {"count": 6, "size_min": 2, "size_max": 6, "seed": 3}}',
        "key 'n' given twice in one object",
    ),
    "cnot-edge-twice": (
        '{"topology": {"qubits": 3, "edges": [[0, 1], [1, 2]]},'
        ' "errors": {"cnot": {"0-1": 0.02, "1-2": 0.02, "0-1": 0.03},'
        ' "readout": {"0": 0.02, "1": 0.02, "2": 0.02}},'
        ' "workload": {"count": 2, "size_min": 2, "size_max": 2, "seed": 3}}',
        "key '0-1' given twice in one object",
    ),
    "nested-100000": ("[" * 100_000, "is not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_OR_DEEP))
def test_repeated_keys_and_deep_nesting_exit_2(case, tmp_path, capsys, run_calls):
    text, message = REPEATED_OR_DEEP[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    for command in (["simulate"], ["sweep", "--seeds", "1"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: {cfg}") and message in err
    assert run_calls == []
    assert not (tmp_path / "r").exists()


def test_attack_flag_and_config_give_one_message(tmp_path, capsys):
    assert main(["attack-plan", "--attack", "H1:n=3.5,k=0.1"]) == 2
    flag_err = capsys.readouterr().err
    cfg = write_config(tmp_path, attack={"kind": "H1", "n": 3.5, "k": 0.1})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == flag_err == "config error: H1 attack n must be an integer, got 3.5\n"


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--seeds", "1..20"]])
def test_unwritable_out_fails_before_any_run(command, tmp_path, capsys, run_calls):
    cfg = write_config(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "taken" / "r")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path / 'taken' / 'r'}")
    assert run_calls == []


def test_simulate_topology_flag_resolves_against_working_directory(tmp_path, monkeypatch):
    conf = tmp_path / "conf"
    conf.mkdir()
    write_config(conf)
    g = hanoi27()
    (tmp_path / "topo.txt").write_text(oracles.write_edge_list(g.qubit_count, g.edge_list))
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--config", "conf/config.json", "--topology", "topo.txt", "--out", "r"]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "r" / "attacked.json").read_text())
    assert doc["config"]["topology"]["edges"] == [list(e) for e in g.edge_list]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_honest_calib(d / "c14.csv")
    (d / "topo.txt").write_text("qubits 6\n0 1\n1 2\n2 3\n3 4\n4 5\n1 4\n")
    return d


_ints = st.integers(-3, 12).map(str)
_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
# bounded: the generator emits about density * size^2 / 2 gates per job
_density = st.one_of(st.floats(-1.0, 8.0), st.sampled_from([math.nan, math.inf, -math.inf])).map(repr)
_window = st.builds(lambda a, b: f"{a}:{b}", st.integers(-2, 16), st.integers(-2, 16))
_windows = st.one_of(st.builds(lambda a, b: f"{a},{b}", _window, _window), st.text(max_size=12))
_nonfinite = st.sampled_from(["nan", "inf"])
_attack = st.one_of(
    st.builds(lambda n, k: f"H1:n={n},k={k}", _ints, _floats),
    st.builds(lambda ks: "H2:k=" + ",".join(ks), st.lists(_floats, max_size=4)),
    # a valid n, or a non-finite first magnitude before a decreasing tail
    st.builds(lambda n, k: f"H1:n={n},k={k}", st.integers(1, 3), _nonfinite),
    st.builds(lambda k, ks: f"H2:k={k}{ks}", _nonfinite, st.sampled_from(["", ",0.1", ",0.2,0.1"])),
    st.sampled_from(["none", "H1", "H3:n=1,k=0.1"]),
    st.text(max_size=12),
)


@st.composite
def cli_argv(draw, d):
    command = draw(st.sampled_from(["detect", "attack-plan", "gen-workload"]))
    if command == "detect":
        # --flag=value, so that argparse reads "-1" or "-inf" as a value
        argv = ["detect", f"--calib={d / 'c14.csv'}", f"--windows={draw(_windows)}",
                f"--tau={draw(_floats)}"]
        for flag, values in (("--bins", _ints), ("--eps", _floats), ("--percentile", _floats)):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
        return argv
    if command == "attack-plan":
        topology = draw(st.sampled_from(["hanoi27", str(d / "topo.txt"), "mystery99"]))
        return ["attack-plan", f"--topology={topology}", f"--attack={draw(_attack)}"]
    return ["gen-workload", f"--count={draw(_ints)}", f"--size-min={draw(_ints)}",
            f"--size-max={draw(_ints)}", f"--density={draw(_density)}",
            f"--seed={draw(_ints)}", f"--out={d / 'workload'}"]


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_hold_for_any_flag_values(fuzz_dir, data):
    argv = data.draw(cli_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if argv[0] == "attack-plan" and code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)
