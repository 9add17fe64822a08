import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from krawtchouk.cli import CHECK_ORDER, main

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def write_system(tmp_path: Path, name="sys.json", doc=None) -> str:
    if doc is None:
        doc = {"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2", "1/2"]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- generate ---------------------------------------------------------------------


def test_generate_phi_roundtrip(tmp_path, capsys):
    system = write_system(tmp_path)
    out1 = tmp_path / "phi1.json"
    out2 = tmp_path / "phi2.json"
    code, stdout = run(capsys, "generate", "--system", system, "--level", "2",
                       "--targets", "phi", "--out", str(out1))
    assert code == 0
    assert json.loads(stdout) == {"written": [str(out1)]}
    code, _ = run(capsys, "generate", "--system", system, "--level", "2",
                  "--targets", "phi", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    doc = json.loads(out1.read_text())
    assert doc["target"] == "phi"
    assert doc["level"] == 2 and doc["d"] == 1 and doc["exact"]
    assert doc["basis"] == ["2|0", "1|1", "0|2"]
    assert doc["matrix"] == [["1", "1", "1"],
                             ["1", "0", "-1"],
                             ["1/4", "-1/4", "1/4"]]


def test_generate_multiple_targets_directory(tmp_path, capsys):
    system = write_system(tmp_path)
    outdir = tmp_path / "bundle"
    code, stdout = run(capsys, "generate", "--system", system, "--level", "2",
                       "--targets", "phi,B,weights,Dbar", "--out", str(outdir))
    assert code == 0
    written = json.loads(stdout)["written"]
    assert sorted(Path(p).name for p in written) == \
        ["B.json", "Dbar.json", "phi.json", "weights.json"]
    weights = json.loads((outdir / "weights.json").read_text())
    assert weights["diagonal"] == ["1/4", "1/2", "1/4"]
    B = json.loads((outdir / "B.json").read_text())
    assert B["diagonal"] == ["1", "2", "1"]


def test_generate_csv_rational_and_float(tmp_path, capsys):
    system = write_system(tmp_path)
    out = tmp_path / "phi.csv"
    code, _ = run(capsys, "generate", "--system", system, "--level", "2",
                  "--targets", "phi", "--format", "csv", "--out", str(out),
                  "--rational-csv")
    assert code == 0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "2|0", "1|1", "0|2"]
    assert rows[3] == ["0|2", "1/4", "-1/4", "1/4"]

    code, _ = run(capsys, "generate", "--system", system, "--level", "2",
                  "--targets", "phi", "--format", "csv", "--out", str(out))
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[3] == ["0|2", "0.25", "-0.25", "0.25"]


def test_generate_operator_csv_files(tmp_path, capsys):
    system = write_system(tmp_path)
    outdir = tmp_path / "ops"
    code, stdout = run(capsys, "generate", "--system", system, "--level", "1",
                       "--targets", "operators", "--format", "csv",
                       "--out", str(outdir))
    assert code == 0
    names = sorted(Path(p).name for p in json.loads(stdout)["written"])
    assert names == ["operators_L1.csv", "operators_R1.csv", "operators_V1.csv",
                     "operators_X1.csv", "operators_number.csv",
                     "operators_rho11.csv"]


def test_generate_operators_json(tmp_path, capsys):
    system = write_system(tmp_path)
    out = tmp_path / "ops.json"
    code, _ = run(capsys, "generate", "--system", system, "--level", "1",
                  "--targets", "operators", "--out", str(out))
    assert code == 0
    ops = json.loads(out.read_text())["operators"]
    assert ops["R1"] == [["0", "0"], ["1", "0"]]
    assert ops["X1"] == [["1/2", "-1/4"], ["-1", "1/2"]]


# sha256 of the float files written by `generate --targets phi,operators` for
# systems/rotation.json, pinned so that a change of summation order or of the
# sign of a zero in the float kernel shows up byte for byte
ROTATION_DIGESTS = {
    2: {"phi.json": "d2dbf575cc8d9672d0ad76f78145934bd3a7fb3bf46c14cb8f099e77aa2a30b2",
        "operators.json": "f435b5386d46b0ad3afed57b31fa9c7a7326209c8a1eeee2b4327d392239cb2f"},
    4: {"phi.json": "3ebaa7cd426d57be873b550b5c3de12f7fa6b16707a315a78f39f77280bc9b3b",
        "operators.json": "d844152207ad19e5dfe33e448921f56ff6622f15a05c827157993e7343ce51d4"},
    7: {"phi.json": "fb335156f43b68af9d7bfab024883afbcb0c7b9ac69f0a667ca23de039fd4d05",
        "operators.json": "1df7100a96ad3883cb219031644a9c881179212f8581d5e6f8cde574622163ea"},
}


@pytest.mark.parametrize("level", sorted(ROTATION_DIGESTS))
def test_generate_float_rotation_bytes_pinned(tmp_path, capsys, level):
    outdir = tmp_path / "out"
    code, _ = run(capsys, "generate", "--system", str(SYSTEMS / "rotation.json"),
                  "--level", str(level), "--targets", "phi,operators", "--out", str(outdir))
    assert code == 0
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in ROTATION_DIGESTS[level]}
    assert digests == ROTATION_DIGESTS[level]


# sha256 of the `verify --checks all` report with every elapsed_ms removed,
# recorded before operators were stored by rows.  A passing report names no
# level, so one digest serves levels 1-4 of each system (all exit 0); the
# rotation level-8 report pins a float failure witness (exit 1).
PASSING_REPORTS = {
    "binomial_half": "89e51cc65f71dd0c82e6ecec433056ee151d9afa2175165e95934bd68cbdbdb5",
    "binomial_third": "6727523e83db6b3da5091c315220c1e5936e0cd1f9311f57dada7552090e7229",
    "hadamard3": "b155953fa6a73b7292bacc7852dc9021c233e98d23ef939c29f78a082123ff5b",
    "rotation": "b3b3476222855dd8ed302d3822292c9bba30be539dea7a580130fb352bf39ffc",
    "trinomial": "cc9585fd01bd5ee8576ce890faf8ba53922549e6989c9d3a9e6bccb94a7fc59b",
}
ROTATION_LEVEL8_REPORT = "e6736fb885cd058926c087add3455f7beb36739a905a53a2d7962356c8f3b558"


def report_digest(stdout: str) -> str:
    report = json.loads(stdout)
    for check in report["checks"]:
        del check["elapsed_ms"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PASSING_REPORTS))
def test_verify_reports_pinned(capsys, name):
    for level in (1, 2, 3, 4):
        code, stdout = run(capsys, "verify", "--system", str(SYSTEMS / f"{name}.json"),
                           "--level", str(level), "--checks", "all")
        assert (code, report_digest(stdout)) == (0, PASSING_REPORTS[name]), level
    if name == "rotation":
        code, stdout = run(capsys, "verify", "--system", str(SYSTEMS / "rotation.json"),
                           "--level", "8", "--checks", "all")
        assert (code, report_digest(stdout)) == (1, ROTATION_LEVEL8_REPORT)


def test_generate_rejects_unknown_target(tmp_path, capsys):
    system = write_system(tmp_path)
    code, _ = run(capsys, "generate", "--system", system, "--targets", "spectra")
    assert code == 2


def test_generate_format_mismatch(tmp_path, capsys):
    system = write_system(tmp_path)
    code, _ = run(capsys, "generate", "--system", system, "--targets", "phi",
                  "--format", "csv", "--out", str(tmp_path / "phi.json"))
    assert code == 2


def test_generate_on_uncertifiable_system(tmp_path, capsys):
    bad = write_system(tmp_path, "bad.json",
                       {"d": 1, "A": [[1, 1], [1, 1]], "p": ["1/2", "1/2"]})
    code, _ = run(capsys, "generate", "--system", bad, "--targets", "phi",
                  "--out", str(tmp_path / "phi.json"))
    assert code == 2


# -- verify -----------------------------------------------------------------------


def test_verify_all_checks_pass(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "verify", "--system", system, "--level", "3")
    assert code == 0
    report = json.loads(stdout)
    assert report["overall"] == "pass"
    assert [c["name"] for c in report["checks"]] == list(CHECK_ORDER)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all("elapsed_ms" in c for c in report["checks"])


def test_verify_trinomial_and_approx(tmp_path, capsys):
    code, stdout = run(capsys, "verify", "--system",
                       str(SYSTEMS / "trinomial.json"), "--level", "2")
    assert code == 0
    assert json.loads(stdout)["overall"] == "pass"
    code, stdout = run(capsys, "verify", "--system",
                       str(SYSTEMS / "rotation.json"), "--level", "3",
                       "--atol", "1e-9")
    assert code == 0
    assert json.loads(stdout)["overall"] == "pass"


def test_verify_check_subset(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "verify", "--system", system,
                       "--checks", "orthogonality,lie")
    assert code == 0
    report = json.loads(stdout)
    assert [c["name"] for c in report["checks"]] == ["orthogonality", "lie"]


def test_verify_unknown_check(tmp_path, capsys):
    system = write_system(tmp_path)
    code, _ = run(capsys, "verify", "--system", system, "--checks", "sanity")
    assert code == 2


def test_verify_uncertifiable_reports_and_skips(tmp_path, capsys):
    bad = write_system(tmp_path, "bad.json",
                       {"d": 1, "A": [[1, 1], [1, 1]], "p": ["1/2", "1/2"]})
    code, stdout = run(capsys, "verify", "--system", bad)
    assert code == 1
    report = json.loads(stdout)
    assert report["overall"] == "fail"
    first = report["checks"][0]
    assert first["name"] == "kcondition" and first["status"] == "fail"
    assert first["witness"]["clause"] == "k-condition-violated"
    for check in report["checks"][1:]:
        assert check["status"] == "skipped"


def test_verify_level_zero(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "verify", "--system", system, "--level", "0")
    assert code == 0
    report = json.loads(stdout)
    lie = next(c for c in report["checks"] if c["name"] == "lie")
    assert lie["status"] == "skipped"
    assert report["overall"] == "pass"


# -- eval -------------------------------------------------------------------------


def test_eval_exact_value(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "eval", "--system", system, "--level", "4",
                       "--n", "2", "--x", "2")
    assert code == 0
    assert json.loads(stdout) == {"value": "-1/2"}
    code, stdout = run(capsys, "eval", "--system", system, "--level", "4",
                       "--n", "2", "--x", "2", "--normalization", "bernoulli")
    assert json.loads(stdout) == {"value": "-1"}


def test_eval_trinomial_label_pair(capsys):
    # at the all-zero point the value is the multinomial coefficient of (0,1,1)
    code, stdout = run(capsys, "eval", "--system",
                       str(SYSTEMS / "trinomial.json"), "--level", "2",
                       "--n", "1,1", "--x", "0,0")
    assert code == 0
    assert json.loads(stdout) == {"value": "2"}


def test_eval_float_value(capsys):
    code, stdout = run(capsys, "eval", "--system",
                       str(SYSTEMS / "rotation.json"), "--level", "2",
                       "--n", "1", "--x", "0")
    assert code == 0
    value = json.loads(stdout)["value"]
    assert isinstance(value, float)
    assert abs(value - 1.5) < 1e-9  # N p = 2 * 0.75


def test_eval_bad_point(tmp_path, capsys):
    system = write_system(tmp_path)
    code, _ = run(capsys, "eval", "--system", system, "--level", "2",
                  "--n", "1", "--x", "5")
    assert code == 2
    code, _ = run(capsys, "eval", "--system", system, "--level", "2",
                  "--n", "1,2", "--x", "0")
    assert code == 2
    code, _ = run(capsys, "eval", "--system", system, "--level", "2",
                  "--n", "banana", "--x", "0")
    assert code == 2


# -- sample ----------------------------------------------------------------------


def test_sample_reports_estimate(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "sample", "--system", system, "--level", "4",
                       "--m", "1", "--n", "1", "--trials", "4000", "--seed", "42")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["trials"] == 4000 and payload["seed"] == 42
    assert payload["stderr"] > 0.0
    assert abs(payload["estimate"] - 1.0) < 5 * payload["stderr"]


def test_sample_deterministic(tmp_path, capsys):
    system = write_system(tmp_path)
    args = ("sample", "--system", system, "--level", "3", "--m", "1",
            "--n", "0", "--trials", "500", "--seed", "7")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_sample_validation(tmp_path, capsys):
    system = write_system(tmp_path)
    code, _ = run(capsys, "sample", "--system", system, "--level", "2",
                  "--m", "3", "--n", "0", "--trials", "10")
    assert code == 2
    code, _ = run(capsys, "sample", "--system", system, "--level", "2",
                  "--m", "1", "--n", "0", "--trials", "0")
    assert code == 2


# -- input handling ---------------------------------------------------------------


def test_missing_file_is_io_error(capsys):
    code, _ = run(capsys, "verify", "--system", "/nonexistent/sys.json")
    assert code == 3


def test_malformed_documents(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "verify", "--system", str(garbled))[0] == 2

    for doc in (
            {"d": 1, "p": ["1/2", "1/2"]},                       # no matrix
            {"d": 1, "A": [[1, "1/2"], [1, "-1/2"]]},            # no probabilities
            {"d": 0, "A": [[1]], "p": ["1"]},                    # degenerate size
            {"d": 1, "A": [[1, 0.5], [1, -0.5]], "p": ["1/2", "1/2"]},  # float cells
            {"d": 1, "A": [[1, "1/2"], [1, "-1/2"]],
             "p": ["1/2", "1/2"], "orthogonal": [[1.0, 0.0], [0.0, 1.0]]},
            {"d": 1, "orthogonal": [[0.8, 0.6], [0.6, -0.8]]},   # missing D
            {"d": 1, "orthogonal": [[0.8, 0.6], [0.6, -0.8]], "D": [1.0, "x"]},
    ):
        path = write_system(tmp_path, "doc.json", doc)
        code, _ = run(capsys, "verify", "--system", path)
        assert code == 2, doc

    # certification failures surface as input errors outside of verify
    bad_mass = write_system(tmp_path, "mass.json",
                            {"d": 1, "A": [[1, "1/2"], [1, "-1/2"]],
                             "p": ["1/2", "1/3"]})
    code, _ = run(capsys, "eval", "--system", bad_mass, "--n", "1", "--x", "0")
    assert code == 2


@pytest.mark.parametrize("doc, message", [
    ({"d": 1, "A": [[1, "1/2"]], "p": ["1/2", "1/2"]}, "A must be a 2x2 array"),
    ({"d": 1, "A": "x", "p": ["1/2", "1/2"]}, "A must be a 2x2 array"),
    ({"d": 1, "A": [[1, "1/2"], [1, 0.5]], "p": ["1/2", "1/2"]},
     "A entries must be rational strings or integers"),
    ({"d": 1, "A": [[1, "1/2"], [1, True]], "p": ["1/2", "1/2"]},
     "A entries must be rational strings or integers"),
    ({"d": 1, "A": [[1, "1/2"], [1, "1/x"]], "p": ["1/2", "1/2"]}, "bad rational '1/x' in A"),
    ({"d": 1, "A": [[1, "1/2"], [1, None]], "p": ["1/2", "1/2"]}, "bad rational None in A"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2"]}, "p must list 2 values"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": "1/2"}, "p must list 2 values"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2", 0.5]},
     "p entries must be rational strings or integers"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2", False]},
     "p entries must be rational strings or integers"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2", "a"]}, "bad rational 'a' in p"),
    ({"d": 1, "A": [[1, "1/2"], [1, "-1/2"]], "p": ["1/2", [1]]}, "bad rational [1] in p"),
    ({"d": 1, "orthogonal": [[0.8, 0.6]], "D": [1.0, 1.0]}, "orthogonal must be a 2x2 array"),
    ({"d": 1, "orthogonal": [[0.8, 0.6], [0.6, "x"]], "D": [1.0, 1.0]},
     "orthogonal entries must be numbers"),
    ({"d": 1, "orthogonal": [[0.8, 0.6], [0.6, True]], "D": [1.0, 1.0]},
     "orthogonal entries must be numbers"),
    ({"d": 1, "orthogonal": [[0.8, 0.6], [0.6, float("inf")]], "D": [1.0, 1.0]},
     "bad orthogonal: non-finite entry inf in an approximate matrix"),
    ({"d": 1, "orthogonal": [[0.8, 0.6], [0.6, float("nan")]], "D": [1.0, 1.0]},
     "bad orthogonal: non-finite entry nan in an approximate matrix"),
    ({"d": 1, "orthogonal": [[1, 0], [0, 1]], "D": [1.0, 1.0]},
     "first-column-not-positive: entry (1, 0) is 0.0"),
])
def test_document_error_messages(tmp_path, capsys, doc, message):
    path = write_system(tmp_path, "doc.json", doc)
    code = main(["eval", "--system", path, "--level", "1", "--n", "1", "--x", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_unknown_subcommand_and_missing_args(capsys):
    assert main(["polish"]) == 2
    capsys.readouterr()
    assert main(["verify"]) == 2  # --system is required
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_successive_calls_share_no_parser_state(tmp_path, capsys):
    system = write_system(tmp_path)
    code, stdout = run(capsys, "verify", "--system", system, "--level", "2",
                       "--checks", "kcondition", "--seed", "5", "--atol", "0.5")
    assert code == 0
    assert [c["name"] for c in json.loads(stdout)["checks"]] == ["kcondition"]
    code, stdout = run(capsys, "eval", "--system", system, "--n", "1", "--x", "0")
    assert (code, json.loads(stdout)) == (0, {"value": "3/2"})  # default level 3
    assert main(["eval", "--system", system]) == 2  # --n and --x are required
    capsys.readouterr()
    code, stdout = run(capsys, "verify", "--system", system)
    assert code == 0
    assert [c["name"] for c in json.loads(stdout)["checks"]] == list(CHECK_ORDER)
    code, stdout = run(capsys, "sample", "--system", system, "--m", "1", "--n", "1",
                       "--trials", "10")
    assert code == 0 and json.loads(stdout)["seed"] == 0
    code, stdout = run(capsys, "eval", "--system", system, "--level", "2", "--n", "1",
                       "--x", "0")
    assert (code, json.loads(stdout)) == (0, {"value": "1"})


def test_console_entry_point(tmp_path):
    system = write_system(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krawtchouk", "eval", "--system", system,
         "--level", "2", "--n", "1", "--x", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "1"}


def test_demo_systems_certify(capsys):
    for name in ("binomial_half", "binomial_third", "trinomial", "hadamard3"):
        code, stdout = run(capsys, "verify", "--system",
                           str(SYSTEMS / f"{name}.json"), "--level", "2",
                           "--checks", "kcondition,orthogonality")
        assert code == 0, name
        assert json.loads(stdout)["overall"] == "pass"
