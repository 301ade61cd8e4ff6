import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermicorr.cli
import fermicorr.corr
from fermicorr import Determinant
from fermicorr.cli import (
    ParseError,
    format_wavefunction,
    main,
    parse_mixture,
    parse_wavefunction,
)

from conftest import random_state

DATA = Path(__file__).resolve().parent.parent / "data"
SCRIPTS = DATA.parent / "scripts"


def _child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this fermicorr."""
    src = str(Path(fermicorr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def det(*indices):
    return Determinant.from_indices(indices)


class TestParseWavefunction:
    def test_two_config_file(self):
        text = "dim=6 nelec=3\n1 3 5 0.8164966 0\n2 4 6 0.5773503 0\n"
        psi = parse_wavefunction(text)
        assert psi.space.d == 6 and psi.n == 3
        assert abs(psi.amplitude(det(0, 2, 4)) - math.sqrt(2 / 3)) < 1e-7
        assert abs(psi.amplitude(det(1, 3, 5)) - math.sqrt(1 / 3)) < 1e-7

    def test_single_record(self):
        psi = parse_wavefunction("dim=4 nelec=2\n1 2 1 0\n")
        assert psi.amplitude(det(0, 1)) == 1.0

    def test_comments_and_blanks(self):
        text = "# heading\n\ndim=2 nelec=1\n1 1 0  # trailing\n"
        psi = parse_wavefunction(text)
        assert psi.amplitude(det(0)) == 1.0

    def test_indices_not_increasing(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_wavefunction("dim=4 nelec=2\n2 1 1 0\n")

    def test_duplicate_index_within_record(self):
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_wavefunction("dim=6 nelec=3\n1 1 3 1 0\n")

    def test_duplicate_determinant(self):
        with pytest.raises(ParseError, match="duplicate determinant"):
            parse_wavefunction("dim=4 nelec=2\n1 2 1 0\n1 2 0.5 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_wavefunction("dim=4 nelec=2\n1 5 1 0\n")

    def test_wrong_cardinality_reports_line(self):
        with pytest.raises(ParseError, match=":2:"):
            parse_wavefunction("dim=4 nelec=2\n1 2 3 1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_wavefunction("dim=4\n1 2 1 0\n")

    def test_normalization_warning(self, capsys):
        parse_wavefunction("dim=4 nelec=2\n1 2 2 0\n", source="x.wf")
        assert "renormalizing" in capsys.readouterr().err

    def test_norm_taken_once(self, monkeypatch, capsys):
        calls = []
        real = fermicorr.CIWavefunction.norm
        monkeypatch.setattr(fermicorr.CIWavefunction, "norm", lambda psi: calls.append(1) or real(psi))
        fermicorr.cli.load_wavefunction(DATA / "psi_3e.wf")
        assert len(calls) == 1
        assert main(REPORT_ARGV["corr"]) == 0
        assert capsys.readouterr().out == TEXT_REPORTS["corr"]

    def test_round_trip_is_exact(self, rng):
        psi = random_state(6, 3, rng)
        again = parse_wavefunction(format_wavefunction(psi))
        assert set(again.amplitudes) == set(psi.amplitudes)
        for key, val in psi.amplitudes.items():
            assert abs(again.amplitude(key) - val) < 1e-15


class TestParseMixture:
    def test_resolves_relative_paths(self):
        text = "0.5 one_particle_a.wf\n0.5 one_particle_b.wf\n"
        mixed = parse_mixture(text, DATA)
        assert len(mixed.components) == 2

    def test_weight_renormalization_warns(self, capsys):
        text = "1.0 one_particle_a.wf\n1.0 one_particle_b.wf\n"
        mixed = parse_mixture(text, DATA)
        assert "renormalizing" in capsys.readouterr().err
        assert abs(sum(w for w, _ in mixed.components) - 1.0) < 1e-12

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="positive"):
            parse_mixture("-0.5 one_particle_a.wf\n1.5 one_particle_b.wf\n", DATA)


class TestCommands:
    def test_corr_on_shipped_file(self, capsys):
        assert main(["corr", str(DATA / "psi_3e.wf")]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if l.startswith("corr")).split()[1])
        assert abs(value - 4.083) < 0.005

    def test_corr_json(self, capsys):
        assert main(["corr", "--json", str(DATA / "phi_3e.wf")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["corr"] - 5.510) < 0.005
        assert abs(payload["overlap"] - 16 / 729) < 1e-12
        assert len(payload["lambda"]) == 6
        assert {"entropy_normalized", "entropy_raw", "degree"} <= payload.keys()

    def test_corr_natural_log(self, capsys):
        assert main(["corr", "--base", "e", "--json", str(DATA / "psi_3e.wf")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["corr"] + math.log(43 / 729)) < 1e-9

    def test_corr2_reports_weights(self, capsys):
        assert main(["corr2", "--json", str(DATA / "heitler_london.wf")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["corr"] - 4.0) < 1e-9
        assert np.allclose(payload["schmidt_weights"], [0.5, 0.5], atol=1e-12)

    def test_corr2_rejects_other_sectors(self, capsys):
        assert main(["corr2", str(DATA / "psi_3e.wf")]) == 3
        assert "nelec=2" in capsys.readouterr().err

    def test_corr2_builds_the_pairing_once(self, monkeypatch, capsys):
        calls = []
        real = fermicorr.corr.schmidt_2e
        for module in (fermicorr.corr, fermicorr.cli):
            monkeypatch.setattr(module, "schmidt_2e", lambda psi: calls.append(psi) or real(psi),
                                raising=False)
        assert main(REPORT_ARGV["corr2"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == TEXT_REPORTS["corr2"]

    def test_vacuum(self, tmp_path, capsys):
        # N = 0: corr 0, overlap 1, and the measures that divide by N report 0
        (tmp_path / "vacuum.wf").write_text("dim=4 nelec=0\n1 0\n")
        (tmp_path / "vacuum.mix").write_text("0.5 vacuum.wf\n0.5 vacuum.wf\n")
        for command, name in (("corr", "vacuum.wf"), ("mixed", "vacuum.mix")):
            assert main([command, "--json", str(tmp_path / name)]) == 0
            report = json.loads(capsys.readouterr().out)
            fields = ("corr", "overlap", "entropy_normalized", "entropy_raw", "degree")
            assert [report[f] for f in fields] == [0, 1, 0, 0, 0]

    def test_mixed_one_bit(self, capsys):
        assert main(["mixed", "--json", str(DATA / "half_half.mix")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["corr"] - 1.0) < 1e-9
        assert abs(payload["fidelity"] - 1 / math.sqrt(2)) < 1e-12

    def test_oracle_agreement(self, capsys):
        assert main(["oracle", "--json", str(DATA / "psi_3e.wf")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference"] < 1e-12

    def test_hubbard_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main([
            "hubbard-sweep", "--u-min", "0", "--u-max", "2", "--steps", "5",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,energy,corr,entropy,entropy_normalized,degree"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) + 2.0) < 1e-9

    def test_verify_wick_passes(self, capsys):
        assert main(["verify-wick", "--dim", "5", "--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "failures            0" in out

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["corr", "no_such_file.wf"]) == 2

    def test_oracle_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(fermicorr.cli, "overlap_oracle", lambda psi: 0.5)
        assert main(["oracle", "--json", str(DATA / "psi_3e.wf")]) == 3
        assert json.loads(capsys.readouterr().out)["overlap_oracle"] == 0.5

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.wf"
        bad.write_text("dim=4 nelec=2\n1 1 3 1 0\n")
        assert main(["corr", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


REPORT_ARGV = {
    "corr": ["corr", str(DATA / "psi_3e.wf")],
    "corr2": ["corr2", str(DATA / "heitler_london.wf")],
    "mixed": ["mixed", str(DATA / "half_half.mix")],
    "oracle": ["oracle", str(DATA / "psi_3e.wf")],
    "verify-wick": ["verify-wick", "--dim", "5", "--trials", "10", "--seed", "1"],
}


@pytest.mark.parametrize("command", list(REPORT_ARGV))
def test_json_report(capsys, command):
    assert main([*REPORT_ARGV[command], "--json"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


@pytest.mark.parametrize(
    "argv",
    [
        ["corr2", "--tol", "1e-9", str(DATA / "heitler_london.wf")],
        ["oracle", "--base", "e", str(DATA / "psi_3e.wf")],
        ["hubbard-sweep", "--tol", "1e-9"],
        ["hubbard-sweep", "--json"],
        ["verify-wick", "--base", "e"],
        ["corr", "--tol", "1e-9", str(DATA / "psi_3e.wf")],
        ["mixed", "--tol", "1e-9", str(DATA / "half_half.mix")],
        ["oracle", "--tol", "1e-9", str(DATA / "psi_3e.wf")],
        ["verify-wick", "--tol", "1e-9"],
    ],
    ids=["corr2-tol", "oracle-base", "hubbard-sweep-tol", "hubbard-sweep-json", "verify-wick-base",
         "corr-tol", "mixed-tol", "oracle-tol", "verify-wick-tol"],
)
def test_unread_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hubbard-sweep", "--t", "nan"],
        ["hubbard-sweep", "--t", "0"],
        ["hubbard-sweep", "--u-min", "inf"],
        ["hubbard-sweep", "--u-max", "-inf"],
        ["hubbard-sweep", "--steps", "0"],
        ["verify-wick", "--dim", "0"],
        ["verify-wick", "--dim", "-1"],
        ["verify-wick", "--seed", "-1"],
        ["verify-wick", "--trials", "-3"],
        ["verify-wick", "--trials", "many"],
    ],
    ids=lambda argv: "=".join(argv[1:]),
)
def test_bad_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--steps", "0"], ["--u-min", "nan"], ["--u-max", "-inf"]],
                         ids=lambda argv: "=".join(argv))
def test_sweep_script_bad_options_exit_2(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_hubbard_sweep.py"), *argv, "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2
    assert f"argument {argv[0]}: expected" in proc.stderr
    assert not out.exists()


def test_dimension_past_the_oracle_cap_exits_3(capsys):
    assert main(["verify-wick", "--dim", "15", "--trials", "1"]) == 3
    assert "(limit MAX_ORACLE_DIM = 14)" in capsys.readouterr().err


TEXT_REPORTS = {
    "corr": """\
corr                4.08351024962
overlap             0.0589849108368
base                2
lambda              0.666666666667 0.666666666667 0.666666666667 0.333333333333 0.333333333333 0.333333333333
entropy_normalized  2.50325833478
entropy_raw         2.75488750216
degree              5.4
""",
    "corr2": """\
corr                4
overlap             0.0625
base                2
lambda              0.5 0.5 0.5 0.5
entropy_normalized  2
entropy_raw         2
degree              4
schmidt_weights     0.5 0.5
""",
    "mixed": """\
corr                1
overlap             0.5
fidelity            0.707106781187
base                2
lambda              0.5 0.5
entropy_normalized  1
entropy_raw         1
degree              2
""",
}


@pytest.mark.parametrize("command", list(TEXT_REPORTS))
def test_text_report(capsys, command):
    assert main(REPORT_ARGV[command]) == 0
    assert capsys.readouterr().out == TEXT_REPORTS[command]


ONE_ORBITAL_WF = "dim=2 nelec=1\n1 {} 0\n"
TWO_STATE_MIX = "{} " + str(DATA / "one_particle_a.wf") + "\n0.5 " + str(DATA / "one_particle_b.wf") + "\n"


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        pytest.param(ONE_ORBITAL_WF.format("nan"), ["corr"], 2, "finite", id="nan-amplitude"),
        pytest.param(ONE_ORBITAL_WF.format("inf"), ["oracle"], 2, "finite", id="inf-amplitude"),
        pytest.param(TWO_STATE_MIX.format("nan"), ["mixed"], 2, "positive and finite",
                     id="nan-weight"),
        pytest.param(TWO_STATE_MIX.format("inf"), ["mixed"], 2, "positive and finite",
                     id="inf-weight"),
        # unreadable input: text None makes the path a directory
        pytest.param(None, ["corr"], 2, "Is a directory", id="directory"),
        pytest.param("dim=2 nelec=1 # é\n1 1 0\n".encode("latin-1"), ["corr"], 2, "not UTF-8",
                     id="non-utf8"),
        pytest.param(f"0.5 {DATA / 'one_particle_a.wf'}\n0.5 {DATA / 'psi_3e.wf'}\n", ["mixed"], 2,
                     "input: sector mismatch", id="mixed-dim"),
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, text, argv, code, message):
    path = tmp_path / "input"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        status = main([*argv, str(path)])
    except SystemExit as exc:  # argparse rejects the option
        status = exc.code
    assert status == code
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error:") and message in last


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", ["1e200", "1e-200", "1e-310"])
def test_extreme_amplitudes_normalize(tmp_path, capsys, amplitude):
    # |c|² overflows or underflows a double (and at 1e-310 so does 1/norm);
    # the file is still a normalizable state, (|12> + |34>) / sqrt(2), at 4 bits
    path = tmp_path / "extreme.wf"
    path.write_text(f"dim=4 nelec=2\n1 2 {amplitude} 0\n3 4 {amplitude} 0\n")
    assert main(["corr", "--json", str(path)]) == 0
    assert abs(json.loads(capsys.readouterr().out)["corr"] - 4.0) < 1e-12


class TestConsoleEntry:
    def test_import_does_not_load_scipy(self):
        code = "import sys, fermicorr, fermicorr.cli; assert 'scipy' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", code], env=_child_env()).returncode == 0

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fermicorr.cli", "corr", "--json", str(DATA / "psi_3e.wf")],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["corr"] - 4.083) < 0.005


ADDRESS_LIMIT = 1 << 30  # a missing size check then fails fast instead of filling memory


def _run_limited(args):
    env = _child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, preexec_fn=limit,
        timeout=120,
    )


@pytest.mark.parametrize("entry", ["corr_pure", "cli"])
def test_rotation_size_error(tmp_path, entry):
    # (|0..19> + |20..39>)/sqrt(2) in d=64: 40 active orbitals, C(40, 20) targets
    amp = f"{1 / math.sqrt(2)!r} 0"
    path = tmp_path / "wide.wf"
    path.write_text(
        "dim=64 nelec=20\n"
        + " ".join(map(str, range(1, 21))) + f" {amp}\n"
        + " ".join(map(str, range(21, 41))) + f" {amp}\n"
    )
    if entry == "cli":
        proc = _run_limited(["-m", "fermicorr.cli", "corr", str(path)])
        assert proc.returncode == 3
    else:
        code = (
            "import sys; from pathlib import Path; from fermicorr import corr_pure; "
            "from fermicorr.cli import load_wavefunction; "
            "corr_pure(load_wavefunction(Path(sys.argv[1])))"
        )
        proc = _run_limited(["-c", code, str(path)])
        assert "ValueError: rotation too large" in proc.stderr
    assert "C(40, 20) = 137846528820 target determinants over 40 active orbitals" in proc.stderr
