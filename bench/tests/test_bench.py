"""Tests of the benchmark itself: span arithmetic, the gate, seeded inputs."""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import inputs
import run
import tracing
from conftest import BENCH


def test_self_times_subtract_direct_children_only():
    # op(0..10) > corr_pure(1..9) > [rotate_ci(2..6) > slater(3..4)], one_pdm(7..8)
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("corr.corr_pure", 1.0, 9.0, 0, 0),
        ("natural_orbitals.rotate_ci", 2.0, 6.0, 1, 0),
        ("fock.slater_overlap", 3.0, 4.0, 2, 0),
        ("wavefunction.one_pdm", 7.0, 8.0, 1, 0),
        ("natural_orbitals.rotate_ci", 11.0, 12.5, -1, 1),
    ]
    agg = tracing.self_times(spans)
    assert agg["op"] == [2.0, 1, 10.0]
    assert agg["corr.corr_pure"] == [3.0, 1, 8.0]
    assert agg["natural_orbitals.rotate_ci"] == [4.5, 2, 5.5]
    assert agg["fock.slater_overlap"] == [1.0, 1, 1.0]
    assert sum(a[0] for a in agg.values()) == pytest.approx(10.0 + 1.5)


def test_hd_quantile_weights_order_statistics_by_beta_mass():
    # n=3, q=1/2: Beta(2, 2) gives the ranks weights 7/27, 13/27, 7/27.
    assert run.hd_quantile([0.0, 0.0, 27.0], 0.5) == pytest.approx(7.0, abs=1e-3)
    assert run.hd_quantile([5.0, 1.0, 3.0], 0.5) == pytest.approx(3.0)
    assert run.hd_quantile([2.0] * 40, 0.95) == pytest.approx(2.0)
    assert run.hd_quantile(list(range(100)), 0.95) == pytest.approx(94.5, abs=0.01)


def test_tracer_wraps_every_binding_and_restores_them():
    import fermicorr
    import fermicorr.corr
    import fermicorr.natural_orbitals

    original = fermicorr.natural_orbitals.rotate_ci
    psi = fermicorr.CIWavefunction(
        fermicorr.OrbitalSpace(4), 2,
        {fermicorr.Determinant(0b1001): 2**-0.5, fermicorr.Determinant(0b0110): -(2**-0.5)},
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fermicorr.corr.rotate_ci is not original
        assert fermicorr.rotate_ci is fermicorr.corr.rotate_ci
        for _ in range(2):
            tracer.span(tracing.OP, lambda: fermicorr.corr_pure(psi))()
    finally:
        tracer.remove()
    assert fermicorr.corr.rotate_ci is original and fermicorr.rotate_ci is original
    metrics = tracing.layer_metrics(tracer, cycles=2, user_op_s=1.0, overhead_s=0.0)
    assert metrics["natural_orbitals.rotate_ci.calls"] == 1  # per cycle
    assert metrics["natural_orbitals.rotate_ci.targets"] == 6  # C(4, 2) active targets
    assert metrics["fock.slater_overlap.calls"] == 12  # 6 targets x 2 source dets
    assert tracer.absent == []


def test_tracer_records_a_removed_name_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANNED", ("fock.no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["fock.no_such_function"]


def test_parse_importtime_takes_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        10 |         10 |           scipy",
        "import time:        50 |       1000 |         scipy.sparse",
        "import time:        20 |       1200 |       fermicorr.oracle",
        "import time:         5 |       1300 |   fermicorr",
        "import time:         7 |          7 |   fermicorr.cli",
    ])
    assert tracing.parse_importtime(stderr) == pytest.approx((1307e-6, 1000e-6))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    first = inputs.dump(inputs.generate(workload, 7))
    assert inputs.dump(inputs.generate(workload, 7)) == first
    assert inputs.dump(inputs.generate(workload, 8)) != first
    code = f"import sys, inputs; sys.stdout.buffer.write(inputs.dump(inputs.generate({workload!r}, 7)))"
    fresh = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, check=True)
    assert fresh.stdout == first


def test_sparse_states_use_bit_63():
    for rec in inputs.generate("sparse_d64", 3):
        assert any(mask >> 63 for mask, _, _ in rec["state"]["dets"])


def test_few_det_states_cover_their_support():
    for seed in range(20):
        for rec in inputs.generate("sparse_d64", seed):
            if rec["label"].startswith("few-det"):
                m = int(rec["label"].split("support=")[1].split()[0])
                union = 0
                for mask, _, _ in rec["state"]["dets"]:
                    union |= mask
                assert union.bit_count() == m


@pytest.mark.parametrize("workload", ["dense_ci", "sparse_d64", "oracle_fock"])
def test_gate_rejects_an_answer_off_by_1e_6(workload):
    records = [r for r in inputs.generate(workload, 5) if r["op"] != "verify_wick"]
    for rec in records:
        ref = gate.reference(rec)
        if rec["op"] == "overlap_oracle":
            right, wrong = 2.0**-ref, 2.0 ** -(ref + 1e-6)
        else:
            right, wrong = ref, ref + 1e-6
        assert gate.check(rec, ref, right)
        assert not gate.check(rec, ref, wrong)
        assert not gate.check(rec, ref, None)


def test_gate_references_agree_with_the_program():
    import program

    for rec in inputs.generate("sparse_d64", 2)[:2] + inputs.generate("dense_ci", 2)[1:3]:
        out = program.call(rec, BENCH)()
        assert gate.check(rec, gate.reference(rec), out)
    wick = next(r for r in inputs.generate("oracle_fock", 2) if r["op"] == "verify_wick")
    assert gate.check(wick, None, program.call(wick, BENCH)())
    assert not gate.check(wick, None, [1e-6, 0.0])


def test_gate_checks_cli_outputs(tmp_path):
    import program

    inputs.write_cli_files(tmp_path)
    for rec in inputs.generate("cli_files", 4):
        out = program.call(rec, tmp_path)()
        assert gate.check(rec, None, out), rec["argv"]
        assert not gate.check(rec, None, {**out, "rc": 3})
        if rec["expect"]["kind"] == "json":
            payload = json.loads(out["out"])
            payload["corr"] += 1e-6
            assert not gate.check(rec, None, {**out, "out": json.dumps(payload)})


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert set(run.TAIL) == set(inputs.WORKLOADS)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_ci", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
