"""The benchmark's own checks, at tiny run lengths.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import json
import math

import pytest

import run
import sizes
import tracer as tracing
import workloads
from kummerlog import digits, solver

SPEC = json.loads((run.program.ROOT / "BENCHMARK.json").read_text())
# short enough for a test, long enough that auto_mixed reaches a BSGS fallback
TINY_SECONDS = {"direct": 0.05, "decode": 0.1, "cliff": 0.1, "auto_mixed": 1.0}


@pytest.fixture(scope="module")
def results():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_RUNS", 1)
        return {(name, trace): run.run_workload(name, 7, TINY_SECONDS[name], trace)
                for name in workloads.WORKLOADS for trace in (False, True)}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    _, result = results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_each_workload_loads_its_layers(results):
    def m(name):
        metrics = results[name, True][1]["metrics"]
        return {k: v["value"] for k, v in metrics.items()}

    direct = m("direct")
    assert all(v == 0 for k, v in direct.items()
               if k.startswith(("listdecode.", "oracle.", "solver.build_points.")))
    assert direct["poly.factor.calls"] > 0
    for name in ("decode", "cliff"):
        assert all(v == 0 for k, v in m(name).items() if k.startswith("oracle."))
        assert m(name)["listdecode.interpolate.calls"] > 0
    assert m("cliff")["listdecode.multiplicity"] == 8
    assert m("cliff")["listdecode.cols"] == 544
    auto = m("auto_mixed")
    assert auto["oracle.bsgs_dlp.calls"] > 0
    assert auto["solver.method.fallback"] == auto["oracle.bsgs_dlp.calls"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_sum_to_the_traced_solve_time(results, name):
    metrics = {k: v["value"] for k, v in results[name, True][1]["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layers + metrics["solver.self.ms"] == pytest.approx(metrics["solver.solve.ms"])


def test_counts_and_inputs_repeat_for_a_fixed_seed(results):
    report, result = results["decode", True]
    again_report, again = run.run_workload("decode", 7, TINY_SECONDS["decode"], True)
    assert again_report["stamp"] == report["stamp"]
    counts = {k for k, m in result["metrics"].items() if m["unit"] == "count"}
    assert {k: result["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_stratified_fallbacks_do_not_depend_on_the_seed():
    workload = workloads.WORKLOADS["auto_mixed"]
    contexts = workloads.build_contexts(workload)
    ctx = contexts["kummer_31_6"]
    share = workloads.undecodable_share(ctx)
    per_seed = []
    for seed in (1, 2, 3):
        insts = workloads.generate(workload, contexts, seed, 39)
        per_seed.append(sum(workloads._undecodable(ctx, digits.ExponentDigits(31, i.planted))
                            for i in insts if i.context == "kummer_31_6"))
    assert per_seed == [math.ceil(13 * share)] * 3


def test_wrappers_are_restored_even_when_a_solve_raises(monkeypatch):
    originals = [getattr(module, attr) for module, attr, _ in tracing.TARGETS]
    monkeypatch.setattr(run, "SETUP_RUNS", 1)

    def boom(*args, **kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(solver, "solve_listdecode", boom)
    with pytest.raises(KeyError):
        run.run_workload("decode", 7, TINY_SECONDS["decode"], True)
    assert [getattr(module, attr) for module, attr, _ in tracing.TARGETS] == originals


def test_a_wrong_answer_exits_nonzero_without_a_result(monkeypatch, capsys):
    real = solver.solve_bounded

    def corrupted(inst, rng=None):
        out = real(inst, rng)
        bad = list(out.digits)
        bad[0] = (bad[0] + 1) % out.digits.base
        return solver.SolveOutcome(digits.ExponentDigits(out.digits.base, tuple(bad)),
                                   out.method)

    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(solver, "solve_bounded", corrupted)
    code = run.main(["--workload", "direct", "--seed", "3", "--seconds", "0.05",
                     "--trace", "0"])
    assert code == 3
    assert '"correct"' not in capsys.readouterr().out


def test_an_unexpected_exception_is_not_counted_as_a_failure(monkeypatch):
    def inconsistent(inst, rng=None):
        raise solver.VerificationFailed("injected")

    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(solver, "solve_bounded", inconsistent)
    with pytest.raises(solver.VerificationFailed):
        run.main(["--workload", "direct", "--seed", "3", "--seconds", "0.05"])


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(8000)]) == (99.0, 7919.0)
    assert run.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_decoder_size_table_matches_the_committed_copy():
    table = sizes.decoder_size_table()
    committed = json.loads((run.HERE / "decoder_sizes.json").read_text())
    assert table == committed
    cols = {row["n"]: row["cols"] for row in table}
    assert (cols[7], cols[14], cols[19], cols[30]) == (272, 544, 3008, 3741)
    assert [row["n"] for row in table if row["cliff"]] == [7, 14, 19, 30]
