import hashlib
import json
import time

import pytest

from kummerlog.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_gen_solve_roundtrip_50_seeds(tmp_path):
    # 25 Kummer + 25 Artin-Schreier seeded runs, gen -> solve --secret-in
    for seed in range(25):
        inst = tmp_path / f"k{seed}.json"
        sec = tmp_path / f"k{seed}.secret.json"
        assert main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2",
                     "--b", "1", "--sum-bound", "4", "--seed", str(seed),
                     "--out", str(inst), "--secret-out", str(sec)]) == 0
        assert main(["solve", "--in", str(inst), "--secret-in", str(sec)]) == 0
    for seed in range(25):
        inst = tmp_path / f"a{seed}.json"
        sec = tmp_path / f"a{seed}.secret.json"
        assert main(["gen", "--kind", "artin_schreier", "--p", "7", "--a", "1",
                     "--b", "0", "--sum-bound", "6", "--seed", str(seed),
                     "--out", str(inst), "--secret-out", str(sec)]) == 0
        assert main(["solve", "--in", str(inst), "--secret-in", str(sec)]) == 0


def test_gen_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2", "--b", "1",
            "--sum-bound", "4", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_reducible_binomial_exit2(tmp_path, capsys):
    code = main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "1",
                 "--b", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "ReducibleBinomial" in capsys.readouterr().err


def test_gen_reducible_binomial_names_the_seed(tmp_path, capsys):
    # over F_25 the seed picks the base modulus, so --a 6 names another element
    # at each seed; x^8 - 6 is reducible only over the field of seed 2
    flags = ["gen", "--kind", "kummer", "--p", "5", "--d", "2", "--n", "8",
             "--a", "6", "--b", "1", "--out", str(tmp_path / "x.json")]
    assert main(flags + ["--seed", "1"]) == 0
    assert main(flags + ["--seed", "3"]) == 0
    capsys.readouterr()
    assert main(flags + ["--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert "ReducibleBinomial" in err and "--seed 2" in err


def test_gen_min_nonzero(tmp_path):
    inst = tmp_path / "i.json"
    sec = tmp_path / "s.json"
    assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                 "--b", "1", "--sum-bound", "19", "--min-nonzero", "9", "--seed", "3",
                 "--out", str(inst), "--secret-out", str(sec)]) == 0
    secret = json.loads(sec.read_text())
    assert sum(1 for d in secret["digits"] if d) >= 9
    assert secret["sum"] <= 19


def test_gen_files_pinned(tmp_path):
    # a dozen draws from one count table give the same files as one table per draw
    inst, sec = tmp_path / "i.json", tmp_path / "s.json"
    assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                 "--b", "1", "--sum-bound", "19", "--min-nonzero", "12", "--seed", "1",
                 "--out", str(inst), "--secret-out", str(sec)]) == 0
    assert hashlib.sha256(inst.read_bytes()).hexdigest() == (
        "c248e565f8780b9cb8145e11830cf052980d7ef88178abfa3a268effa9cecfc2")
    assert hashlib.sha256(sec.read_bytes()).hexdigest() == (
        "28a1d6d835cdf29a7e2c881f4286e73c560baf7da9b16089f9cc36fa81eeb6b8")


def test_gen_refuses_a_rare_min_nonzero_fast(tmp_path, capsys):
    # about 2 in 10^6 draws have 15 nonzero digits with sum <= 19
    t0 = time.perf_counter()
    assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                 "--b", "1", "--sum-bound", "19", "--min-nonzero", "15", "--seed", "1",
                 "--out", str(tmp_path / "i.json")]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ValueError: --min-nonzero 15: only 2.09e-06 of")
    assert not (tmp_path / "i.json").exists()


def test_gen_refuses_an_oversized_base_field_fast(tmp_path, capsys):
    # 2^600 > 2^20 is refused before any search for a degree-600 modulus
    t0 = time.perf_counter()
    assert main(["gen", "--kind", "kummer", "--p", "2", "--d", "600", "--n", "3", "--a", "1",
                 "--b", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("TooLarge: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flags", [
    ["--min-nonzero", "16"],
    ["--sum-bound", "3", "--min-nonzero", "4"],
], ids=["above_n", "above_sum_bound"])
def test_gen_unreachable_min_nonzero_exit2(tmp_path, capsys, flags):
    # no digit vector qualifies, so resampling would never stop
    assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                 "--b", "1", *flags, "--out", str(tmp_path / "i.json")]) == 2
    assert capsys.readouterr().err.startswith("ValueError: ")
    assert not (tmp_path / "i.json").exists()


def test_solve_worked_value(tmp_path, capsys):
    inst = tmp_path / "w.json"
    inst.write_text(json.dumps({
        "kind": "kummer", "p": 5, "d": 1, "n": 4, "a": [2], "b": [1],
        "target": [[1], [4], [4], [1]],
    }))
    assert main(["solve", "--in", str(inst), "--strategy", "direct"]) == 0
    out = capsys.readouterr().out
    assert "digits: 1 0 2 0" in out
    assert "e: 51" in out
    assert "method: direct" in out


def test_solve_identity_target(tmp_path, capsys):
    inst = tmp_path / "one.json"
    inst.write_text(json.dumps({
        "kind": "kummer", "p": 5, "d": 1, "n": 4, "a": [2], "b": [1],
        "target": [[1]],
    }))
    assert main(["solve", "--in", str(inst), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["e"] == "0"
    assert rep["digits"] == [0, 0, 0, 0]


def test_solve_direct_fails_on_relaxed_instance(tmp_path):
    inst = tmp_path / "i.json"
    sec = tmp_path / "s.json"
    # digit sum around 1.5n defeats the direct strategy
    for seed in range(50):
        assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                     "--b", "1", "--sum-bound", "22", "--seed", str(seed),
                     "--out", str(inst), "--secret-out", str(sec)]) == 0
        secret = json.loads(sec.read_text())
        if secret["sum"] > 19:
            break
    else:
        pytest.skip("no heavy exponent sampled")
    assert main(["solve", "--in", str(inst), "--strategy", "direct"]) == 5


@pytest.mark.parametrize("seed", [1, 3])
def test_gen_solve_json_over_f25(tmp_path, capsys, seed):
    # d = 2 writes base_modulus, which solve reads back to rebuild F_25
    inst, sec = tmp_path / "i.json", tmp_path / "s.json"
    assert main(["gen", "--p", "5", "--d", "2", "--n", "8", "--a", "6", "--b", "1",
                 "--seed", str(seed), "--out", str(inst), "--secret-out", str(sec)]) == 0
    assert "base_modulus" in json.loads(inst.read_text())
    digits = json.loads(sec.read_text())["digits"]
    if seed == 1:
        assert digits == [0, 1, 4, 1, 0, 0, 0, 1]
    capsys.readouterr()
    for strategy in ("direct", "list", "auto"):
        assert main(["solve", "--in", str(inst), "--secret-in", str(sec),
                     "--strategy", strategy, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["match"] is True
        assert rep["digits"] == digits


def test_solve_secret_mismatch_exit4(tmp_path):
    inst = tmp_path / "i.json"
    sec = tmp_path / "s.json"
    assert main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2",
                 "--b", "1", "--seed", "1", "--out", str(inst),
                 "--secret-out", str(sec)]) == 0
    secret = json.loads(sec.read_text())
    secret["digits"] = [(d + 1) % 5 for d in secret["digits"]]
    sec.write_text(json.dumps(secret))
    assert main(["solve", "--in", str(inst), "--secret-in", str(sec)]) == 4


@pytest.mark.parametrize("edit", [
    lambda doc: dict(doc, target=5),
    lambda doc: dict(doc, target=[[1.5]] + doc["target"][1:]),
    lambda doc: dict(doc, n="15"),
    lambda doc: [doc],
    lambda doc: dict(doc, d=0),
    lambda doc: dict(doc, kind="edwards"),
    lambda doc: dict(doc, target=[[1]] * 16),
], ids=["target_int", "float_coeff", "n_str", "top_level_list", "d_zero", "unknown_kind",
        "target_too_long"])
def test_solve_malformed_instance_exit2(tmp_path, capsys, edit):
    inst = tmp_path / "i.json"
    assert main(["gen", "--kind", "kummer", "--p", "31", "--n", "15", "--a", "3",
                 "--b", "1", "--seed", "3", "--out", str(inst)]) == 0
    inst.write_text(json.dumps(edit(json.loads(inst.read_text()))))
    capsys.readouterr()
    assert main(["solve", "--in", str(inst)]) == 2
    assert capsys.readouterr().err.startswith("ValueError: ")


@pytest.mark.parametrize("secret", [[1, 2], {}, {"digits": 5}],
                         ids=["top_level_list", "no_digits", "digits_int"])
def test_solve_malformed_secret_exit2(tmp_path, capsys, secret):
    inst = tmp_path / "i.json"
    sec = tmp_path / "s.json"
    assert main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2",
                 "--b", "1", "--seed", "1", "--out", str(inst)]) == 0
    sec.write_text(json.dumps(secret))
    capsys.readouterr()
    assert main(["solve", "--in", str(inst), "--secret-in", str(sec)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ValueError: ")
    assert captured.out == ""


@pytest.mark.parametrize("bad", ["in", "secret"])
def test_solve_non_utf8_file_exit3(tmp_path, capsys, bad):
    inst = tmp_path / "i.json"
    sec = tmp_path / "s.json"
    assert main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2",
                 "--b", "1", "--seed", "1", "--out", str(inst),
                 "--secret-out", str(sec)]) == 0
    (inst if bad == "in" else sec).write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["solve", "--in", str(inst), "--secret-in", str(sec)]) == 3
    assert capsys.readouterr().err.startswith("UnicodeDecodeError: ")


def test_solve_missing_file_exit3(tmp_path):
    assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 3


def test_gen_unwritable_exit3(tmp_path):
    assert main(["gen", "--kind", "kummer", "--p", "5", "--n", "4", "--a", "2",
                 "--b", "1", "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 3


def test_count_examples(capsys):
    assert main(["count", "--w", "5", "--n", "4", "--q", "5"]) == 0
    assert capsys.readouterr().out.strip() == "52"
    assert main(["count", "--w", "0", "--n", "9", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["count", "--tail-ratio", "--n", "4", "--q", "5"]) == 0
    assert capsys.readouterr().out.strip() == "17/122"


def test_count_bad_params(capsys):
    assert main(["count", "--n", "4", "--q", "5"]) == 2
    assert main(["count", "--tail-ratio", "--n", "2000", "--q", "1000"]) == 2


def test_count_guard_exit2_fast(capsys):
    # the rolling-row DP refuses n*w beyond its guard instead of allocating it
    t0 = time.perf_counter()
    assert main(["count", "--w", "200000", "--n", "200000", "--q", "3"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "TooLarge" in capsys.readouterr().err


def test_count_tail_ratio_guard_exit2_fast(capsys):
    # n*(s+1) = 1000*1321 passes 10^6, so the share is refused before it starts
    t0 = time.perf_counter()
    assert main(["count", "--tail-ratio", "--n", "1000", "--q", "1000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "TooLarge" in capsys.readouterr().err
    # (200, 200) is within the guard and answered quickly
    t0 = time.perf_counter()
    assert main(["count", "--tail-ratio", "--n", "200", "--q", "200"]) == 0
    assert time.perf_counter() - t0 < 1.0


def test_order_refuses_a_large_prime_fast(capsys):
    # 2^61 - 1 is prime; the p < 2^31 bound is tested before the primality test
    t0 = time.perf_counter()
    assert main(["order", "--p", "2305843009213693951", "--n", "2", "--a", "1",
                 "--b", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "TooLarge" in capsys.readouterr().err


def test_order_refuses_a_group_order_beyond_the_factoring_guard(capsys):
    # 31^30 - 1 is about 2^149; it is refused before Pollard-Brent starts
    t0 = time.perf_counter()
    assert main(["order", "--p", "31", "--n", "30", "--a", "3", "--b", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "factoring guard (2^80)" in capsys.readouterr().err


def test_count_propagates_internal_faults(monkeypatch):
    # only parameter errors map to exit 2; anything else is a fault
    from kummerlog import cli

    def broken(w, n, q):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "count_N", broken)
    with pytest.raises(RuntimeError):
        main(["count", "--w", "5", "--n", "4", "--q", "5"])


@pytest.mark.parametrize("command", ["gen", "order"])
@pytest.mark.parametrize("flags", [
    ["--kind", "artin_schreier", "--p", "97", "--d", "3", "--a", "1", "--b", "1"],
    ["--p", "97", "--d", "3", "--a", "1", "--b", "2"],
    ["--p", "97", "--d", "3", "--n", "1", "--a", "1", "--b", "2"],
    ["--p", "97", "--d", "3", "--n", "5", "--a", "1", "--b", "2"],
], ids=["as_needs_d1", "n_required", "n_below_2", "n_not_dividing"])
def test_gen_order_flag_errors_before_field_build(monkeypatch, tmp_path, command, flags):
    # none of these needs F_{97^3}, so it is never built
    from kummerlog import cli

    def no_build(*args, **kwargs):
        raise AssertionError("field built before the flag checks")

    monkeypatch.setattr(cli, "build_field", no_build)
    out = ["--out", str(tmp_path / "x.json")] if command == "gen" else []
    assert main([command, *flags, *out]) == 2


def test_order_probe(capsys):
    assert main(["order", "--kind", "kummer", "--p", "5", "--n", "4",
                 "--a", "2", "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert "order: 312" in out
    assert "exceeds_2^4: yes" in out


def test_bench_header_and_trials_zero(capsys):
    assert main(["bench", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "method,q,n,sum_bound,trials,successes,mean_ms,p95_ms\n"


def test_bench_small_suite(tmp_path):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "small", "--trials", "3", "--seed", "1",
                 "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "method,q,n,sum_bound,trials,successes,mean_ms,p95_ms"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 8  # 4 methods x 2 contexts
    by_key = {(r[0], r[1]): r for r in rows}
    # the structured solver recovers bounded exponents; generic bsgs burns its
    # budget on the q=31, n=15 group, so the measured ordering must hold
    sb = by_key[("solve_bounded", "31")]
    bs = by_key[("bsgs_dlp", "31")]
    assert int(sb[5]) == 3 and int(bs[5]) == 0
    assert float(sb[6]) < float(bs[6])
    # everything succeeds on the tiny group
    assert int(by_key[("bsgs_dlp", "5")][5]) == 3
    assert int(by_key[("meet_in_middle_binary", "5")][5]) == 3
    assert int(by_key[("solve_listdecode", "31")][5]) == 3


def test_bench_unwritable_csv_exits_3(tmp_path):
    assert main(["bench", "--trials", "1", "--csv", str(tmp_path / "missing" / "b.csv")]) == 3


def test_bench_medium_suite(tmp_path):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "medium", "--trials", "1", "--seed", "0",
                 "--csv", str(csv)]) == 0
    rows = [ln.split(",") for ln in csv.read_text().strip().splitlines()[1:]]
    assert len(rows) == 24  # 4 methods x 6 contexts
    assert len({(r[1], r[2]) for r in rows}) == 6
    for r in rows:
        if r[0] in ("solve_bounded", "solve_listdecode"):
            assert r[5] == "1", r  # one trial, one success


def test_bench_propagates_internal_faults(monkeypatch):
    # a failed re-exponentiation is a fault, not a miss
    from kummerlog import bench, solver

    def inconsistent(inst, rng=None):
        raise solver.VerificationFailed("injected")

    monkeypatch.setattr(bench, "solve_bounded", inconsistent)
    with pytest.raises(solver.VerificationFailed):
        bench.run_bench("small", 1, 0)


def test_selftest_corrupt_hook_names_criterion(monkeypatch, capsys):
    from kummerlog import selftest

    count_N = selftest.count_N
    monkeypatch.setattr(selftest, "count_N", lambda w, n, q: count_N(w, n, q) + 1)
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert any("FAIL criterion 4" in line for line in out.splitlines())
    # the selftest has no hook flag: one is refused, not run as a green selftest
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--corrupt", "counting"])
    assert exc.value.code == 2
