"""Benchmark harness: table-driven solvers vs the generic-group baselines.

Each row times one method on instances matched to the same context and
exponent distribution; per-trial rng streams are derived as seed xor trial,
so a fixed seed reproduces the exact instance sequence.  The BSGS baseline
runs with a capped budget (its order bound is clamped to the square of the
step budget), so on groups far beyond desk scale it honestly burns its
budget and records zero successes rather than being skipped.
"""

from __future__ import annotations

import math
import random
import time

from . import oracle
from .digits import ExponentDigits, agreement_bound, relaxed_sum_bound, sample_bounded_sum
from .extfield import build_artin_schreier, build_kummer, encode_digits, ext_pow
from .ff import build_field
from .solver import (DlpInstance, NoCandidate, NotSplit, RootNotInTable, solve_bounded,
                     solve_listdecode)

_BSGS_STEP_BUDGET = 4096

# a miss counts as an unsuccessful trial; any other exception is a fault and propagates
_MISSES = (NotSplit, RootNotInTable, NoCandidate,
           oracle.BudgetExceeded, oracle.NotInSubgroup, oracle.NotFound)


def _contexts(suite: str):
    out = [("kummer", 5, 1, 4, 2, 1), ("kummer", 31, 1, 15, 3, 1)]
    if suite == "medium":
        out += [("kummer", 7, 1, 6, 3, 1), ("kummer", 13, 1, 4, 2, 1),
                ("artin_schreier", 7, 1, 7, 1, 0), ("artin_schreier", 11, 1, 11, 1, 0)]
    return out


def _build(kind, p, d, n, a, b):
    field = build_field(p, d, rng_seed=1)
    if kind == "kummer":
        return build_kummer(field, n, a, b)
    return build_artin_schreier(p, a, b)


def _sample_listdecode_exponent(n, q, rng):
    bound = relaxed_sum_bound(n)
    need = agreement_bound(n)
    while True:
        e = sample_bounded_sum(n, q, bound, rng)
        if e.nonzero_count() >= need:
            return e


def _sample_binary_pattern(n, w, rng):
    # resample until the left-half weight sits within the baseline's +-1 slack
    left = n // 2
    half = w // 2
    while True:
        pos = rng.sample(range(n), w)
        wl = sum(1 for i in pos if i < left)
        if half - 1 <= wl <= half + 1:
            return sorted(pos)


def _percentile95(times):
    times = sorted(times)
    return times[max(0, math.ceil(0.95 * len(times)) - 1)]


def run_bench(suite: str, trials: int, seed: int) -> list[tuple]:
    """Rows (method, q, n, sum_bound, trials, successes, mean_ms, p95_ms)."""
    rows = []
    if trials <= 0:
        return rows
    for kind, p, d, n, a, b in _contexts(suite):
        ctx = _build(kind, p, d, n, a, b)
        q = ctx.base.q
        w_mim = min(4, max(1, n // 2))
        # the direct regime stops at n for Kummer but at p - 1 for Artin-Schreier
        direct_bound = n if kind == "kummer" else n - 1

        for method in ("solve_bounded", "solve_listdecode", "bsgs_dlp",
                       "meet_in_middle_binary"):
            times = []
            successes = 0
            if method in ("solve_bounded", "bsgs_dlp"):
                sum_bound = direct_bound
            elif method == "solve_listdecode":
                sum_bound = relaxed_sum_bound(n)
            else:
                sum_bound = w_mim
            for i in range(trials):
                rng = random.Random(seed ^ i)
                if method == "meet_in_middle_binary":
                    pos = _sample_binary_pattern(n, w_mim, rng)
                    e = ExponentDigits(q, tuple(1 if i in pos else 0 for i in range(n)))
                elif method == "solve_listdecode":
                    e = _sample_listdecode_exponent(n, q, rng)
                else:
                    e = sample_bounded_sum(n, q, direct_bound, rng)
                target = encode_digits(ctx, e)
                t0 = time.perf_counter()
                try:
                    if method == "solve_bounded":
                        out = solve_bounded(DlpInstance(ctx, target), rng)
                        ok = tuple(out.digits) == tuple(e)
                    elif method == "solve_listdecode":
                        out = solve_listdecode(DlpInstance(ctx, target), rng)
                        ok = tuple(out.digits) == tuple(e)
                    elif method == "bsgs_dlp":
                        bound = min(q ** n - 1, _BSGS_STEP_BUDGET ** 2)
                        budget = oracle.GroupBudget(_BSGS_STEP_BUDGET)
                        got = oracle.bsgs_dlp(ctx.generator, target, bound, budget)
                        # least exponent may differ from the planted one mod ord(g)
                        ok = ext_pow(ctx.generator, got) == target
                    else:
                        got = oracle.meet_in_middle_binary(ctx.generator, target, n, w_mim)
                        ok = ext_pow(ctx.generator, got) == target
                    if ok:
                        successes += 1
                except _MISSES:
                    pass
                times.append((time.perf_counter() - t0) * 1000.0)
            rows.append((method, q, n, sum_bound, trials, successes,
                         round(sum(times) / len(times), 3),
                         round(_percentile95(times), 3)))
    return rows
