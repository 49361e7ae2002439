"""The benchmark workloads: which contexts each one builds, how it draws
exponents, and which solver entry point it calls.

Every workload is a closed loop with one caller. Instances are drawn round
robin over the workload's contexts, instance i from its own
`random.Random(f"{seed}/{workload}/{i}/gen")`, so a longer run extends a
shorter one and a fixed seed gives the same list in any process. The solver
sees only the target element; the planted digits stay with the benchmark.

Why these workloads:
- `direct` runs the paper's polynomial-time read-off (digit sum <= n, or
  <= p - 1 for Artin-Schreier). List decoding and BSGS do no work here, so a
  change to them must leave it flat.
- `decode` runs Guruswami-Sudan decoding at degrees where the multiplicity
  stays <= 3; interpolation, candidate read-offs and y-roots share the time.
- `cliff` runs the same decoding at degrees where the multiplicity jumps to
  8 and dense elimination dominates.
- `auto_mixed` runs strategy dispatch on the full relaxed range, so the
  read-off and the decoder take their rejection paths and BSGS runs as the
  fallback. It is the only workload that reaches the oracle. Where BSGS would
  refuse the group ((31, 15) under the default budget) the undecodable
  exponents are left out, so that no solve of the benchmark fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import program

program.load()

from kummerlog import digits, extfield, ff, oracle, solver

# label -> (kind, p, d, n, a, b); for Artin-Schreier n is p and d is 1
CONTEXTS = {
    "kummer_31_15": ("kummer", 31, 1, 15, 3, 1),
    "kummer_29_14": ("kummer", 29, 1, 14, 2, 1),
    "kummer_49_12": ("kummer", 7, 2, 12, 8, 1),
    "kummer_25_8": ("kummer", 5, 2, 8, 6, 1),
    "kummer_29_7": ("kummer", 29, 1, 7, 2, 1),
    "kummer_31_6": ("kummer", 31, 1, 6, 3, 1),
    "as_11": ("artin_schreier", 11, 1, 11, 1, 0),
    "as_7": ("artin_schreier", 7, 1, 7, 1, 0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    contexts: tuple[str, ...]
    sampler: str
    entry: str
    # nominal time of one round-robin pass over the contexts, in ms, on a
    # 2-vCPU Intel Xeon; it sizes the instance list from --seconds
    cycle_ms: float


WORKLOADS = {
    w.name: w for w in (
        Workload("direct", ("kummer_31_15", "kummer_29_14", "kummer_49_12", "as_11"),
                 "bounded", "solve_bounded", 7.5),
        Workload("decode", ("kummer_31_15", "as_11", "kummer_25_8"),
                 "decodable", "solve_listdecode", 47.0),
        # one (29, 14) solve costs eight of the others; at this mix the median
        # and the tail both fall among the n = 7 solves, which are numerous
        # enough to give steady quantiles, while (29, 14) weighs on solves_per_s
        Workload("cliff", ("kummer_29_7", "as_7") * 8 + ("kummer_29_14",),
                 "decodable", "solve_listdecode", 3080.0),
        # two (31, 15) solves per (31, 6) solve put the median inside the
        # list-decoding solves and the tail inside the BSGS fallbacks
        Workload("auto_mixed", ("kummer_31_15", "kummer_31_6", "kummer_31_15"),
                 "solvable", "solve_auto", 117.0),
    )
}

# the outcomes a solve may end in without a wrong answer; anything else aborts
EXPECTED_FAILURES = (solver.NotSplit, solver.RootNotInTable, solver.NoCandidate,
                     solver.Unsolvable)


@dataclass(frozen=True)
class Instance:
    index: int
    context: str
    planted: tuple[int, ...]
    target: extfield.ExtElement


def build_context(label: str):
    kind, p, d, n, a, b = CONTEXTS[label]
    if kind == "artin_schreier":
        return extfield.build_artin_schreier(p, a, b)
    return extfield.build_kummer(ff.build_field(p, d, rng_seed=1), n, a, b)


def build_contexts(workload: Workload) -> dict:
    return {label: build_context(label) for label in workload.contexts}


def instance_count(workload: Workload, seconds: float) -> int:
    """Whole round-robin passes that fill about `seconds` of solving."""
    cycles = max(1, round(seconds * 1000.0 / workload.cycle_ms))
    return cycles * len(workload.contexts)


def _undecodable(ctx, e: digits.ExponentDigits) -> bool:
    """Above the direct range with too few nonzero digits for the decoder."""
    n = ctx.degree
    return e.digit_sum() > n and e.nonzero_count() < digits.agreement_bound(n)


def undecodable_share(ctx) -> Fraction:
    """Exact share of undecodable vectors among those with digit sum <= floor(1.32 n)."""
    n, q = ctx.degree, ctx.base.q
    s_max, need = digits.relaxed_sum_bound(n), digits.agreement_bound(n)
    state = {(0, 0): 1}  # (digit sum, nonzero digits) -> count
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (w, z), cnt in state.items():
            for dgt in range(min(q - 1, s_max - w) + 1):
                key = (w + dgt, z + (dgt > 0))
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    bad = sum(cnt for (w, z), cnt in state.items() if w > n and z < need)
    return Fraction(bad, sum(state.values()))


def _stratum_share(sampler: str, ctx) -> Fraction:
    """Share of a context's instances drawn from the undecodable set.

    `solvable` keeps that set only where BSGS can still finish it, and draws
    it at its exact share rather than by chance, so every run of a workload
    makes the same number of BSGS fallbacks, whatever the seed.
    """
    if sampler != "solvable" or ctx.base.q ** ctx.degree - 1 > oracle.GroupBudget().max_order:
        return Fraction(0)
    return undecodable_share(ctx)


def sample_digits(sampler: str, ctx, rng: random.Random, table,
                  undecodable: bool = False) -> digits.ExponentDigits:
    n, q = ctx.degree, ctx.base.q
    if sampler == "bounded":
        # the read-off covers digit sums <= n for Kummer, <= p - 1 for Artin-Schreier
        direct_bound = n if ctx.kind == "kummer" else n - 1
        return digits.sample_bounded_sum(n, q, direct_bound, rng, table)
    bound = digits.relaxed_sum_bound(n)
    while True:
        e = digits.sample_bounded_sum(n, q, bound, rng, table)
        if sampler == "decodable":
            if e.digit_sum() > n and not _undecodable(ctx, e):
                return e
        elif _undecodable(ctx, e) == undecodable:
            return e


def generate(workload: Workload, contexts: dict, seed: int, count: int) -> list[Instance]:
    tables = {label: digits.count_table(ctx.degree, ctx.base.q,
                                        digits.relaxed_sum_bound(ctx.degree))
              for label, ctx in contexts.items()}
    shares = {label: _stratum_share(workload.sampler, ctx) for label, ctx in contexts.items()}
    drawn = dict.fromkeys(contexts, 0)
    out = []
    for i in range(count):
        label = workload.contexts[i % len(workload.contexts)]
        ctx = contexts[label]
        j, share = drawn[label], shares[label]
        drawn[label] += 1
        undecodable = math.ceil((j + 1) * share) > math.ceil(j * share)
        rng = random.Random(f"{seed}/{workload.name}/{i}/gen")
        e = sample_digits(workload.sampler, ctx, rng, tables[label], undecodable)
        out.append(Instance(i, label, tuple(e), extfield.encode_digits(ctx, e)))
    return out


def solve_rng(seed: int, workload: Workload, index: int) -> random.Random:
    return random.Random(f"{seed}/{workload.name}/{index}/solve")
