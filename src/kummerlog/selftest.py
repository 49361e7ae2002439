"""Small-scale acceptance checks behind `kummerlog selftest`.

Runs the same ten criteria as the full test suite, with reduced sample
counts so the whole pass takes under 10 s, and prints one
PASS/FAIL line per criterion.  Exit code 0 means everything passed, and
every criterion is expected to pass: a FAIL line names a fault and its
margin (see the README on the proof constants and the decoder's failure
set).
"""

from __future__ import annotations

import itertools
import math
import random
import time

from . import oracle
from .digits import (ExponentDigits, agreement_bound, count_N, decodable, failure_share,
                     relaxed_sum_bound, sample_bounded_sum, sample_decodable)
from .extfield import (build_artin_schreier, build_kummer, embed_from_prime_model,
                       encode_digits, ext_pow, frobenius_power)
from .ff import build_field
from .listdecode import agreement, list_decode
from .poly import Poly, is_irreducible
from .solver import DlpInstance, NoCandidate, solve_bounded, solve_listdecode

KUMMER_CASES = [(5, 1, 4, 2), (7, 1, 6, 3), (7, 1, 3, 2),
                (13, 1, 4, 2), (2, 3, 7, 2), (31, 1, 15, 3)]


def _kummer(p, d, n, a, b=1):
    return build_kummer(build_field(p, d, rng_seed=1), n, a, b)


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def crit_roundtrip():
    rng = random.Random(101)
    for p, d, n, a in KUMMER_CASES:
        ctx = _kummer(p, d, n, a)
        q = ctx.base.q
        for _ in range(40):
            e = sample_bounded_sum(n, q, n, rng)
            out = solve_bounded(DlpInstance(ctx, encode_digits(ctx, e)), rng)
            if tuple(out.digits) != tuple(e):
                return False, f"mismatch at q={q}, n={n}, e={tuple(e)}"
    return True, "6 contexts x 40 exponents, exact recovery"


def _bounded_vectors(n, q, s_max):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in range(min(q - 1, remaining) + 1):
            rec(prefix + [c], remaining - c)

    rec([], s_max)
    return out

def crit_uniqueness():
    counts = []
    for ctx in (_kummer(5, 1, 4, 2), build_artin_schreier(5, 1, 0)):
        n, q = ctx.degree, ctx.base.q
        vecs = _bounded_vectors(n, q, n if ctx.kind == "kummer" else n - 1)
        seen = {}
        for v in vecs:
            key = encode_digits(ctx, ExponentDigits(q, v)).key()
            if key in seen:
                return False, f"collision {seen[key]} vs {v} in {ctx!r}"
            seen[key] = v
        counts.append(len(vecs))
    if counts[0] != 70:
        return False, f"expected 70 bounded vectors, saw {counts[0]}"
    return True, f"injective on {counts[0]} Kummer and {counts[1]} Artin-Schreier vectors"


def crit_worked_value():
    ctx = _kummer(5, 1, 4, 2)
    target = ctx.element([1, 4, 4, 1])
    out = solve_bounded(DlpInstance(ctx, target))
    if tuple(out.digits) != (1, 0, 2, 0) or out.exponent() != 51:
        return False, f"solver gave {tuple(out.digits)}"
    x = oracle.bsgs_dlp(ctx.generator, target, 5 ** 4 - 1)
    if x != 51:
        return False, f"bsgs cross-check gave {x}"
    return True, "alpha^3+4alpha^2+4alpha+1 = g^51, confirmed by bsgs"


def crit_counting(corrupt=False):
    for q in range(2, 10):
        for n in range(1, 9):
            for w in range(0, 2 * q):
                got = count_N(w, n, q)
                if corrupt:
                    got += 1
                    corrupt = False
                if w <= q - 1:
                    want = _binom(w + n - 1, n - 1)
                elif w < 2 * q:
                    want = _binom(w + n - 1, n - 1) - n * _binom(w - q + n - 1, n - 1)
                if got != want:
                    return False, f"N({w},{n},{q}) = {got}, closed form {want}"
    brute = sum(1 for v in itertools.product(range(5), repeat=4) if sum(v) == 5)
    if count_N(5, 4, 5) != 52 or brute != 52:
        return False, f"N(5,4,5): DP {count_N(5, 4, 5)}, enumeration {brute}"
    return True, "DP matches closed forms on the grid; N(5,4,5) = 52 by enumeration"


def crit_proof_constants():
    n = 50
    c = 4883987  # the rate 2.32^2.32 / 1.32^1.32 = 4.8839874..., truncated: times 10^6
    scale = 100 ** 100 * 132 ** 132
    truncated = c ** 100 * scale <= 232 ** 232 * 10 ** 600 < (c + 1) ** 100 * scale
    m = -((-58 * n) // 25)  # ceil(2.32 n)
    scaled = math.comb(m, n) * 10 ** (6 * n)
    a_side = truncated and c ** n < (m + 1) * scaled and scaled < (c + 1) ** n
    vmin = n - agreement_bound(n) + 1  # zeros, so fewer than ceil(0.5657 n) nonzero digits
    W = relaxed_sum_bound(n)
    total = sum(math.comb(n, v) * _binom(W, n - v - 1) for v in range(vmin, n + 1))
    b_side = total * 10 ** (4 * n) < 48838 ** n * n
    if a_side and b_side:
        return True, (f"C({m},{n}) at rate {c / 10**6} and the B-side sum below "
                      f"4.8838^n * n at n = {n}")
    detail = []
    if not a_side:
        detail.append(f"C({m},{n}) does not grow at rate {c / 10**6}")
    if not b_side:
        detail.append("B-side sum exceeds 4.8838^n * n")
    return False, "; ".join(detail)


def _max_failures(draws, share):
    """Largest c with P(Binomial(draws, share) > c) <= 1e-6, in exact integers."""
    a, b = share.numerator, share.denominator
    c, tail = draws, 0  # tail = b^draws * P(X > c)
    while True:
        at_least = tail + math.comb(draws, c) * a ** c * (b - a) ** (draws - c)
        if at_least * 10 ** 6 > b ** draws:
            return c
        c, tail = c - 1, at_least


def crit_listdecode_pipeline():
    ctx = _kummer(31, 1, 15, 3)
    n, q = 15, 31
    rng = random.Random(606)
    planted = 0
    for _ in range(20):
        e = sample_decodable(n, q, rng)
        out = solve_listdecode(DlpInstance(ctx, encode_digits(ctx, e)), rng)
        planted += tuple(out.digits) == tuple(e)
    if planted != 20:
        return False, f"only {planted}/20 planted exponents recovered"
    fails = 0
    confined = True
    draws = 60
    for _ in range(draws):
        e = sample_bounded_sum(n, q, relaxed_sum_bound(n), rng)
        try:
            solve_listdecode(DlpInstance(ctx, encode_digits(ctx, e)), rng)
        except NoCandidate:
            fails += 1
            confined = confined and not decodable(e)
    share = failure_share(n, q)
    limit = _max_failures(draws, share)
    ok = confined and fails <= limit
    detail = (f"planted 20/20; uniform failures {fails}/{draws} vs at most {limit} "
              f"at failure-set share {float(share):.4f} "
              f"({'confined' if confined else 'NOT confined'} to the low-agreement set)")
    return ok, detail


def crit_gs_completeness():
    rng = random.Random(707)
    fields = [build_field(q) for q in (5, 7, 11)]
    for trial in range(40):
        field = rng.choice(fields)
        q = field.q
        k = rng.randrange(0, 3)
        npts = rng.randrange(max(2, k + 2), q + 1)
        xs = rng.sample(range(q), npts)
        pts = [(x, field.random_element(rng)) for x in xs]
        a_min = math.isqrt(k * npts) + 1
        if a_min > npts:
            continue
        A = rng.randrange(a_min, npts + 1)
        got = {t.coeffs for t in list_decode(field, pts, k, A, rng)}
        for cand in itertools.product(range(q), repeat=k + 1):
            t = Poly(field, list(cand))
            if agreement(t, pts) >= A and t.coeffs not in got:
                return False, f"missed {cand} at q={q}, k={k}, A={A}"
    return True, "40 random instances: brute-force candidate set covered"


def crit_artin_schreier():
    rng = random.Random(808)
    for p in (5, 7, 11):
        ctx = build_artin_schreier(p, 1 + (p > 5), p % 3)
        for i in range(p):
            if ext_pow(ctx.generator, p ** i) != frobenius_power(ctx, i):
                return False, f"frobenius identity fails at p={p}, i={i}"
        for _ in range(40):
            e = sample_bounded_sum(p, p, p - 1, rng)
            out = solve_bounded(DlpInstance(ctx, encode_digits(ctx, e)), rng)
            if tuple(out.digits) != tuple(e):
                return False, f"mismatch at p={p}, e={tuple(e)}"
    return True, "p in {5,7,11}: 40 exponents each, plus the conjugate table"


def crit_relations_and_order():
    for p, d, n, a in KUMMER_CASES:
        ctx = _kummer(p, d, n, a)
        q = ctx.base.q
        for i in range(n):
            if ext_pow(ctx.generator, q ** i) != frobenius_power(ctx, i):
                return False, f"relation table fails at q={q}, n={n}, i={i}"
    orders = []
    for ctx, n in ((_kummer(5, 1, 4, 2), 4), (_kummer(7, 1, 3, 2), 3),
                   (build_artin_schreier(5, 1, 0), 5), (build_artin_schreier(7, 1, 0), 7)):
        group = ctx.base.q ** ctx.degree - 1
        order = oracle.element_order(ctx.generator, group, oracle.factorize(group))
        if order <= 2 ** n:
            return False, f"ord(g) = {order} <= 2^{n} in {ctx!r}"
        orders.append(order)
    return True, f"relation tables exact; orders {orders} all exceed 2^n"


def crit_isomorphism():
    rng = random.Random(909)
    ctx = _kummer(5, 1, 4, 2)
    prime = ctx.base
    while True:
        u = Poly(prime, [rng.randrange(5) for _ in range(4)] + [1])
        if is_irreducible(u):
            break
    rho, psi = embed_from_prime_model(ctx, u, rng)
    acc = ctx.zero_element
    for c in reversed(u.coeffs):
        acc = acc * rho + ctx.constant(c)
    if not acc.is_zero():
        return False, "u(rho) != 0"
    if psi(Poly.one(prime)) != ctx.one_element:
        return False, "psi(1) != 1"
    for _ in range(30):
        v = Poly(prime, [rng.randrange(5) for _ in range(4)])
        w = Poly(prime, [rng.randrange(5) for _ in range(4)])
        if psi(v + w) != psi(v) + psi(w) or psi(v * w) != psi(v) * psi(w):
            return False, "homomorphism property fails"
    return True, "u(rho) = 0 and psi respects + and * on 30 random pairs"


CRITERIA = [
    (1, "bounded-sum round trip", crit_roundtrip),
    (2, "bounded-sum uniqueness", crit_uniqueness),
    (3, "worked value e = 51", crit_worked_value),
    (4, "digit-sum counting", crit_counting),
    (5, "proof constants", crit_proof_constants),
    (6, "list-decoding pipeline", crit_listdecode_pipeline),
    (7, "list-decoding completeness", crit_gs_completeness),
    (8, "artin-schreier recovery", crit_artin_schreier),
    (9, "relation table and order", crit_relations_and_order),
    (10, "prime-model isomorphism", crit_isomorphism),
]


def run(corrupt: str | None = None, out=print) -> int:
    """Run all criteria; print one line each; 0 iff everything passed."""
    failed = []
    t_start = time.perf_counter()
    for num, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            if fn is crit_counting:
                ok, detail = fn(corrupt == "counting")
            else:
                ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        out(f"{status} criterion {num} ({name}): {detail} [{dt:.2f}s]")
        if not ok:
            failed.append(num)
    total = time.perf_counter() - t_start
    if failed:
        out(f"FAILED criteria: {failed} (total {total:.2f}s)")
        return 1
    out(f"all criteria passed (total {total:.2f}s)")
    return 0
