"""The ten acceptance criteria, each written once, behind `kummerlog selftest`.

Each `crit_*` function is the only body of its check: it takes its sizes and
its random source, makes every assertion of the check, and returns its
verdict `(ok, detail)`, followed by the figures a full-scale PASS line
reports where the check has any.  Two sets of sizes call these bodies.
`run()` passes small sample counts, so the whole pass takes under 10 s, and
prints one PASS/FAIL line per criterion; `tests/test_acceptance.py` passes
the full-scale counts and seeds and keeps its own time budgets.  Exit code 0
means everything passed, and every criterion is expected to pass: a FAIL
line names a fault and its margin (see the README on the proof constants and
the decoder's failure set).
"""

from __future__ import annotations

import itertools
import math
import random
import time

from . import oracle
from .digits import (ExponentDigits, agreement_bound, count_N, curve_degree_bound, decodable,
                     failure_share, relaxed_sum_bound, sample_bounded_sum, sample_decodable)
from .extfield import (build_artin_schreier, build_kummer, embed_from_prime_model,
                       encode_digits, ext_pow, frobenius_power)
from .ff import build_field
from .listdecode import agreement, list_decode, select_params
from .poly import Poly, is_irreducible
from .solver import DlpInstance, NoCandidate, solve_bounded, solve_listdecode

KUMMER_CASES = [(5, 1, 4, 2), (7, 1, 6, 3), (7, 1, 3, 2),
                (13, 1, 4, 2), (2, 3, 7, 2), (31, 1, 15, 3)]


def _kummer(p, d, n, a):
    return build_kummer(build_field(p, d, rng_seed=1), n, a, 1)


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def crit_roundtrip(rng, draws):
    for p, d, n, a in KUMMER_CASES:
        ctx = _kummer(p, d, n, a)
        q = ctx.base.q
        for _ in range(draws):
            e = sample_bounded_sum(n, q, n, rng)
            out = solve_bounded(DlpInstance(ctx, encode_digits(ctx, e)), rng)
            if tuple(out.digits) != tuple(e):
                return False, f"mismatch at q={q}, n={n}: {tuple(e)} -> {tuple(out.digits)}"
    return True, f"6 contexts x {draws} exponents, exact recovery"


def crit_uniqueness():
    counts = []
    for ctx in (_kummer(5, 1, 4, 2), build_artin_schreier(5, 1, 0)):
        n, q = ctx.degree, ctx.base.q
        s_max = n if ctx.kind == "kummer" else n - 1
        vecs = [v for v in itertools.product(range(q), repeat=n) if sum(v) <= s_max]
        seen = {}
        for v in vecs:
            key = encode_digits(ctx, ExponentDigits(q, v)).key()
            if key in seen:
                return False, f"collision {seen[key]} vs {v} in {ctx!r}"
            seen[key] = v
        counts.append(len(vecs))
    if counts != [70, 126]:
        return False, f"expected 70 and 126 bounded vectors, saw {counts}"
    return True, f"injective on {counts[0]} Kummer and {counts[1]} Artin-Schreier vectors"


def crit_worked_value():
    ctx = _kummer(5, 1, 4, 2)
    target = ctx.element([1, 4, 4, 1])
    out = solve_bounded(DlpInstance(ctx, target))
    got = (tuple(out.digits), out.exponent(), out.method)
    if got != ((1, 0, 2, 0), 51, "direct"):
        return False, f"solver gave {tuple(out.digits)} by {out.method}"
    x = oracle.bsgs_dlp(ctx.generator, target, 5 ** 4 - 1)
    if x != 51:
        return False, f"bsgs cross-check gave {x}"
    return True, "alpha^3+4alpha^2+4alpha+1 = g^51, confirmed by bsgs"


def crit_counting(q_max, n_max):
    for q in range(2, q_max + 1):
        for n in range(1, n_max + 1):
            for w in range(0, 2 * q):
                got = count_N(w, n, q)
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


def crit_first_constant(ns):
    # C(m, n) with m = 2.32 n grows at rate base = 2.32^2.32 / 1.32^1.32 =
    # 4.8839874...; the entropy bounds give base^n / (m + 1) <= C(m, n) <= base^n,
    # so C(m, n) itself stays below base^n.  The constant is that rate, stated
    # to six decimals: all comparisons are exact integer arithmetic.
    c = 4883987  # 4.883987 * 10^6
    # c / 10^6 <= base < (c + 1) / 10^6, raised to the 100th power
    scale = 100 ** 100 * 132 ** 132
    if not c ** 100 * scale <= 232 ** 232 * 10 ** 600 < (c + 1) ** 100 * scale:
        return False, f"{c / 10**6} is not 2.32^2.32 / 1.32^1.32 truncated to six decimals"
    for n in ns:
        m = -((-58 * n) // 25)  # ceil(2.32 n), exact via 58/25
        scaled = math.comb(m, n) * 10 ** (6 * n)
        if c ** n >= (m + 1) * scaled:
            return False, f"(m + 1) C({m},{n}) <= {c / 10**6}^{n}"
        if scaled >= (c + 1) ** n:
            return False, f"C({m},{n}) >= {(c + 1) / 10**6}^{n}"
    return True, f"C({m},{n}) at rate {c / 10**6}"


def crit_second_constant(ns):
    for n in ns:
        vmin = n - agreement_bound(n) + 1  # zeros, so fewer than ceil(0.5657 n) nonzero digits
        W = relaxed_sum_bound(n)
        summands = [math.comb(n, v) * _binom(W, n - v - 1) for v in range(vmin, n + 1)]
        if summands[0] != max(summands):
            return False, f"summand not maximal at v = {vmin} for n = {n}"
        if sum(summands) * 10 ** (4 * n) >= 48838 ** n * n:
            return False, f"B-side sum exceeds 4.8838^n * n at n = {n}"
    return True, "the B-side sum below 4.8838^n * n"


def crit_proof_constants():
    verdicts = [crit_first_constant([50]), crit_second_constant([50])]
    if all(ok for ok, _ in verdicts):
        return True, " and ".join(detail for _, detail in verdicts) + " at n = 50"
    return False, "; ".join(detail for ok, detail in verdicts if not ok)


def _max_failures(draws, share):
    """Largest c with P(Binomial(draws, share) > c) <= 1e-6, in exact integers."""
    a, b = share.numerator, share.denominator
    c, tail = draws, 0  # tail = b^draws * P(X > c)
    while True:
        at_least = tail + math.comb(draws, c) * a ** c * (b - a) ** (draws - c)
        if at_least * 10 ** 6 > b ** draws:
            return c
        c, tail = c - 1, at_least


def crit_planted(rng, count):
    n, q = 15, 31
    ctx = _kummer(q, 1, n, 3)
    k, A = curve_degree_bound(n), agreement_bound(n)
    sizes = (relaxed_sum_bound(n), A, k, select_params(n, k, A).multiplicity)
    if sizes != (19, 9, 4, 3):
        return False, f"(sum bound, A, k, m) = {sizes}, not (19, 9, 4, 3)"
    planted = 0
    for _ in range(count):
        e = sample_decodable(n, q, rng)
        out = solve_listdecode(DlpInstance(ctx, encode_digits(ctx, e)), rng)
        planted += tuple(out.digits) == tuple(e)
    if planted != count:
        return False, f"only {planted}/{count} planted exponents recovered"
    return True, f"planted {planted}/{count}"


def crit_uniform_failures(rng, draws):
    n, q = 15, 31
    ctx = _kummer(q, 1, n, 3)
    # the rate is a sample of the failure set's share, so it is held to a
    # one-sided binomial bound fixed in advance (level 1e-6), not to the share
    # itself, which a fair sample exceeds about one seed in three
    share = failure_share(n, q)
    limit = _max_failures(draws, share)
    fails = 0
    confined = True
    for _ in range(draws):
        e = sample_bounded_sum(n, q, relaxed_sum_bound(n), rng)
        try:
            out = solve_listdecode(DlpInstance(ctx, encode_digits(ctx, e)), rng)
        except NoCandidate:
            fails += 1
            confined = confined and not decodable(e)
            continue
        if tuple(out.digits) != tuple(e):
            return False, f"{tuple(e)} decoded as {tuple(out.digits)}", fails, limit, share
    detail = (f"uniform failures {fails}/{draws} vs at most {limit} "
              f"at failure-set share {float(share):.4f} "
              f"({'confined' if confined else 'NOT confined'} to the low-agreement set)")
    return confined and fails <= limit, detail, fails, limit, share


def crit_listdecode_pipeline():
    rng = random.Random(606)
    ok, planted = crit_planted(rng, 20)
    if not ok:
        return False, planted
    ok, uniform, *_ = crit_uniform_failures(rng, 60)
    return ok, f"{planted}; {uniform}"


def crit_gs_completeness(rng, fields, trials):
    checked = 0
    for _ in range(trials):
        field = rng.choice(fields)
        q = field.q
        k = rng.randrange(0, 3)
        npts = rng.randrange(max(2, k + 2), q + 1)
        xs = rng.sample(field.elements(), npts)
        pts = [(x, field.random_element(rng)) for x in xs]
        a_min = math.isqrt(k * npts) + 1
        if a_min > npts:
            continue
        checked += 1
        A = rng.randrange(a_min, npts + 1)
        got = {t.coeffs for t in list_decode(field, pts, k, A, rng)}
        for cand in itertools.product(field.elements(), repeat=k + 1):
            t = Poly(field, list(cand))
            if agreement(t, pts) >= A and t.coeffs not in got:
                return False, f"missed {cand} at q={q}, k={k}, A={A}, pts={pts}", checked
    return True, f"{trials} random instances: brute-force candidate set covered", checked


def crit_artin_schreier(rng, cases, draws):
    for p, a, b in cases:
        ctx = build_artin_schreier(p, a, b)
        for i in range(p):
            want = ctx.element([(b + i * a) % p, 1])
            if not frobenius_power(ctx, i) == want == ext_pow(ctx.generator, p ** i):
                return False, f"conjugate table fails at p={p}, i={i}"
        for _ in range(draws):
            e = sample_bounded_sum(p, p, p - 1, rng)
            out = solve_bounded(DlpInstance(ctx, encode_digits(ctx, e)), rng)
            if tuple(out.digits) != tuple(e):
                return False, f"mismatch at p={p}, e={tuple(e)}"
    primes = ",".join(str(p) for p, _, _ in cases)
    return True, f"p in {{{primes}}}: {draws} exponents each, plus the conjugate table"


def crit_relations_and_order():
    orders = {}
    for p, d, n, a in KUMMER_CASES:
        ctx = _kummer(p, d, n, a)
        q = ctx.base.q
        for i in range(n):
            if ext_pow(ctx.generator, q ** i) != frobenius_power(ctx, i):
                return False, f"relation table fails at q={q}, n={n}, i={i}", orders
    for label, ctx in (("kummer(5,4)", _kummer(5, 1, 4, 2)), ("kummer(7,3)", _kummer(7, 1, 3, 2)),
                       ("as(5)", build_artin_schreier(5, 1, 0)),
                       ("as(7)", build_artin_schreier(7, 1, 0))):
        n = ctx.degree
        group = ctx.base.q ** n - 1
        order = oracle.element_order(ctx.generator, group, oracle.factorize(group))
        if order <= 2 ** n:
            return False, f"{label}: ord(g) = {order} <= 2^{n}", orders
        orders[label] = order
    return True, f"relation tables exact; orders {list(orders.values())} all exceed 2^n", orders


def crit_isomorphism(rng, pairs):
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
    if not acc.is_zero() or not psi(u).is_zero():
        return False, "u(rho) != 0", u
    if psi(Poly.one(prime)) != ctx.one_element:
        return False, "psi(1) != 1", u
    for _ in range(pairs):
        v = Poly(prime, [rng.randrange(5) for _ in range(4)])
        w = Poly(prime, [rng.randrange(5) for _ in range(4)])
        if psi(v + w) != psi(v) + psi(w) or psi(v * w) != psi(v) * psi(w):
            return False, "homomorphism property fails", u
    return True, f"u(rho) = 0 and psi respects + and * on {pairs} random pairs", u


# the selftest's sizes; tests/test_acceptance.py calls the same bodies at full scale
CRITERIA = [
    (1, "bounded-sum round trip", lambda: crit_roundtrip(random.Random(101), 40)),
    (2, "bounded-sum uniqueness", crit_uniqueness),
    (3, "worked value e = 51", crit_worked_value),
    (4, "digit-sum counting", lambda: crit_counting(9, 8)),
    (5, "proof constants", crit_proof_constants),
    (6, "list-decoding pipeline", crit_listdecode_pipeline),
    (7, "list-decoding completeness",
     lambda: crit_gs_completeness(random.Random(707), [build_field(q) for q in (5, 7, 11)], 40)),
    (8, "artin-schreier recovery",
     lambda: crit_artin_schreier(random.Random(808), [(5, 1, 2), (7, 2, 1), (11, 2, 2)], 40)),
    (9, "relation table and order", crit_relations_and_order),
    (10, "prime-model isomorphism", lambda: crit_isomorphism(random.Random(909), 30)),
]


def run() -> int:
    """Run all criteria; print one line each; 0 iff everything passed."""
    failed = []
    t_start = time.perf_counter()
    for num, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            ok, detail, *_ = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {num} ({name}): {detail} [{dt:.2f}s]")
        if not ok:
            failed.append(num)
    total = time.perf_counter() - t_start
    if failed:
        print(f"FAILED criteria: {failed} (total {total:.2f}s)")
        return 1
    print(f"all criteria passed (total {total:.2f}s)")
    return 0
