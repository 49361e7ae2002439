"""Command-line surface: instance generation, solving, counting, benchmarking,
an empirical order probe, and the acceptance selftest.

Exit codes are stable API: 0 ok, 1 selftest failure, 2 invalid parameters,
3 I/O failure, 4 secret mismatch, 5 unsolved instance.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import extfield, ff, oracle, solver
from .digits import count_N, sample_bounded_sum, tail_ratio
from .extfield import ASContext, build_kummer, encode_digits
from .ff import build_field

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_UNSOLVED = 5

_PARAM_ERRORS = (
    ff.NotPrime, ff.ReducibleModulus, ff.DegreeMismatch, ff.FieldMismatch,
    ff.TooLarge, extfield.NotDividing, extfield.ReducibleBinomial,
    extfield.ZeroOffset, extfield.ZeroConstant, extfield.ContextMismatch,
    extfield.DigitOutOfRange, ValueError, KeyError,
)

_UNSOLVED_ERRORS = (solver.NotSplit, solver.RootNotInTable, solver.NoCandidate,
                    solver.Unsolvable)


def _fail(code: int, exc: BaseException) -> int:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _parse_element(field: ff.Field, text: str) -> int:
    """A comma list is a coefficient vector; a bare integer is a canonical index."""
    if "," in text:
        return field.from_coeffs([int(t) for t in text.split(",")])
    return field.validate(int(text) % field.q if field.d == 1 else int(text))


def _context_doc(ctx) -> dict:
    base = ctx.base
    doc = {"kind": ctx.kind, "p": base.p, "d": base.d,
           "a": base.coeffs(ctx.a), "b": base.coeffs(ctx.b)}
    if base.d > 1:
        doc["base_modulus"] = list(base.modulus)
    if ctx.kind == "kummer":
        doc["n"] = ctx.n
    return doc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_shape(doc):
    """Reject an instance document of the wrong shape before any field is built."""
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    for key in ("p", "d", "n"):
        if key in doc and not _is_int(doc[key]):
            raise ValueError(f"{key!r} must be an integer")
    if doc.get("d", 1) < 1:
        raise ValueError("'d' must be >= 1")
    for key in ("a", "b", "base_modulus"):
        v = doc.get(key, [])
        if not isinstance(v, list) or not all(_is_int(c) for c in v):
            raise ValueError(f"{key!r} must be a list of integers")
    target = doc.get("target", [])
    if not isinstance(target, list) or not all(
            isinstance(c, list) and all(_is_int(x) for x in c) for c in target):
        raise ValueError("'target' must be a list of coefficient lists of integers")


def _load_context(doc: dict):
    _check_shape(doc)
    p, d = doc["p"], doc.get("d", 1)
    if d > 1:
        field = build_field(p, d, modulus=doc["base_modulus"])
    else:
        field = build_field(p)
    a = field.from_coeffs(doc["a"])
    b = field.from_coeffs(doc["b"])
    kind = doc["kind"]
    if kind == "kummer":
        return build_kummer(field, doc["n"], a, b)
    if kind == "artin_schreier":
        return ASContext(field, a, b)
    raise ValueError(f"unknown instance kind {kind!r}")


def _dump_json(doc: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _build_gen_context(args):
    field = build_field(args.p, args.d, rng_seed=args.seed)
    a = _parse_element(field, args.a)
    b = _parse_element(field, args.b)
    if args.kind == "kummer":
        if args.n is None:
            raise ValueError("--n is required for kummer instances")
        return build_kummer(field, args.n, a, b)
    if args.d != 1:
        raise ValueError("artin_schreier instances need d = 1")
    return ASContext(field, a, b)


def cmd_gen(args) -> int:
    try:
        ctx = _build_gen_context(args)
        q, n = ctx.base.q, ctx.degree
        sum_bound = args.sum_bound if args.sum_bound is not None else n
        rng = random.Random(args.seed)
        while True:
            e = sample_bounded_sum(n, q, sum_bound, rng)
            if e.nonzero_count() >= args.min_nonzero:
                break
        target = encode_digits(ctx, e)
    except _PARAM_ERRORS as exc:
        return _fail(EXIT_PARAMS, exc)
    doc = _context_doc(ctx)
    doc["target"] = [ctx.base.coeffs(c) for c in target.poly.coeffs]
    secret = {"digits": list(e.digits), "sum": e.digit_sum()}
    try:
        _dump_json(doc, args.out)
        if args.secret_out:
            _dump_json(secret, args.secret_out)
    except OSError as exc:
        return _fail(EXIT_IO, exc)
    print(f"wrote {args.out}" + (f" and {args.secret_out}" if args.secret_out else ""))
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        with open(getattr(args, "in"), encoding="utf-8") as fh:
            doc = json.load(fh)
        secret = None
        if args.secret_in:
            with open(args.secret_in, encoding="utf-8") as fh:
                secret = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_IO, exc)
    try:
        ctx = _load_context(doc)
        coeffs = [ctx.base.from_coeffs(c) for c in doc["target"]]
        if len(coeffs) > ctx.degree:
            raise ValueError("target degree exceeds the extension degree")
        inst = solver.DlpInstance(ctx, ctx.element(coeffs))
    except _PARAM_ERRORS as exc:
        return _fail(EXIT_PARAMS, exc)
    rng = random.Random(0xC11)
    run = {"direct": solver.solve_bounded,
           "list": solver.solve_listdecode,
           "auto": solver.solve_auto}[args.strategy]
    t0 = time.perf_counter()
    try:
        out = run(inst, rng=rng)
    except _UNSOLVED_ERRORS as exc:
        return _fail(EXIT_UNSOLVED, exc)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    match = None
    if secret is not None:
        match = list(out.digits) == list(secret["digits"])
    if args.json:
        rep = {"digits": list(out.digits), "e": str(out.exponent()),
               "method": out.method, "wall_ms": round(wall_ms, 3)}
        if match is not None:
            rep["match"] = match
        print(json.dumps(rep, sort_keys=True))
    else:
        print("digits:", " ".join(str(d) for d in out.digits))
        print("e:", out.exponent())
        print("method:", out.method)
        print(f"wall_ms: {wall_ms:.3f}")
        if match is not None:
            print("match:", "yes" if match else "no")
    if match is False:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_count(args) -> int:
    try:
        if args.tail_ratio:
            r = tail_ratio(args.n, args.q)
            print(f"{r.numerator}/{r.denominator}")
        else:
            if args.w is None:
                raise ValueError("--w is required unless --tail-ratio is given")
            print(count_N(args.w, args.n, args.q))
    except _PARAM_ERRORS as exc:
        return _fail(EXIT_PARAMS, exc)
    except Exception as exc:  # TooLarge from digits
        return _fail(EXIT_PARAMS, exc)
    return EXIT_OK


def cmd_order(args) -> int:
    """Empirical order probe: exact ord(g) next to the group order q^n - 1."""
    try:
        ctx = _build_gen_context(args)
        group_order = ctx.base.q ** ctx.degree - 1
        if group_order >= 1 << 80:
            raise ValueError("group order exceeds the factoring guard (2^80)")
        fac = oracle.factorize(group_order)
        order = oracle.element_order(ctx.generator, group_order, fac)
    except _PARAM_ERRORS as exc:
        return _fail(EXIT_PARAMS, exc)
    n = ctx.degree
    print(f"group_order: {group_order}")
    print(f"order: {order}")
    print(f"exceeds_2^{n}: {'yes' if order > 2 ** n else 'no'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import run_bench
    try:
        rows = run_bench(args.suite, args.trials, args.seed)
        text = "method,q,n,sum_bound,trials,successes,mean_ms,p95_ms\n"
        text += "".join(",".join(str(v) for v in row) + "\n" for row in rows)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _fail(EXIT_IO, exc)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run
    return run(corrupt=getattr(args, "corrupt", None))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kummerlog",
                                 description="bounded sum-of-digits discrete logs "
                                             "in Kummer and Artin-Schreier extensions")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_context_flags(sp):
        sp.add_argument("--kind", choices=["kummer", "artin_schreier"], default="kummer")
        sp.add_argument("--p", type=int, required=True, help="characteristic")
        sp.add_argument("--d", type=int, default=1, help="base field degree (q = p^d)")
        sp.add_argument("--n", type=int, default=None, help="Kummer extension degree")
        sp.add_argument("--a", required=True,
                        help="binomial constant (int index, or comma coefficient list)")
        sp.add_argument("--b", required=True, help="base offset in g = alpha + b")
        sp.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("gen", help="generate an instance and its secret exponent")
    add_context_flags(g)
    g.add_argument("--sum-bound", type=int, default=None,
                   help="digit-sum bound for the sampled exponent (default: degree)")
    g.add_argument("--min-nonzero", type=int, default=0,
                   help="resample until at least this many digits are nonzero")
    g.add_argument("--out", required=True)
    g.add_argument("--secret-out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("--in", required=True)
    s.add_argument("--strategy", choices=["direct", "list", "auto"], default="auto")
    s.add_argument("--secret-in", default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("count", help="exact digit-sum counts and the tail ratio")
    c.add_argument("--w", type=int, default=None)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--tail-ratio", action="store_true")
    c.set_defaults(func=cmd_count)

    o = sub.add_parser("order", help="empirical order probe for g = alpha + b")
    add_context_flags(o)
    o.set_defaults(func=cmd_order)

    b = sub.add_parser("bench", help="benchmark solvers against the generic baselines")
    b.add_argument("--suite", choices=["small", "medium"], default="small")
    b.add_argument("--trials", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", default=None)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("selftest", help="run the acceptance checks at small scale")
    t.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)  # test hook
    t.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
