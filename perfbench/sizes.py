"""Static decoder-size table: the Guruswami-Sudan system the solver would
build at each extension degree, computed by `select_params` without solving.

The degree cap is the solver's own, max(1, floor(0.32 n)), and the agreement
is ceil(0.5657 n). Degrees 7, 14, 19 and 30 are the cliffs the roadmap names,
where the multiplicity jumps; (191, 19) takes minutes to solve, so its cost
is covered here as a count. Run `python3 perfbench/sizes.py` to print the
table as JSON; `decoder_sizes.json` holds the committed copy.
"""

from __future__ import annotations

import json

import program

program.load()

from kummerlog.digits import agreement_bound, curve_degree_bound
from kummerlog.listdecode import select_params

CLIFF_DEGREES = (7, 14, 19, 30)
DEGREES = range(2, 32)


def decoder_size_table() -> list[dict]:
    table = []
    for n in DEGREES:
        k = max(1, curve_degree_bound(n))
        A = agreement_bound(n)
        params = select_params(n, k, A)
        m = params.multiplicity
        table.append({"n": n, "k": k, "A": A, "m": m, "D": params.weighted_degree_bound,
                      "rows": n * m * (m + 1) // 2, "cols": len(params.monomials()),
                      "cliff": n in CLIFF_DEGREES})
    return table


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(row) for row in decoder_size_table()) + "\n]")
