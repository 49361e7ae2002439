"""Fuzz the `kummerlog solve` document surface and the `gen`/`order` flags:
any instance or secret file, however mangled, and any flag combination end
in a documented exit code and never in a traceback."""

import copy
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from kummerlog.cli import main  # noqa: E402

# the worked (5, 4) instance: digits 1 0 2 0, e = 51
INSTANCE = {"kind": "kummer", "p": 5, "d": 1, "n": 4, "a": [2], "b": [1],
            "target": [[1], [4], [4], [1]]}
SECRET = {"digits": [1, 0, 2, 0], "sum": 3}

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-8, 8),
    st.sampled_from([2**31, 2**64, -2**63]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 8), max_size=3), st.just({}),
)


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(data, doc):
    """Up to three edits: drop a key or item, swap a value's type, or nudge an int."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["drop", "swap", "perturb"]))
        if not path:
            if op == "swap":
                doc = data.draw(_VALUES)
            continue
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        key = path[-1]
        value = holder[key]
        if op == "drop":
            del holder[key]
        elif op == "swap":
            holder[key] = data.draw(_VALUES)
        elif isinstance(value, int) and not isinstance(value, bool):
            holder[key] = value + data.draw(st.integers(-3, 3))
    return doc


def _file_bytes(data, doc) -> bytes:
    """The document as JSON, or raw bytes, a truncation, or an insertion."""
    raw = json.dumps(doc).encode()
    how = data.draw(st.sampled_from(["json", "bytes", "truncate", "insert"]))
    if how == "bytes":
        return data.draw(st.binary(max_size=24))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw)))]
    if how == "insert":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    return raw


@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(data=st.data(), strategy=st.sampled_from(["direct", "list", "auto"]))
def test_solve_fuzzed_documents(data, strategy):
    with tempfile.TemporaryDirectory() as tmp:
        inst, sec = Path(tmp) / "i.json", Path(tmp) / "s.json"
        inst.write_bytes(_file_bytes(data, _mutated(data, INSTANCE)))
        sec.write_bytes(_file_bytes(data, _mutated(data, SECRET)))
        code = main(["solve", "--in", str(inst), "--secret-in", str(sec),
                     "--strategy", strategy])
    assert code in DOCUMENTED_EXITS


# element flags: int indices, coefficient lists, and malformed text
_ELEMENT_TEXT = st.one_of(
    st.integers(-3, 1100).map(str),
    st.lists(st.integers(-2, 12), min_size=1, max_size=4).map(
        lambda cs: ",".join(map(str, cs))),
    st.sampled_from([",", "x", "", "1,,2", "-", " 3", "0x5", "1.5",
                     ",".join(["1"] * 40), "9" * 40]),
)


@st.composite
def _context_flags(draw):
    """--kind/--p/--d/--n/--a/--b with |p|^d <= 1000, as `--flag=value` words,
    biased towards valid values so that some runs get past the checks."""
    p = draw(st.one_of(st.sampled_from([5, 7, 31, 3, 2]), st.integers(-3, 100)))
    d = draw(st.sampled_from([1, 1, 1, 2, 3, -1, 0, 4]))
    q = abs(p) ** max(d, 1)
    assume(q <= 1000)
    element = st.one_of(st.integers(1, max(1, q - 1)).map(str), _ELEMENT_TEXT)
    words = [f"--kind={draw(st.sampled_from(['kummer', 'artin_schreier']))}",
             f"--p={p}", f"--d={d}", f"--a={draw(element)}", f"--b={draw(element)}"]
    divisors = [n for n in range(2, 13) if (q - 1) % n == 0]
    n = draw(st.sampled_from(divisors * 3 + [None, -1, 0, 1, 5, 12]))
    if n is not None:
        words.append(f"--n={n}")
    return words


@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(data=st.data(), flags=_context_flags())
def test_gen_and_order_fuzzed_flags(data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        gen = ["gen", *flags, f"--out={Path(tmp) / 'i.json'}",
               f"--secret-out={Path(tmp) / 's.json'}",
               f"--min-nonzero={data.draw(st.integers(-1, 5))}"]
        sum_bound = data.draw(st.one_of(st.none(), st.integers(-2, 20)))
        if sum_bound is not None:
            gen.append(f"--sum-bound={sum_bound}")
        assert main(gen) in {0, 2, 3}
    assert main(["order", *flags]) in {0, 2, 3}
