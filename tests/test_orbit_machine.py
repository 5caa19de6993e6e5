"""The C orbit machine, one instruction kind at a time.

Each test lowers a hand-written float source with ``operators._Lowering`` and
runs it in ``fejer_run``, against the column executor
(``geometry.Emitted._columns``) on the same source, bit for bit.  The
operands include both zeros, both infinities and NaN, so every kind is
checked where IEEE arithmetic has its special cases; every NaN compares
equal to every other.
"""

import itertools

import numpy as np
import pytest

from fejerlab import native
from fejerlab.geometry import Emitted
from fejerlab.operators import (
    _ARITH,
    _OPCODES,
    _STOPS,
    BOTH,
    LEFT,
    RIGHT,
    _fuse,
    _Kernel,
    _Lowering,
    _pair_code,
    _pair_parts,
)

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -3.0, 0.1)
# x0, x1, x2 over every triple of special operands
GRID = np.array(list(itertools.product(SPECIAL, repeat=3)))


class _Source(Emitted):
    """A hand-written float source over x0 .. x{d-1} with results ``ys``."""

    def __init__(self, lines, ys, params=()):
        self.lines, self.ys, self.params = lines, ys, list(params)

    def _emit(self, src, x):
        src.lines.extend(self.lines)
        src.params.extend(self.params)
        return self.ys

    def program(self):
        return _Lowering(len(self.ys)).program("\n".join(self.lines), self.ys)


def _columns(source: _Source, rows: np.ndarray) -> np.ndarray:
    """Row-wise results of ``source`` by the column executor, as float64."""
    values = source._columns(*rows.T)
    return np.stack([np.broadcast_to(np.asarray(v, dtype=np.float64), len(rows)) for v in values], 1)


def _one_step(program, params, x):
    """The results of one machine step from ``x``, and what stopped the run.

    They are read from the registers, so a result that is not finite, which
    stops the orbit at once, is read too."""
    d = len(program.outputs)
    r = program.registers(params).copy()
    r[:d] = x
    pts = np.zeros((2, d))
    pts[0] = x
    found = np.zeros(2, dtype=np.int64)
    stop = native.library().fejer_run(
        program.code.ctypes.data, len(program.code), program.outputs.ctypes.data,
        d, r.ctypes.data, pts.ctypes.data, 1, np.inf, found.ctypes.data,
    )
    return r[program.outputs], stop


def _bits(values: np.ndarray) -> list:
    """The bits of each value, every NaN read as one NaN: neither IEEE 754 nor
    C fixes the sign or payload of a NaN result, and gcc may swap the operands
    of + and *, which picks the other NaN of a sum of two.  A NaN stops an
    orbit at once, so no NaN's bits reach a trajectory."""
    return np.where(np.isnan(values), np.nan, values).view(np.int64).tolist()


def _assert_same_on_grid(source: _Source, rows: np.ndarray = GRID) -> None:
    program = source.program()
    want = _columns(source, rows)
    for x, expected in zip(rows, want):
        got, stop = _one_step(program, source.params, x)
        assert stop in (_STOPS["RAN"], _STOPS["LEFT_RANGE"], _STOPS["CYCLED"])
        assert _bits(got) == _bits(expected), (x.tolist(), got.tolist(), expected.tolist())


def _opcodes(source: _Source) -> list:
    return [int(row[0]) for row in source.program().code]


_SYMBOL = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/"}


def _expr(op: str, left: str, right: str) -> str:
    return f"sqrt({left})" if op == "SQRT" else f"{left} {_SYMBOL[op]} {right}"


@pytest.mark.parametrize("op", _ARITH)
def test_each_unfused_arithmetic_kind_matches_the_column_executor(op):
    # t1 reads neither t0 nor anything t0 computes, so nothing fuses
    source = _Source([f"t0 = {_expr(op, 'x0', 'x1')}", "t1 = x1 * x2", "t2 = -x0"], ["t0", "t1", "t2"])
    assert _opcodes(source) == [_OPCODES[op], _OPCODES["MUL"], _OPCODES["NEG"]]
    _assert_same_on_grid(source)


@pytest.mark.parametrize(
    "kind, line",
    [
        ("MOV", "t0 = x0"),
        ("NEG", "t0 = -x0"),
        ("LT", "t0 = x0 < x1"),
        ("LE", "t0 = x0 <= x1"),
        ("GT", "t0 = x0 > x1"),
        ("GE", "t0 = x0 >= x1"),
        ("WHERE", "t0 = where(x0, x1, x2)"),
    ],
)
def test_each_other_kind_matches_the_column_executor(kind, line):
    source = _Source([line, "t1 = -x1", "t2 = -x2"], ["t0", "t1", "t2"])
    assert _opcodes(source) == [_OPCODES[kind], _OPCODES["NEG"], _OPCODES["NEG"]]
    _assert_same_on_grid(source)


def _lists(*lists) -> list:
    """List parameters as the emitters bind them: float arrays."""
    return [np.array(items) for items in lists]


def test_bisect_and_index_match_the_column_executor():
    lines = ["t0 = bisect_right(p0, x0)", "t1 = p1[t0]", "t2 = -x2"]
    source = _Source(lines, ["t0", "t1", "t2"], _lists([-1.0, 0.0, 2.5], [7.0, -0.0, np.inf, np.nan]))
    assert _opcodes(source) == [_OPCODES["BISECT"], _OPCODES["INDEX"], _OPCODES["NEG"]]
    _assert_same_on_grid(source)


def _every_pair():
    for op1, op2 in itertools.product(_ARITH, repeat=2):
        for side in (LEFT,) if op2 == "SQRT" else (LEFT, RIGHT, BOTH):
            yield op1, op2, side


@pytest.mark.parametrize("op1, op2, side", list(_every_pair()))
def test_each_fused_kind_matches_the_column_executor(op1, op2, side):
    left, right = {LEFT: ("t0", "x2"), RIGHT: ("x2", "t0"), BOTH: ("t0", "t0")}[side]
    lines = ["t2 = -x2", f"t0 = {_expr(op1, 'x0', 'x1')}", f"t1 = {_expr(op2, left, right)}"]
    source = _Source(lines, ["t0", "t1", "t2"])
    code = _pair_code(op1, op2, side)
    assert _opcodes(source) == [_OPCODES["NEG"], code]
    assert _pair_parts(code) == (op1, op2, side)
    _assert_same_on_grid(source)


def test_pair_codes_are_distinct_and_read_back():
    codes = [_pair_code(*kind) for kind in _every_pair()]
    assert sorted(codes) == list(range(_OPCODES["PAIR"], _OPCODES["PAIR"] + 65))
    assert [_pair_parts(c) for c in codes] == list(_every_pair())


def _row(op: str, target: int, a: int, b: int = 0) -> list:
    return [_OPCODES[op], target, a, b, 0, 0]


def test_fuse_leaves_an_instruction_whose_result_the_next_does_not_read():
    code = [_row("ADD", 5, 0, 1), _row("MUL", 6, 2, 3), _row("SQRT", 7, 5), _row("LT", 8, 7, 2)]
    # ADD -> MUL does not read 5; MUL -> SQRT reads 5, not 6; SQRT -> LT is no
    # arithmetic pair
    assert _fuse(code) == code


def test_fuse_takes_pairs_left_to_right_and_keeps_the_first_result():
    code = [_row("ADD", 5, 0, 1), _row("MUL", 6, 2, 5), _row("SUB", 7, 6, 5), _row("NEG", 8, 7)]
    assert _fuse(code) == [
        [_pair_code("ADD", "MUL", RIGHT), 5, 0, 1, 2, 6],
        _row("SUB", 7, 6, 5),
        _row("NEG", 8, 7),
    ]
    # an unused operand reads register 0, which is not the target here
    assert _fuse([_row("DIV", 5, 0, 1), _row("SQRT", 6, 5)]) == [
        [_pair_code("DIV", "SQRT", LEFT), 5, 0, 1, 0, 6]
    ]


def test_a_later_reader_of_a_pairs_first_result_gets_it():
    lines = ["t0 = x0 + x1", "t1 = t0 * x2", "t2 = t0 - t1"]
    source = _Source(lines, ["t0", "t1", "t2"])
    assert _opcodes(source) == [_pair_code("ADD", "MUL", LEFT), _OPCODES["SUB"]]
    _assert_same_on_grid(source)


def _column_orbit(source: _Source, x0, n: int) -> np.ndarray:
    rows = [np.asarray(x0, dtype=np.float64)]
    for _ in range(n):
        rows.append(_columns(source, rows[-1][None, :])[0])
    return np.array(rows)


def test_an_orbit_of_pairs_equals_the_column_orbit():
    lines = [
        "t0 = x0 * 0.5",
        "t1 = t0 + x1",  # fused with t0
        "t2 = 0.25 * t1",
        "t3 = t2 - t0",  # fused with t2; reads the first result t0
        "t4 = sqrt(t1 * t1 + 1.0)",  # MUL-ADD, then SQRT fused with the DIV below
        "t5 = t3 / t4",
    ]
    source = _Source(lines, ["t1", "t5"])
    kinds = [_pair_parts(c) if c >= _OPCODES["PAIR"] else c for c in _opcodes(source)]
    assert kinds == [
        ("MUL", "ADD", LEFT), ("MUL", "SUB", LEFT), ("MUL", "ADD", LEFT),
        ("SQRT", "DIV", RIGHT),
    ]
    program = source.program()
    pts = np.zeros((201, 2))
    pts[0] = [0.3, -1.7]
    assert _Kernel(program, program.registers([])).run(pts, np.inf) is None
    assert pts.tobytes() == _column_orbit(source, pts[0], 200).tobytes()


def test_an_index_out_of_range_raises_at_the_same_step():
    # x0 grows by 1 a step; the index passes the last item at x0 >= 2.5
    lines = ["t0 = bisect_right(p0, x0)", "t1 = p1[t0]", "t2 = x0 + 1.0", "t3 = t1 * 0.0 + x1"]
    source = _Source(lines, ["t2", "t3"], _lists([-1.0, 0.0, 2.5], [7.0, -0.0, 3.0]))
    program = source.program()
    pts = np.zeros((21, 2))
    pts[0] = [-3.5, 0.25]
    with pytest.raises(IndexError, match="at step 7$"):
        _Kernel(program, program.registers(source.params)).run(pts, np.inf)
    rows = _column_orbit(source, pts[0], 6)
    assert pts[:7].tobytes() == rows.tobytes()
    with pytest.raises(IndexError):
        _column_orbit(source, rows[-1], 1)
