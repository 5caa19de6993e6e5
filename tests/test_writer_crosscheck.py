"""The C float writers against Python's own float text, in bulk.

``native.csv_rows`` must write ``format(v, ".17g")`` and ``native.reprs``
must write ``repr(v)`` for random bit patterns spread evenly over the binades
from 1e-16 to 1e17, both signs, and for the values where their digit
arithmetic takes its less common turns: a first product with 18 digits (ties
at its last digit included), 17 digits that round up to 10**17, powers of
two, and values whose shortest digits number exactly 16 or 17.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fejerlab import native

LOW, HIGH = 1e-16, 1e17  # the range of the writers' own digits


def _random_bits(n: int, seed: int) -> np.ndarray:
    """n doubles with random sign and mantissa bits, their binades uniform
    from that of 1e-16 to that of 1e17."""
    rng = np.random.default_rng(seed)
    lo, hi = math.frexp(LOW)[1] - 1, math.frexp(HIGH)[1] - 1
    exponent = rng.integers(lo, hi + 1, n).astype(np.uint64) + np.uint64(1023)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    return bits.view(np.float64)


def _exponent(v: float) -> int:
    """The exact decimal exponent of v > 0: 10**E <= v < 10**(E + 1)."""
    q = Fraction(v)
    E = math.floor(math.log10(v))
    return E - (q < Fraction(10) ** E) + (q >= Fraction(10) ** (E + 1))


def _exponent_floor(v: float) -> int:
    """The writers' estimate of the decimal exponent: floor(b log10(2)) for
    the binade [2**b, 2**(b + 1)) of v."""
    return ((math.frexp(v)[1] - 1) * 78913) >> 18


def _eighteen_digit_products(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Doubles whose first product has 18 digits: v at or above 10**q in the
    binade of 10**q, q != 0, so the estimate of the exponent is one low.  The
    second array holds those whose exact decimal has 18 significant digits, the
    last a 5, a tie at the division by 10: c / 2**j, c odd, j = 17 - q."""
    rng = np.random.default_rng(seed)
    above, ties = [], []
    for q in [q for q in range(-16, 17) if q]:  # 10**0 starts its binade
        ten = float(f"1e{q}")
        top = 2.0 ** math.frexp(ten)[1]  # the end of the binade of 10**q
        if Fraction(ten) < Fraction(10) ** q:
            ten = float(np.nextafter(ten, np.inf))
        above.extend(v for v in rng.uniform(ten, top, 40) if v < top)
        j = 17 - q
        first, last = math.ceil(Fraction(10) ** q * 2**j), min(int(Fraction(top) * 2**j), 2**53)
        if last - first > 1:
            odd = rng.integers(first, last, 20) | 1
            ties.extend(math.ldexp(int(c), -j) for c in odd if c < last)
    above, ties = np.array(above), np.array(ties)
    for v in np.concatenate([above, ties]):
        assert _exponent_floor(v) == _exponent(v) - 1, v
    for v in ties:
        q = Fraction(v)  # c / 2**j, whose decimal digits are those of c * 5**j
        digits = str(q.numerator * 5 ** (q.denominator.bit_length() - 1))
        assert len(digits) == 18 and digits[-1] == "5", v
    assert len(ties) > 200
    return above, ties


def _carries() -> np.ndarray:
    """The doubles whose 17 digits round up to 10**17.  Only a double below a
    power of ten by less than half a unit of its 17th digit can, so only the
    double nearest that power; in range only 1e-14 does, and its first
    product has 17 digits."""
    out = []
    for q in range(-16, 17):
        v = float(f"1e{q}")
        if Fraction(v) < Fraction(10) ** q and format(v, ".16e").startswith("1.0000000000000000"):
            out.append(v)
    assert out == [1e-14] and _exponent_floor(1e-14) == _exponent(1e-14) == -15
    return np.array(out)


def _powers_of_two() -> np.ndarray:
    twos = np.ldexp(1.0, np.arange(math.frexp(LOW)[1] - 1, math.frexp(HIGH)[1]))
    return np.concatenate([twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf)])


def _cases() -> np.ndarray:
    above, ties = _eighteen_digit_products(7)
    special = np.concatenate([above, ties, _carries(), _powers_of_two()])
    values = np.concatenate([_random_bits(200_000, 11), special, -special])
    # the count of shortest digits: repr's mantissa without its point and zeros
    counts = np.array([len(repr(v).split("e")[0].strip("-").replace(".", "").strip("0"))
                       for v in values[:20_000].tolist()])
    assert (counts == 16).sum() > 1000 and (counts == 17).sum() > 1000
    return values


@pytest.fixture(scope="module")
def values():
    return _cases()


def _rows(pts, start) -> str:
    return "".join(
        f"{start + i}," + ",".join(format(v, ".17g") for v in row) + "\n"
        for i, row in enumerate(pts.tolist())
    )


@pytest.mark.parametrize("d", [1, 3])
def test_csv_rows_write_format_17g(values, d):
    pts = values[: len(values) // d * d].reshape(-1, d)
    assert native.csv_rows(pts, 0).tobytes().decode("ascii") == _rows(pts, 0)
    # the longest row, a 20-character index and 23 characters per value,
    # ends its block
    longest = np.full((1, d), -1.2345678901234567e-5)
    start = -9 * 10**18
    assert native.csv_rows(longest, start).tobytes().decode("ascii") == _rows(longest, start)


def test_reprs_write_repr(values):
    inside = values[(np.abs(values) >= LOW) & (np.abs(values) < HIGH)]
    inside = np.append(inside, -1.2345678901234567e-5)  # the longest text ends the block
    assert len(inside) > 190_000
    sep = ",\n    "
    expected = sep.join(map(repr, inside.tolist()))
    assert native.reprs(inside, sep.encode()).tobytes().decode("ascii") == expected
