"""fejerlab's C library: the orbit loop of ``iterate``, the CSV writer of
``export_trajectory`` and the float writer of ``export_report``.

The whole library is one C translation unit, ``_SOURCE``.  The interpreter's
C compiler builds it at the first call that needs it, once per process, with
``-O2 -ffp-contract=off``; nothing is compiled at import.  The shared object
is written into a temporary directory, loaded through :mod:`ctypes`, and the
directory is deleted as soon as it is loaded.
"""

from __future__ import annotations

import functools
import os
import re

import numpy as np

# ``fejer_run`` is the orbit loop of every tree: a register machine that runs
# the same float source as an operator's ``apply``, lowered by
# ``operators._Lowering``, in plain IEEE double arithmetic: a zero divisor or
# the root of a negative gives inf or NaN, and WHERE picks one of two values
# computed before it.  An instruction is five ints: an opcode, the register it
# writes and its operand registers.  A list parameter's register holds the
# index of the register that holds its length, and its items follow that one.
# ``fejer_run`` writes rows 1..n_steps of the (n_steps + 1, d) array ``pts``
# from row 0, which r[0..d-1] also hold.  It stops at an exact cycle of any
# period by Brent's method (R. P. Brent, BIT 20, 1980): each new state is
# compared with one anchor state, and the anchor moves to the current state
# whenever the steps since it reach a span that doubles each time.  It returns
# what stopped it and where, in ``found``: CYCLED at (q, p) once row q + p
# repeats row q bit for bit, sign of zero included; LEFT_RANGE at step i when
# the squared norm of row i (summed left to right) is not at most ``cap2``,
# NaN and inf included; RAISED at step i where a list index is out of range,
# so that no step reads past a list; RAN otherwise.
#
# ``fejer_csv`` writes the CSV rows ``index,v1,...,vd\n`` of the (n, d) array
# ``pts``, numbered from ``start``, and returns the count of bytes written.
# The index is written by a plain digit loop.  A row equal bit for bit to the
# row before it (so -0.0 and 0.0 differ, and so do NaNs of other bits) gets a
# copy of that row's text ``,v1,...,vd\n``, formatted once.  Each value is
# the text of Python's ``format(v, ".17g")``.  Where 1e-16 <= |v| < 1e17,
# v = m * 2**e exactly and its 17 digits are
# D = round-half-even(m * 5**k * 2**(e + k)) with k = 16 - E, exact in
# 128-bit integers since 5**32 < 2**75; the decimal
# exponent E is read from the floor of the scaled value, not from its
# rounding.  Zeros are written "0" and "-0", NaN "nan"; every other value (a
# subnormal, |v| outside that range, an infinity, or the double 1e-16, which
# lies below 10**-16 and so needs k = 33) is written by snprintf's correctly
# rounded "%.17g" under the C numeric locale.
#
# ``fejer_reprs`` writes the text of Python's ``repr(v)`` for each of the n
# values ``v``, joined by ``sep``, and returns the count of bytes written, or
# -1, before writing, where a value is neither 0 nor 1e-16 <= |v| < 1e17.  In
# that range it finds, on the same integer scale as the 17 digits, the least
# count p of digits for which some p-digit decimal lies in the interval of
# values that read back as v: v -+ ulp/2, or [v - ulp/4, v + ulp/2] at a
# power of two, its ends included only where v's mantissa is even.  Of the
# p-digit decimals in that interval it writes the one nearest v, ties to an
# even last digit.
_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L  /* newlocale, uselocale */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

enum op { MOV, NEG, ADD, SUB, MUL, DIV, SQRT, LT, LE, GT, GE, WHERE, BISECT, INDEX };
enum stop { RAN, CYCLED, LEFT_RANGE, RAISED };

/* One step over the registers r; nonzero where an index is out of range. */
static int step(const int32_t *code, int64_t n_code, double *r)
{
    for (const int32_t *op = code; op < code + 5 * n_code; op += 5) {
        double a = r[op[2]], b = r[op[3]];
        switch (op[0]) {
        case MOV: r[op[1]] = a; break;
        case NEG: r[op[1]] = -a; break;
        case ADD: r[op[1]] = a + b; break;
        case SUB: r[op[1]] = a - b; break;
        case MUL: r[op[1]] = a * b; break;
        case DIV: r[op[1]] = a / b; break;
        case SQRT: r[op[1]] = sqrt(a); break;
        case LT: r[op[1]] = a < b; break;
        case LE: r[op[1]] = a <= b; break;
        case GT: r[op[1]] = a > b; break;
        case GE: r[op[1]] = a >= b; break;
        case WHERE: r[op[1]] = a != 0.0 ? b : r[op[4]]; break;
        case BISECT: {  /* numpy's searchsorted(list a, b, side="right") */
            const double *list = r + (int64_t)a;
            int64_t lo = 0, hi = (int64_t)list[0];
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (b < list[1 + mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            r[op[1]] = (double)lo;
            break;
        }
        case INDEX: {  /* list a [b] */
            const double *list = r + (int64_t)a;
            if (!(b >= 0.0 && b < list[0]))
                return 1;
            r[op[1]] = list[1 + (int64_t)b];
            break;
        }
        }
    }
    return 0;
}

int64_t fejer_run(const int32_t *code, int64_t n_code, const int32_t *out, int64_t d,
                  double *r, double *pts, int64_t n_steps, double cap2, int64_t *found)
{
    double anchor[d], y[d];
    int64_t q = 0, span = 1, move = 1;
    for (int64_t k = 0; k < d; k++)
        anchor[k] = r[k];
    for (int64_t i = 1; i <= n_steps; i++) {
        if (step(code, n_code, r)) {
            found[0] = i;
            return RAISED;
        }
        for (int64_t k = 0; k < d; k++)
            y[k] = r[out[k]];
        double norm2 = y[0] * y[0];
        for (int64_t k = 1; k < d; k++)
            norm2 += y[k] * y[k];
        if (!(norm2 <= cap2)) {
            found[0] = i;
            return LEFT_RANGE;
        }
        int same = 1;
        for (int64_t k = 0; k < d; k++) {
            pts[i * d + k] = r[k] = y[k];
            same = same && y[k] == anchor[k] && !signbit(y[k]) == !signbit(anchor[k]);
        }
        if (same) {
            found[0] = q;
            found[1] = i - q;
            return CYCLED;
        }
        if (i == move) {
            for (int64_t k = 0; k < d; k++)
                anchor[k] = y[k];
            q = i;
            span *= 2;
            move = i + span;
        }
    }
    return RAN;
}

typedef unsigned __int128 u128;

/* Powers of 5 from 5**0 to 5**32 and of 10 from 10**0 to 10**18. */
static void powers(u128 *pow5, uint64_t *pow10)
{
    pow5[0] = pow10[0] = 1;
    for (int k = 1; k < 33; k++)
        pow5[k] = 5 * pow5[k - 1];
    for (int k = 1; k < 19; k++)
        pow10[k] = 10 * pow10[k - 1];
}

/* a > 0 normal as m * 2**e, 2**52 <= m < 2**53; returns m. */
static uint64_t mantissa(double a, int *e)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    *e = (int)(bits >> 52) - 1075;
    return (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
}

/* floor(n * 2**t), and the remainder below it and one half in the same unit,
   a power of two that is at most 1/2. */
static uint64_t split(u128 n, int t, u128 *rest, u128 *half)
{
    if (t >= 0) {
        n <<= t + 1;
        t = -1;
    }
    *half = (u128)1 << (-t - 1);
    *rest = n & ((*half << 1) - 1);
    return (uint64_t)(n >> -t);
}

/* floor((e + 52) log10(2)): the decimal exponent of a = m * 2**e, or one less. */
static int exponent_floor(int e)
{
    return ((e + 52) * 78913) >> 18;
}

/* The 17 digits D of a > 0 and its decimal exponent E: a rounds to
   D * 10**(E - 16) with 10**16 <= D < 10**17.  Returns 0 where k = 16 - E
   is not in 0..32, the range of pow5. */
static int digits17(double a, const u128 *pow5, uint64_t *digits, int *exponent)
{
    const uint64_t ten16 = 10000000000000000ULL;
    uint64_t D = 0;
    int e, E;
    uint64_t m = mantissa(a, &e);
    for (E = exponent_floor(e), E = E < -16 ? -16 : E; E >= -16 && E <= 16;
         E += D < ten16 ? -1 : 1) {
        u128 rest, half;  /* a * 10**k == m * 5**k * 2**(e + k) */
        D = split((u128)m * pow5[16 - E], e + 16 - E, &rest, &half);
        if (D < ten16 || D >= 10 * ten16)
            continue;
        D += rest > half || (rest == half && (D & 1));  /* round half to even */
        *digits = D == 10 * ten16 ? ten16 : D;
        *exponent = E + (D == 10 * ten16);
        return 1;
    }
    return 0;
}

/* The values that read back as a double, scaled by 10**k: the open interval
   (lo, hi), closed where the double's mantissa is even.  lo and hi are
   floors, exact says which of them has no remainder. */
struct interval { uint64_t lo, hi; int lo_exact, hi_exact, closed; };

static int below_hi(const struct interval *r, uint64_t c)
{
    return c < r->hi || (c == r->hi && (!r->hi_exact || r->closed));
}

static int above_lo(const struct interval *r, uint64_t c)
{
    return c > r->lo || (c == r->lo && r->lo_exact && r->closed);
}

/* Whether a multiple of g lies in the interval. */
static int holds(const struct interval *r, uint64_t g)
{
    uint64_t c = r->hi / g * g;
    return above_lo(r, below_hi(r, c) ? c : c - g);
}

/* The shortest digits of 1e-16 <= a < 1e17 that read back as a, the nearest
   to a of them, ties to the even digit, given as digits17 gives its digits
   (Steele & White, PLDI 1990; Adams, PLDI 2018).  Returns 0 where a needs 17
   digits on a scale that digits17 does not reach. */
static int shortest(double a, const u128 *pow5, const uint64_t *pow10,
                    uint64_t *digits, int *exponent)
{
    int e, n = 14;
    uint64_t m = mantissa(a, &e);
    int k = 16 - exponent_floor(e);
    k = k > 31 ? 31 : k;  /* so 4 * m * 5**k < 2**127 */
    /* a * 10**k == x * 2**t; the interval is x -+ 2 w * 2**t, but reaches
       only x - w * 2**t below a power of two.  One t, so one half. */
    u128 w = pow5[k], x = 4 * (u128)m * w, r_x, r_lo, r_hi, half;
    int t = e + k - 2;
    uint64_t ax = split(x, t, &r_x, &half);
    uint64_t lo = split(x - (m == 1ULL << 52 ? w : 2 * w), t, &r_lo, &half);
    uint64_t hi = split(x + 2 * w, t, &r_hi, &half);
    struct interval r = {lo, hi, !r_lo, !r_hi, !(m & 1)};
    while (ax >= pow10[n + 1])  /* 10**n <= a * 10**k < 10**(n + 1) */
        n++;
    /* the least count p of digits, whose grid is 10**(n + 1 - p): probe 16,
       then 15, then bisect */
    int top = n + 1 < 16 ? n + 1 : 16, least = 1, most = top, p = top - 1;
    if (!holds(&r, pow10[n + 1 - top]))
        least = most = top + 1;
    while (least < most) {
        if (holds(&r, pow10[n + 1 - p]))
            most = p;
        else
            least = p + 1;
        p = (least + most) / 2;
    }
    if (least > n + 1)  /* 17 digits, on a grid finer than 10**-k */
        return digits17(a, pow5, digits, exponent);
    uint64_t g = pow10[n + 1 - least], c = ax / g, rem = ax - c * g;
    if (g > 1 ? rem > g / 2 || (rem == g / 2 && (r_x || (c & 1)))
              : r_x > half || (r_x == half && (c & 1)))
        c++;  /* the multiple of g nearest a, ties to even */
    c *= g;
    if (!below_hi(&r, c))
        c -= g;
    else if (!above_lo(&r, c))
        c += g;
    *exponent = n - k + (c == pow10[n + 1]);
    *digits = c == pow10[n + 1] ? pow10[16]
              : n >= 16 ? c / pow10[n - 16] : c * pow10[16 - n];
    return 1;
}

/* The 17 digits D at decimal exponent E as Python writes them: by
   format(., ".17g"), or by repr where repr is set, which writes the
   exponent form from E >= 16 on and ".0" after an integer. */
static char *put_digits(char *p, uint64_t D, int E, int repr)
{
    char dig[17];
    int n = 17, sci = E < -4 || (repr && E >= 16), point = sci ? 0 : E;  /* "." follows digit point */
    for (int i = 16; i >= 0; i--, D /= 10)
        dig[i] = (char)('0' + D % 10);
    while (dig[n - 1] == '0')  /* the significant digits */
        n--;
    if (point < 0)  /* 0.000ddd */
        p = (char *)memcpy(p, "0.0000", 1 - point) + 1 - point;
    for (int i = 0; i < n || i <= point; i++) {
        *p++ = dig[i];
        if (i == point && i + 1 < n)
            *p++ = '.';
    }
    if (repr && !sci && n <= point + 1)
        p = (char *)memcpy(p, ".0", 2) + 2;
    if (sci) {  /* e-XX, or e+16 */
        *p++ = 'e';
        *p++ = E < 0 ? '-' : '+';
        E = E < 0 ? -E : E;
        *p++ = (char)('0' + E / 10);
        *p++ = (char)('0' + E % 10);
    }
    return p;
}

/* "," and Python's format(a, ".17g") at p; returns the end of the text. */
static char *put_g17(char *p, double a, const u128 *pow5, locale_t *c_numeric)
{
    uint64_t D;
    int E;
    *p++ = ',';
    if (isnan(a))
        return (char *)memcpy(p, "nan", 3) + 3;
    if (signbit(a)) {
        *p++ = '-';
        a = -a;
    }
    if (a == 0.0) {
        *p++ = '0';
    } else if (a >= 1e-16 && a < 1e17 && digits17(a, pow5, &D, &E)) {
        p = put_digits(p, D, E, 0);
    } else {
        if (!*c_numeric)
            *c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
        locale_t old = uselocale(*c_numeric);
        p += snprintf(p, 25, "%.17g", a);
        uselocale(old);
    }
    return p;
}

/* v in decimal at p; returns the end of the text. */
static char *put_index(char *p, int64_t v)
{
    char dig[20];
    int n = 0;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    if (v < 0)
        *p++ = '-';
    do
        dig[n++] = (char)('0' + u % 10);
    while (u /= 10);
    while (n)
        *p++ = dig[--n];
    return p;
}

int64_t fejer_csv(const double *pts, int64_t n, int64_t d, int64_t start, char *out)
{
    u128 pow5[33];
    uint64_t pow10[19];
    locale_t c_numeric = (locale_t)0;
    char *p = out, *values = out;  /* the text ",v1,...,vd\n" of the last row */
    size_t length = 0;
    powers(pow5, pow10);
    for (int64_t i = 0; i < n; i++) {
        const double *row = pts + i * d;
        p = put_index(p, start + i);
        if (i && memcmp(row, row - d, 8 * (size_t)d) == 0) {  /* the last row, bit for bit */
            values = (char *)memcpy(p, values, length);
            p += length;
            continue;
        }
        values = p;
        for (int64_t k = 0; k < d; k++)
            p = put_g17(p, row[k], pow5, &c_numeric);
        *p++ = '\n';
        length = (size_t)(p - values);
    }
    if (c_numeric)
        freelocale(c_numeric);
    return p - out;
}

int64_t fejer_reprs(const double *v, int64_t n, const char *sep, int64_t n_sep, char *out)
{
    u128 pow5[33];
    uint64_t pow10[19], D;
    int E;
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        double a = fabs(v[i]);
        if (!(a == 0.0 || (a >= 1e-16 && a < 1e17)))
            return -1;
    }
    powers(pow5, pow10);
    for (int64_t i = 0; i < n; i++) {
        double a = v[i];
        if (i)
            p = (char *)memcpy(p, sep, n_sep) + n_sep;
        if (signbit(a)) {
            *p++ = '-';
            a = -a;
        }
        if (a == 0.0)
            p = (char *)memcpy(p, "0.0", 3) + 3;
        else if (shortest(a, pow5, pow10, &D, &E))
            p = put_digits(p, D, E, 1);
        else
            return -1;
    }
    return p - out;
}
"""


def enum(name: str) -> dict:
    """The values of the C ``enum name``, by member name."""
    names = re.search(rf"enum {name} {{([^}}]*)}}", _SOURCE).group(1).split(",")
    return {key.strip(): i for i, key in enumerate(names)}


# no -ffast-math or -march=native: contracting a * b + c into one FMA changes bits
_CFLAGS = ("-O2", "-ffp-contract=off")


def _compiler() -> list[str]:
    """The command of the C compiler that built the interpreter."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def library():
    """The library, compiled by the interpreter's C compiler and loaded on
    first use, once per process; the temporary directory that holds the
    shared object is gone once it is loaded."""
    import ctypes
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="fejerlab-") as tmp:
        source, path = os.path.join(tmp, "native.c"), os.path.join(tmp, "native.so")
        with open(source, "w", encoding="ascii") as fh:
            fh.write(_SOURCE)
        cmd = [*_compiler(), *_CFLAGS, "-shared", "-fPIC", "-o", path, source, "-lm"]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise RuntimeError(
                "iterate needs a C compiler for its orbit loop, export_trajectory "
                "for its CSV writer and export_report for its float writer, all in "
                f"fejerlab's C library; {' '.join(cmd)} failed: {detail}"
            ) from exc
        lib = ctypes.CDLL(path)
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fejer_run.argtypes = [p, i64, p, i64, p, p, i64, ctypes.c_double, p]
    lib.fejer_run.restype = i64
    lib.fejer_csv.argtypes = [p, i64, i64, i64, p]
    lib.fejer_csv.restype = i64
    lib.fejer_reprs.argtypes = [p, i64, ctypes.c_char_p, i64, p]
    lib.fejer_reprs.restype = i64
    return lib


def csv_rows(points: np.ndarray, start: int) -> np.ndarray:
    """The CSV rows of ``points``, numbered from ``start``, as one text block."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n, d = pts.shape
    # a row has at most 20 index characters, "," and 24 characters per value,
    # "\n", and room for the NUL snprintf writes after a value
    out = np.empty(n * (21 + 25 * d), dtype=np.uint8)
    return out[: library().fejer_csv(pts.ctypes.data, n, d, start, out.ctypes.data)]


def reprs(values: np.ndarray, sep: bytes) -> np.ndarray | None:
    """``sep.join(map(repr, values))`` of a 1-d float array as one text block,
    or None where a value lies outside 0 and 1e-16 <= |v| < 1e17."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    # a value has at most 23 characters, and the block no NUL
    out = np.empty(len(v) * (23 + len(sep)), dtype=np.uint8)
    n = library().fejer_reprs(v.ctypes.data, len(v), sep, len(sep), out.ctypes.data)
    return out[:n] if n >= 0 else None
