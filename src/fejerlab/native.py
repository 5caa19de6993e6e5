"""fejerlab's C library: the register machine that evaluates every set's
projection and operator's map, on orbits for ``iterate`` and on rows for
``project``, ``project_many``, ``apply``, ``value_at`` and the verifiers; the
witness pass of ``check_fejer``; the CSV writer of ``export_trajectory`` and
the float writer of ``export_report``.  The machine's instruction format
lives here alone: ``_Lowering`` turns a node's float source (its ``_emit``)
into instructions, once per source text, and a node's :class:`Kernel` pairs
that program with the node's own register file.

The whole library is one C translation unit, ``_SOURCE``.  The interpreter's
C compiler builds it at the first call that needs it, once per process, with
``-O2 -ffp-contract=off``; nothing is compiled at import.  The shared object
is written into a temporary directory, loaded through :mod:`ctypes`, and the
directory is deleted as soon as it is loaded.
"""

from __future__ import annotations

import ast
import functools
import os
import re
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError

# ``fejer_run`` and ``fejer_map`` run a register machine on the float source
# of a set's projection or an operator's map, lowered by ``_Lowering``, in
# plain IEEE double arithmetic: a zero divisor or the root of a negative gives
# inf or NaN, and WHERE picks one of two values computed before it.  An
# instruction is six ints: an opcode, the register it writes, its operand
# registers a, b and c, and a PAIR's second target u.  A PAIR is two
# arithmetic operations (ADD, SUB, MUL, DIV, SQRT) in one row: t = a op1 b is
# stored, then u = t op2 c, c op2 t or t op2 t, the same two roundings in the
# same order; -ffp-contract=off keeps them from becoming one FMA.  Its opcode
# is PAIR + 13 * i1 + 3 * i2 + side, with i1 and i2 the places of op1 and op2
# in that list and side 0, 1 or 2 as t is the left, the right or both
# operands; SQRT reads its left operand only, so its side is 0.  A list
# parameter's register holds the index of the register that holds its length,
# and its items follow that one.  At entry both decode the program once, by
# ``decode``, into a malloc'ed array of records that hold a handler's address
# and pointers to the registers, closed by END; ``step`` jumps from handler to
# handler by GNU C's labels as values, so it needs gcc or clang.  Each
# arithmetic expression is written once, in a macro, and the 65 PAIR handlers
# are generated from those macros.
# ``fejer_run`` writes rows 1..n_steps of the (n_steps + 1, d) array ``pts``
# from row 0, which r[0..d-1] also hold.  It stops at an exact cycle of any
# period by Brent's method (R. P. Brent, BIT 20, 1980): each new state is
# compared with one anchor state, and the anchor moves to the current state
# whenever the steps since it reach a span that doubles each time.  It returns
# what stopped it and where, in ``found``: CYCLED at (q, p) once row q + p
# repeats row q bit for bit, sign of zero included; LEFT_RANGE at step i when
# the squared norm of row i (summed left to right) is not at most ``cap2``,
# NaN and inf included; RAISED at step i where a list index is out of range,
# so that no step reads past a list; NO_MEMORY, before any step, where the
# decoded program could not be allocated; RAN otherwise.
#
# ``fejer_map`` runs one step from each row of the (m, d) array ``in`` and
# writes the registers ``out`` names to that row of ``y``; RAISED gives the
# row in ``found[0]``.  It comes last, and every entry point starts on a
# 64-byte line, so that code added in front of one does not move its loops.
#
# ``fejer_reach2`` returns the largest squared distance of a row of the (n, d)
# array ``pts`` to the point ``a``.  ``fejer_pass`` makes one sweep over the
# rows of ``pts``, n >= 2, against the (w, d) witnesses ``ws``.  Each distance
# is the sqrt of the sum of t * t over the coordinate differences t, summed
# left to right, the bits of ``scipy.spatial.distance.cdist``; each row's
# distances are taken once and kept in ``dist`` for the next step.  It writes
# the drops s(i) - s(i + 1) of the squared distances s to ``ws[0]`` into
# ``drops`` and keeps the first largest increase dist(i + 1, j) - dist(i, j),
# in step order and then witness order: ``worst`` gets the increase and both
# of its distances, ``at`` its step and witness, or -inf and -1 where no
# increase compares above -inf.
#
# ``fejer_csv`` writes the CSV rows ``index,v1,...,vd\n`` of the (n, d) array
# ``pts``, numbered from ``start``, and returns the count of bytes written.
# The index is written two digits at a time.  A row equal bit for bit to the
# row before it (so -0.0 and 0.0 differ, and so do NaNs of other bits) gets a
# copy of that row's text ``,v1,...,vd\n``, formatted once.  Each value is
# the text of Python's ``format(v, ".17g")``.  Where 1e-16 <= |v| < 1e17,
# v = m * 2**e exactly and one product gives its 17 digits D and decimal
# exponent E.  With k = 16 - F, where F = floor((e + 52) log10(2)) is E or
# one less, m * 5**k * 2**(e + k) is exact in 128-bit integers since
# 5**32 < 2**75; its integer part has 17 digits, or 18 where F is one less
# than E.  D is that part rounded half to even: by its remainder below the
# unit, or, where it has 18 digits, by the last digit, which it drops, and
# that remainder.  E is read from the floor, not from the rounding, and
# grows by one where D rounds up to 10**17.  Zeros are written "0" and "-0",
# NaN "nan"; every other value (a subnormal, |v| outside that range, an
# infinity, or the double 1e-16, which lies below 10**-16 and so needs
# k = 33) is written by snprintf's correctly rounded "%.17g" under the C
# numeric locale.
#
# ``fejer_reprs`` writes the text of Python's ``repr(v)`` for each of the n
# values ``v``, joined by ``sep``, and returns the count of bytes written, or
# -1, before writing, where a value is neither 0 nor 1e-16 <= |v| < 1e17.  In
# that range it finds, on the same integer scale as the 17 digits, the least
# count of digits for which a decimal of that many digits lies in the
# interval of values that read back as v: v -+ ulp/2, or [v - ulp/4, v + ulp/2]
# at a power of two, its ends included only where v's mantissa is even.  It
# drops the last digit of the scaled v and of the bounds of the integers in
# the interval, dividing by the constant 10, while the interval still holds a
# multiple of the coarser unit.  Of the multiples of the coarsest unit in the
# interval it writes the one nearest v, ties to an even last digit.
#
# Both writers lay out the 17 digits alike.  D is split into its leading
# digit and two 8-digit halves in 32-bit arithmetic, and each half is written
# two digits at a time from the table of "00" to "99".  The text, at most 22
# characters after the sign, is written by copies of fixed length that reach
# up to 22 bytes past the sign, for which both writers' buffers leave room;
# the fixed-point form, whose digits after the point move by one, is laid out
# in a buffer first.
_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L  /* newlocale, uselocale */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum op { MOV, NEG, ADD, SUB, MUL, DIV, SQRT, LT, LE, GT, GE, WHERE, BISECT, INDEX, END, PAIR };
enum stop { RAN, CYCLED, LEFT_RANGE, RAISED, NO_MEMORY };

/* Each arithmetic operation, written once: x op y; SQRT reads x only. */
#define ADD_OF(x, y) ((x) + (y))
#define SUB_OF(x, y) ((x) - (y))
#define MUL_OF(x, y) ((x) * (y))
#define DIV_OF(x, y) ((x) / (y))
#define SQRT_OF(x, y) sqrt(x)
#define ARITH(X) X(ADD) X(SUB) X(MUL) X(DIV) X(SQRT)
/* The operands of a pair's second operation, by where it reads t. */
#define LEFT(t, c) (t, c)
#define RIGHT(t, c) (c, t)
#define BOTH(t, c) (t, t)
#define APPLY(f, args) f args
/* The second halves of the pairs of op1, in the order of their codes. */
#define SECONDS(X, op1) \
    X(op1, ADD, LEFT) X(op1, ADD, RIGHT) X(op1, ADD, BOTH) \
    X(op1, SUB, LEFT) X(op1, SUB, RIGHT) X(op1, SUB, BOTH) \
    X(op1, MUL, LEFT) X(op1, MUL, RIGHT) X(op1, MUL, BOTH) \
    X(op1, DIV, LEFT) X(op1, DIV, RIGHT) X(op1, DIV, BOTH) \
    X(op1, SQRT, LEFT)

/* A decoded instruction: its handler in step and its registers. */
struct ins {
    const void *go;
    double *t, *u;
    const double *a, *b, *c;
};

/* One step over the registers r by the decoded program I, which END closes;
   nonzero where an index is out of range.  With I null it only gives its
   handler of each opcode at *go. */
static int step(const struct ins *I, double *r, const void *const **go)
{
#define LABEL(op) &&op_##op,
#define PAIR_LABEL(op1, op2, side) &&pair_##op1##_##op2##_##side,
#define PAIR_LABELS(op1) SECONDS(PAIR_LABEL, op1)
    static const void *const handlers[] = {
        &&op_MOV, &&op_NEG, ARITH(LABEL) &&op_LT, &&op_LE, &&op_GT, &&op_GE,
        &&op_WHERE, &&op_BISECT, &&op_INDEX, &&op_END, ARITH(PAIR_LABELS)
    };
    if (!I) {
        *go = handlers;
        return 0;
    }
#define NEXT goto *(++I)->go
    goto *I->go;
op_MOV: *I->t = *I->a; NEXT;
op_NEG: *I->t = -*I->a; NEXT;
#define ONE(op) op_##op: *I->t = op##_OF(*I->a, *I->b); NEXT;
    ARITH(ONE)
op_LT: *I->t = *I->a < *I->b; NEXT;
op_LE: *I->t = *I->a <= *I->b; NEXT;
op_GT: *I->t = *I->a > *I->b; NEXT;
op_GE: *I->t = *I->a >= *I->b; NEXT;
op_WHERE: *I->t = *I->a != 0.0 ? *I->b : *I->c; NEXT;
op_BISECT: {  /* numpy's searchsorted(list a, b, side="right") */
        const double *list = r + (int64_t)*I->a;
        double b = *I->b;
        int64_t lo = 0, hi = (int64_t)list[0];
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (b < list[1 + mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        *I->t = (double)lo;
        NEXT;
    }
op_INDEX: {  /* list a [b] */
        const double *list = r + (int64_t)*I->a;
        double b = *I->b;
        if (!(b >= 0.0 && b < list[0]))
            return 1;
        *I->t = list[1 + (int64_t)b];
        NEXT;
    }
    /* t = a op1 b, stored, then u = t op2 c, c op2 t or t op2 t */
#define FUSED(op1, op2, side) \
pair_##op1##_##op2##_##side: { \
        double t = op1##_OF(*I->a, *I->b); \
        *I->t = t; \
        *I->u = APPLY(op2##_OF, side(t, *I->c)); \
        NEXT; \
    }
#define FUSED_OF(op1) SECONDS(FUSED, op1)
    ARITH(FUSED_OF)
op_END:
    return 0;
}

/* The orbit of the decoded program I from r[0..d-1], as fejer_run states it. */
static int64_t orbit(const struct ins *I, const int32_t *out, int64_t d, double *r,
                     double *pts, int64_t n_steps, double cap2, int64_t *found)
{
    double anchor[d], y[d];
    int64_t q = 0, span = 1, move = 1;
    for (int64_t k = 0; k < d; k++)
        anchor[k] = r[k];
    for (int64_t i = 1; i <= n_steps; i++) {
        if (step(I, r, NULL)) {
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

/* The n_code six-int rows of code over the registers r, decoded for step
   into a malloc'ed array that END closes; NULL where malloc fails. */
static struct ins *decode(const int32_t *code, int64_t n_code, double *r)
{
    const void *const *go;
    struct ins *prog = malloc((size_t)(n_code + 1) * sizeof *prog);
    if (!prog)
        return NULL;
    step(NULL, r, &go);
    for (int64_t i = 0; i < n_code; i++, code += 6)
        prog[i] = (struct ins){go[code[0]], r + code[1], r + code[5],
                               r + code[2], r + code[3], r + code[4]};
    prog[n_code] = (struct ins){.go = go[END]};
    return prog;
}

/* fejer_pass ran 30-50% slower starting 32 bytes past a 64-byte line */
__attribute__((aligned(64)))
int64_t fejer_run(const int32_t *code, int64_t n_code, const int32_t *out, int64_t d,
                  double *r, double *pts, int64_t n_steps, double cap2, int64_t *found)
{
    struct ins *prog = decode(code, n_code, r);
    if (!prog)
        return NO_MEMORY;
    int64_t stop = orbit(prog, out, d, r, pts, n_steps, cap2, found);
    free(prog);
    return stop;
}

/* The squared distance of the d-vectors a and b, summed left to right. */
static double dist2(const double *a, const double *b, int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++)
        s += (a[k] - b[k]) * (a[k] - b[k]);
    return s;
}

__attribute__((aligned(64)))
double fejer_reach2(const double *pts, int64_t n, int64_t d, const double *a)
{
    double most = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double s = dist2(pts + i * d, a, d);
        most = s > most ? s : most;
    }
    return most;
}

__attribute__((aligned(64)))
void fejer_pass(const double *pts, int64_t n, int64_t d, const double *ws, int64_t w,
                double *dist, double *drops, double *worst, int64_t *at)
{
    double s = dist2(pts, ws, d);
    worst[0] = -INFINITY;
    at[0] = at[1] = -1;
    for (int64_t j = 0; j < w; j++)
        dist[j] = sqrt(j ? dist2(pts, ws + j * d, d) : s);
    for (int64_t i = 1; i < n; i++) {
        const double *row = pts + i * d;
        for (int64_t j = 0; j < w; j++) {
            double sj = dist2(row, ws + j * d, d), r = sqrt(sj), up = r - dist[j];
            if (!j) {
                drops[i - 1] = s - sj;
                s = sj;
            }
            if (up > worst[0]) {
                worst[0] = up;
                worst[1] = dist[j];
                worst[2] = r;
                at[0] = i - 1;
                at[1] = j;
            }
            dist[j] = r;
        }
    }
}

typedef unsigned __int128 u128;

/* The two digits of i < 100 at PAIRS + 2 * i. */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

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
   D * 10**(E - 16) with 10**16 <= D < 10**17.  One product gives the floor
   of a * 10**k, k = 16 - exponent_floor; where the exponent is one more,
   that floor has 18 digits and drops the last, and that digit and the
   remainder below it round the rest.  Returns 0 where k is not in 0..32,
   the range of pow5, or a < 10**-16. */
static int digits17(double a, const u128 *pow5, uint64_t *digits, int *exponent)
{
    const uint64_t ten16 = 10000000000000000ULL;
    int e;
    uint64_t m = mantissa(a, &e), up;
    int E = exponent_floor(e);
    E = E < -16 ? -16 : E;
    if (E > 16)
        return 0;
    u128 rest, half;  /* a * 10**k == m * 5**k * 2**(e + k) */
    uint64_t D = split((u128)m * pow5[16 - E], e + 16 - E, &rest, &half);
    if (D < ten16)  /* the double 1e-16 */
        return 0;
    if (D >= 10 * ten16) {
        uint64_t last = D % 10;
        D /= 10;
        E++;
        up = (last > 5) | ((last == 5) & ((rest != 0) | (D & 1)));
    } else {
        up = (rest > half) | ((rest == half) & (D & 1));
    }
    D += up;  /* round half to even */
    *digits = D == 10 * ten16 ? ten16 : D;
    *exponent = E + (D == 10 * ten16);
    return 1;
}

/* The shortest digits of 1e-16 <= a < 1e17 that read back as a, the nearest
   to a of them, ties to the even digit, given as digits17 gives its digits
   (Steele & White, PLDI 1990; Adams, PLDI 2018).  Returns 0 where a needs 17
   digits on a scale that digits17 does not reach. */
static int shortest(double a, const u128 *pow5, const uint64_t *pow10,
                    uint64_t *digits, int *exponent)
{
    int e;
    uint64_t m = mantissa(a, &e);
    int k = 16 - exponent_floor(e);
    k = k > 31 ? 31 : k;  /* so 4 * m * 5**k < 2**127 */
    /* a * 10**k == x * 2**t; the values that read back as a are x -+ 2 w * 2**t,
       but only down to x - w * 2**t at a power of two, the ends included
       where m is even.  One t, so one half. */
    u128 w = pow5[k], x = 4 * (u128)m * w, r_x, r_lo, r_hi, half;
    int t = e + k - 2;
    uint64_t ax = split(x, t, &r_x, &half);
    uint64_t lo = split(x - (m == 1ULL << 52 ? w : 2 * w), t, &r_lo, &half);
    uint64_t hi = split(x + 2 * w, t, &r_hi, &half);
    /* the integers in the interval are those above l up to h; 10**n <= ax < 10**(n + 1) */
    uint64_t l = lo - (!r_lo && !(m & 1)), h = hi - (!r_hi && (m & 1)), c = ax;
    int n = 14 + (ax >= pow10[15]) + (ax >= pow10[16]) + (ax >= pow10[17]);
    if (h <= l)  /* 17 digits, on a grid finer than 10**-k */
        return digits17(a, pow5, digits, exponent);
    /* the coarsest grid 10**j with a multiple in the interval: drop the last
       digit of c, l and h while a multiple remains; last is the digit c
       dropped last, and below is set where a digit it dropped before, or
       the remainder r_x, is not 0 */
    int j = 0, last = 0, below = r_x != 0;
    while (h / 10 > l / 10) {
        below |= last;
        last = (int)(c % 10);
        c /= 10, l /= 10, h /= 10, j++;
    }
    c += j ? (last > 5) | ((last == 5) & (below | (c & 1)))
           : (r_x > half) | ((r_x == half) & (c & 1));  /* the multiple nearest a, ties to even */
    c -= c > h;  /* or the next one inside */
    c += c <= l;
    uint64_t D = c * pow10[16 - n + j];  /* j <= n + 1, and j >= 1 where n = 17 */
    *exponent = n - k + (D == pow10[17]);
    *digits = D == pow10[17] ? pow10[16] : D;
    return 1;
}

/* The 8 digits of v < 10**8 at p. */
static void put8(char *p, uint32_t v)
{
    uint32_t a = v / 10000, b = v % 10000;
    memcpy(p, PAIRS + 2 * (a / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (b % 100), 2);
}

/* The 17 digits D at decimal exponent E as Python writes them: by
   format(., ".17g"), or by repr where repr is set, which writes the
   exponent form from E >= 16 on and ".0" after an integer.  The text has at
   most 22 characters; every copy has a fixed length, and up to 22 bytes at
   p are written. */
static char *put_digits(char *p, uint64_t D, int E, int repr)
{
    char dig[33], text[40];
    uint32_t top = (uint32_t)(D / 100000000), lead = top / 100000000;  /* D < 10**17 */
    int n = 17;
    dig[0] = (char)('0' + lead);
    put8(dig + 1, top - lead * 100000000);
    put8(dig + 9, (uint32_t)(D - (uint64_t)top * 100000000));
    while (dig[n - 1] == '0')  /* the significant digits */
        n--;
    if (E < -4 || (repr && E >= 16)) {  /* d.ddde-XX, or e+16 */
        p[0] = dig[0];
        p[1] = '.';
        memcpy(p + 2, dig + 1, 16);
        p += n > 1 ? n + 1 : 1;
        memcpy(p, E < 0 ? "e-" : "e+", 2);
        return (char *)memcpy(p + 2, PAIRS + 2 * (E < 0 ? -E : E), 2) + 2;
    }
    if (E < 0) {  /* 0.000ddd */
        memcpy(p, "0.0000", 6);
        memcpy(p + 1 - E, dig, 17);
        return p + 1 - E + n;
    }
    /* ddd.ddd, laid out in a buffer, as the digits after the point move by
       one; zeros follow the digits */
    memcpy(dig + 17, "0000000000000000", 16);
    memcpy(text, dig, 17);
    text[E + 1] = '.';
    memcpy(text + E + 2, dig + E + 1, 16);
    memcpy(p, text, 22);
    return p + (n > E + 1 ? n + 1 : E + 1 + 2 * repr);  /* ddd, or ddd.0 by repr */
}

/* "," and Python's format(a, ".17g") at p; returns the end of the text. */
static char *put_g17(char *p, double a, const u128 *pow5, locale_t *c_numeric)
{
    uint64_t D;
    int E;
    *p++ = ',';
    if (isnan(a))
        return (char *)memcpy(p, "nan", 3) + 3;
    *p = '-';  /* kept where a is negative */
    p += signbit(a) != 0;
    a = fabs(a);
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

/* v in decimal at p, two digits at a time; returns the end of the text. */
static char *put_index(char *p, int64_t v)
{
    char dig[20], *q = dig + 20;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    if (v < 0)
        *p++ = '-';
    for (; u >= 100; u /= 100)
        q = (char *)memcpy(q - 2, PAIRS + 2 * (u % 100), 2);
    if (u >= 10)
        q = (char *)memcpy(q - 2, PAIRS + 2 * u, 2);
    else
        *--q = (char)('0' + u);
    return (char *)memcpy(p, q, dig + 20 - q) + (dig + 20 - q);
}

__attribute__((aligned(64)))
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

__attribute__((aligned(64)))
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
        *p = '-';  /* kept where a is negative */
        p += signbit(a) != 0;
        a = fabs(a);
        if (a == 0.0)
            p = (char *)memcpy(p, "0.0", 3) + 3;
        else if (shortest(a, pow5, pow10, &D, &E))
            p = put_digits(p, D, E, 1);
        else
            return -1;
    }
    return p - out;
}

__attribute__((aligned(64)))
int64_t fejer_map(const int32_t *code, int64_t n_code, const int32_t *out, int64_t d,
                  double *r, const double *in, double *y, int64_t m, int64_t *found)
{
    struct ins *prog = decode(code, n_code, r);
    int64_t i = 0;
    if (!prog)
        return NO_MEMORY;
    for (; i < m; i++, in += d, y += d) {
        for (int64_t k = 0; k < d; k++)
            r[k] = in[k];
        if (step(prog, r, NULL))
            break;
        for (int64_t k = 0; k < d; k++)
            y[k] = r[out[k]];
    }
    free(prog);
    found[0] = i;
    return i < m ? RAISED : RAN;
}
"""


def _enum(name: str) -> dict:
    """The values of the C ``enum name``, by member name."""
    names = re.search(rf"enum {name} {{([^}}]*)}}", _SOURCE).group(1).split(",")
    return {key.strip(): i for i, key in enumerate(names)}


_OPCODES, _STOPS = _enum("op"), _enum("stop")

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
                "iterate needs a C compiler for its orbit loop, project and apply "
                "for their map, check_fejer for its witness pass, export_trajectory "
                "for its CSV writer and export_report for its float writer, all in "
                f"fejerlab's C library; {' '.join(cmd)} failed: {detail}"
            ) from exc
        lib = ctypes.CDLL(path)
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fejer_run.argtypes = [p, i64, p, i64, p, p, i64, ctypes.c_double, p]
    lib.fejer_run.restype = i64
    lib.fejer_map.argtypes = [p, i64, p, i64, p, p, p, i64, p]
    lib.fejer_map.restype = i64
    lib.fejer_reach2.argtypes = [p, i64, i64, p]
    lib.fejer_reach2.restype = ctypes.c_double
    lib.fejer_pass.argtypes = [p, i64, i64, p, i64, p, p, p, p]
    lib.fejer_pass.restype = None
    lib.fejer_csv.argtypes = [p, i64, i64, i64, p]
    lib.fejer_csv.restype = i64
    lib.fejer_reprs.argtypes = [p, i64, ctypes.c_char_p, i64, p]
    lib.fejer_reprs.restype = i64
    return lib


class _Program(NamedTuple):
    """One float source, lowered to the instructions of the machine."""

    code: np.ndarray  # int32, one row of six per instruction, pairs fused
    outputs: np.ndarray  # int32, the registers of the source's results
    size: int  # registers ahead of the lists' items
    constants: tuple  # (register, value)
    scalars: tuple  # (parameter index, register)
    lists: tuple  # (parameter index, register)
    head: tuple  # fejer_run's and fejer_map's code, n_code, outputs and d

    def registers(self, params: list) -> np.ndarray:
        """The register file with one node's parameter values bound."""
        r = np.zeros(self.size + sum(len(params[k]) + 1 for k, _ in self.lists))
        for reg, value in self.constants:
            r[reg] = value
        for k, reg in self.scalars:
            r[reg] = params[k]
        end = self.size
        for k, reg in self.lists:
            items = params[k]
            r[reg], r[end] = end, len(items)
            r[end + 1 : end + 1 + len(items)] = items
            end += len(items) + 1
        r.setflags(write=False)
        return r


_BINARY = {ast.Add: "ADD", ast.Sub: "SUB", ast.Mult: "MUL", ast.Div: "DIV"}
_COMPARE = {ast.Lt: "LT", ast.LtE: "LE", ast.Gt: "GT", ast.GtE: "GE"}

# the operations a PAIR fuses, in the order of their codes; SQRT reads a only
_ARITH = ("ADD", "SUB", "MUL", "DIV", "SQRT")
_ARITH_OPS = {_OPCODES[op]: op for op in _ARITH}
# where a pair's second operation reads the first's result t: t op2 c, c op2 t, t op2 t
LEFT, RIGHT, BOTH = range(3)


def _pair_code(op1: str, op2: str, side: int) -> int:
    """The opcode of the pair t = a op1 b, then u = t op2 c, c op2 t or t op2 t."""
    return _OPCODES["PAIR"] + 13 * _ARITH.index(op1) + 3 * _ARITH.index(op2) + side


def _pair_parts(code: int) -> tuple:
    """(op1, op2, side) of a PAIR opcode, read back from it."""
    k = code - _OPCODES["PAIR"]
    return _ARITH[k // 13], _ARITH[k % 13 // 3], k % 13 % 3


def _reads(first: list, second: list) -> int | None:
    """Where the arithmetic instruction ``second`` reads the target of the
    arithmetic instruction ``first``; None where it does not read it, or
    where either is not arithmetic."""
    if first[0] not in _ARITH_OPS or second[0] not in _ARITH_OPS:
        return None
    t = first[1]
    if second[0] == _OPCODES["SQRT"]:
        return LEFT if second[2] == t else None
    return {(True, False): LEFT, (False, True): RIGHT, (True, True): BOTH}.get(
        (second[2] == t, second[3] == t)
    )


def _fuse(code: list) -> list:
    """``code`` with each arithmetic instruction whose result the next one
    reads fused with it into one PAIR row, left to right.  A pair stores
    both results, so a later reader of the first still finds it."""
    out, i = [], 0
    while i < len(code):
        first = code[i]
        side = _reads(first, code[i + 1]) if i + 1 < len(code) else None
        if side is None:
            out.append(first)
            i += 1
            continue
        (op1, t, a, b, _, _), (op2, u, left, right, _, _) = first, code[i + 1]
        c = {LEFT: right, RIGHT: left, BOTH: 0}[side]
        out.append([_pair_code(_ARITH_OPS[op1], _ARITH_OPS[op2], side), t, a, b, c, u])
        i += 2
    return out


class _Lowering:
    """The machine's instructions of a float source: a register per name,
    constant and intermediate value, in the order the source computes them."""

    def __init__(self, d: int):
        self.code: list[list[int]] = []
        self.names = {f"x{i}": i for i in range(d)}
        self.constants: dict = {}
        self.scalars: list = []
        self.lists: list = []
        self.size = d

    def program(self, body: str, ys: list[str]) -> _Program:
        for node in ast.parse(body).body:
            self.assign(self.name(node.targets[0].id), node.value)
        code = np.array(_fuse(self.code), dtype=np.int32).reshape(-1, 6)
        outputs = np.array([self.name(y) for y in ys], dtype=np.int32)
        return _Program(
            code,
            outputs,
            self.size,
            tuple((reg, value) for value, reg in self.constants.values()),
            tuple(self.scalars),
            tuple(self.lists),
            (code.ctypes.data, len(code), outputs.ctypes.data, len(outputs)),
        )

    def new(self) -> int:
        self.size += 1
        return self.size - 1

    def name(self, name: str, listed: bool = False) -> int:
        if name not in self.names:
            self.names[name] = reg = self.new()
            if name.startswith("p"):
                (self.lists if listed else self.scalars).append((int(name[1:]), reg))
        return self.names[name]

    def operand(self, node) -> int:
        """The register holding the value of the expression ``node``."""
        if isinstance(node, ast.Name):
            return self.name(node.id)
        if isinstance(node, ast.Constant):
            value = float(node.value)
            key = value.hex()  # keeps 0.0 and -0.0 apart
            if key not in self.constants:
                self.constants[key] = (value, self.new())
            return self.constants[key][1]
        reg = self.new()
        self.assign(reg, node)
        return reg

    def assign(self, reg: int, node) -> None:
        kind = type(node)
        call = node.func.id if kind is ast.Call else None
        if kind in (ast.Name, ast.Constant):
            op = ["MOV", self.operand(node)]
        elif kind is ast.BinOp and type(node.op) in _BINARY:
            op = [_BINARY[type(node.op)], self.operand(node.left), self.operand(node.right)]
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            op = ["NEG", self.operand(node.operand)]
        elif kind is ast.Compare and len(node.ops) == 1 and type(node.ops[0]) in _COMPARE:
            left, right = self.operand(node.left), self.operand(node.comparators[0])
            op = [_COMPARE[type(node.ops[0])], left, right]
        elif call == "sqrt":
            op = ["SQRT", self.operand(node.args[0])]
        elif call == "where":
            op = ["WHERE", *map(self.operand, node.args)]
        elif call == "bisect_right":
            items, x = node.args
            op = ["BISECT", self.name(items.id, listed=True), self.operand(x)]
        elif kind is ast.Subscript:
            op = ["INDEX", self.name(node.value.id, listed=True), self.operand(node.slice)]
        else:
            raise ValueError(f"cannot lower {ast.unparse(node)!r}")
        # six ints: opcode, target, three operands and a PAIR's second target;
        # an unused operand reads register 0
        self.code.append([_OPCODES[op[0]], reg, *op[1:], 0, 0, 0][:6])


# (float source, result names) -> its _Program; grows only with the shapes in use
_PROGRAMS: dict = {}


def _stopped(stop: int, i: int, where: str) -> None:
    """Raise for a run of the machine that ``stop`` ended at ``where`` i."""
    if stop == _STOPS["LEFT_RANGE"]:
        raise NonFiniteValueError(f"orbit left the representable range at {where} {i}")
    if stop == _STOPS["RAISED"]:
        raise IndexError(f"list index out of range at {where} {i}")
    if stop == _STOPS["NO_MEMORY"]:
        raise MemoryError("no memory for the decoded program")


class Kernel(NamedTuple):
    """A node's value at one dimension d: the program of its float source,
    shared by the nodes of one shape, and its register file with this node's
    parameters bound."""

    program: _Program
    registers: np.ndarray

    def map(self, rows: np.ndarray) -> np.ndarray:
        """The value at each row of the (m, d) array ``rows``, by ``fejer_map``."""
        head = self.program.head
        x = np.ascontiguousarray(rows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != head[3]:
            raise DimensionMismatchError(f"expected shape (n, {head[3]}), got {x.shape}")
        y, r, found = np.empty(x.shape), self.registers.copy(), np.empty(1, dtype=np.int64)
        stop = library().fejer_map(
            *head, r.ctypes.data, x.ctypes.data, y.ctypes.data, len(x), found.ctypes.data
        )
        _stopped(stop, int(found[0]), "row")
        return y

    def run(self, pts: np.ndarray, cap2: float):
        """Fill rows 1.. of ``pts`` with the orbit of its row 0 by ``fejer_run``;
        (q, p) where row q + p repeats row q, else None.  An orbit past
        ``cap2``, or not finite, raises NonFiniteValueError."""
        n, d = pts.shape[0] - 1, pts.shape[1]
        head = self.program.head
        if not pts.flags.c_contiguous or pts.dtype != np.float64 or d != head[3]:
            raise ValueError("pts must be a C-ordered float64 array of the kernel's dimension")
        r = self.registers.copy()
        r[:d] = pts[0]
        found = np.zeros(2, dtype=np.int64)
        stop = library().fejer_run(
            *head, r.ctypes.data, pts.ctypes.data, n, cap2, found.ctypes.data
        )
        _stopped(stop, int(found[0]), "step")
        return (int(found[0]), int(found[1])) if stop == _STOPS["CYCLED"] else None


def kernel(lines: list, ys: list, d: int, params: list) -> Kernel:
    """The source ``lines`` with results ``ys``, lowered once, and ``params`` bound."""
    key = ("\n".join(lines), tuple(ys))
    program = _PROGRAMS.get(key)
    if program is None:
        program = _PROGRAMS[key] = _Lowering(d).program(*key)
    return Kernel(program, program.registers(params))


def _same_dim(pts: np.ndarray, shape: tuple) -> None:
    """Raise unless ``pts`` is an (n, d) array and ``shape`` is (d,)."""
    if pts.ndim != 2 or shape != pts.shape[1:]:
        raise DimensionMismatchError(
            f"points of shape {pts.shape} against vectors of shape {shape}"
        )


def reach2(points: np.ndarray, a: np.ndarray) -> float:
    """The largest squared distance of a row of ``points`` to ``a``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.float64)
    _same_dim(pts, a.shape)
    return library().fejer_reach2(pts.ctypes.data, *pts.shape, a.ctypes.data)


def fejer_pass(points: np.ndarray, witnesses: np.ndarray):
    """One sweep of ``check_fejer`` over the rows of ``points``: the drops of
    the squared distances to ``witnesses[0]``, and the first largest increase
    of a distance to a witness as (increase, step, witness index, distance
    before, distance after); step and index are -1 where no increase is
    above -inf."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    ws = np.ascontiguousarray(witnesses, dtype=np.float64)
    _same_dim(pts, ws.shape[1:])
    (n, d), w = pts.shape, ws.shape[0]
    if n < 2 or w < 1:
        raise ValueError("the pass needs two rows and a witness")
    drops, dist, worst = np.empty(n - 1), np.empty(w), np.empty(3)
    at = np.empty(2, dtype=np.int64)
    library().fejer_pass(
        pts.ctypes.data, n, d, ws.ctypes.data, w, dist.ctypes.data,
        drops.ctypes.data, worst.ctypes.data, at.ctypes.data,
    )
    return drops, float(worst[0]), int(at[0]), int(at[1]), float(worst[1]), float(worst[2])


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
