"""Expression algebra for nonexpansive maps with averagedness certificates.

Operator expressions are immutable trees.  Each node has one evaluator, its
``_emit``: straight-line float source for its value over the coordinates
``x0 .. x{d-1}``; a set kind's is its one projection formula, in
:mod:`fejerlab.geometry`.  A choice computes both arms and picks one with
``where``, so the source has no control flow and one arithmetic, plain IEEE
doubles, unfused, wherever it runs.  numpy runs it on float64 scalars and
columns (``apply``, ``value_at``, the verifiers), by the column function that
:class:`fejerlab.geometry.Emitted` compiles.  The orbit loop of
:func:`fejerlab.dynamics.iterate` runs it lowered with :mod:`ast` into the
instructions of one fixed C register machine, ``fejer_run`` of
:mod:`fejerlab.native`, so every orbit equals the ``apply`` orbit bit for
bit.  The lowering's last pass merges an arithmetic instruction and the
next one, where that one reads its result, into one PAIR row: the machine
runs the pair with one dispatch, with the same two roundings in the same
order (no FMA), and still stores the first result.  A zero divisor or the
square root of a negative gives inf or NaN in both, and an orbit step that
yields one makes ``iterate`` raise NonFiniteValueError there, as past its
norm cap; a list index out of range raises IndexError in both.  Parameter
values are bound per operator, so the operators of one tree shape and
dimension share one program and one compiled column source.  The machine is
part of fejerlab's one C library, which :mod:`fejerlab.native` builds at the
first ``iterate`` or export of a process, once; nothing is compiled at
import.

Inner products are plain left-to-right sums of rounded products.  At d = 1
that is numpy's arithmetic, bit for bit; at d >= 2 a result may differ from
numpy's in the last places, and in exchange it does not depend on the BLAS
kernel the machine picks.

Each node also computes its averagedness certificate at construction, from
its children's; :func:`certify` reads it.  The calculus is structural and
deliberately conservative: when no rule applies the certificate degrades to
nonexpansive or unknown rather than guessing, and every produced certificate
is expected to survive :func:`verify_averaged` empirically.
"""

from __future__ import annotations

import ast
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import native
from .errors import DimensionMismatchError, NonFiniteValueError
from .geometry import (
    AffineSubspace,
    Ball,
    ConvexSet,
    Emitted,
    KernelSource,
    Ray,
    _frozen_array,
    _frozen_matrix,
    as_vector,
    full_space,
)
from .report import DiagnosticsReport

__all__ = [
    "OperatorExpr",
    "Identity",
    "Negation",
    "Translation",
    "Linear",
    "AffineMap",
    "Projector",
    "Reflector",
    "ConvexCombination",
    "Composition",
    "DouglasRachford",
    "ScalarPiecewiseLinear",
    "AveragednessCertificate",
    "certify",
    "verify_nonexpansive",
    "verify_averaged",
    "fixed_set_description",
    "random_scalar_piecewise_linear",
]

_NONEXPANSIVE_SLACK = 1e-12


def _merge_dims(*dims):
    out = None
    for d in dims:
        if d is None:
            continue
        if out is None:
            out = d
        elif out != d:
            raise DimensionMismatchError(
                f"operator subtrees disagree on dimension: {out} vs {d}"
            )
    return out


def _square_matrix(matrix, kind: str) -> np.ndarray:
    """A read-only square float64 copy of ``matrix``."""
    # checked first: _frozen_matrix would read a vector as one row
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"{kind} expects a square matrix")
    return _frozen_matrix(matrix)


# ---------------------------------------------------------------------------
# Averagedness certificates
# ---------------------------------------------------------------------------

UNKNOWN = "unknown"
NONEXPANSIVE = "nonexpansive"
AVERAGED = "averaged"
FIRMLY_NONEXPANSIVE = "firmly_nonexpansive"


@dataclass(frozen=True)
class AveragednessCertificate:
    """Structural guarantee tracked for an operator expression.

    Firmly nonexpansive is identified with averaged at alpha = 1/2; the
    constructor normalizes accordingly.
    """

    kind: str
    alpha: float | None = None

    @classmethod
    def unknown(cls):
        return cls(UNKNOWN)

    @classmethod
    def nonexpansive(cls):
        return cls(NONEXPANSIVE)

    @classmethod
    def averaged(cls, alpha: float):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("averagedness constant must lie in (0, 1)")
        kind = FIRMLY_NONEXPANSIVE if alpha == 0.5 else AVERAGED
        return cls(kind, alpha)

    @property
    def is_nonexpansive(self) -> bool:
        return self.kind != UNKNOWN

    @property
    def is_averaged(self) -> bool:
        return self.kind in (AVERAGED, FIRMLY_NONEXPANSIVE)

    @property
    def is_firmly_nonexpansive(self) -> bool:
        return self.kind == FIRMLY_NONEXPANSIVE


_UNKNOWN_CERT = AveragednessCertificate.unknown()
_NONEXPANSIVE_CERT = AveragednessCertificate.nonexpansive()
_FIRM_CERT = AveragednessCertificate.averaged(0.5)


def _averaged(alpha: float) -> AveragednessCertificate:
    # a rule's constant can round to 0 or 1; nonexpansive still holds then
    if 0.0 < alpha < 1.0:
        return AveragednessCertificate.averaged(alpha)
    return _NONEXPANSIVE_CERT


def _linear_certificate(mat: np.ndarray) -> AveragednessCertificate:
    # the SVD gives the largest singular value to rounding; an iterative
    # estimate approaches it from below and would overclaim
    if np.linalg.norm(mat, 2) <= 1.0 + _NONEXPANSIVE_SLACK:
        return _NONEXPANSIVE_CERT
    return _UNKNOWN_CERT


_OPCODES, _STOPS = native.enum("op"), native.enum("stop")


class _Program(NamedTuple):
    """One float source, lowered to the instructions of ``fejer_run``."""

    code: np.ndarray  # int32, one row of six per instruction, pairs fused
    outputs: np.ndarray  # int32, the registers of the step's result
    size: int  # registers ahead of the lists' items
    constants: tuple  # (register, value)
    scalars: tuple  # (parameter index, register)
    lists: tuple  # (parameter index, register)

    def registers(self, params: list) -> np.ndarray:
        """The register file with one operator's parameter values bound."""
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
    """``fejer_run`` instructions of a float source: a register per name,
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
        return _Program(
            np.array(_fuse(self.code), dtype=np.int32).reshape(-1, 6),
            np.array([self.name(y) for y in ys], dtype=np.int32),
            self.size,
            tuple((reg, value) for value, reg in self.constants.values()),
            tuple(self.scalars),
            tuple(self.lists),
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


class _Kernel(NamedTuple):
    """A tree's orbit loop at one start dimension d."""

    program: _Program  # shared by the trees of one shape
    registers: np.ndarray  # the program's register file with this tree's parameters

    def run(self, pts: np.ndarray, cap2: float):
        """Fill rows 1.. of the float array ``pts`` with the orbit of its row 0.

        Returns (q, p) when row q + p repeats row q, and None if no state
        repeats.  An orbit past ``cap2``, or not finite, raises
        NonFiniteValueError.
        """
        n, d = pts.shape[0] - 1, pts.shape[1]
        program = self.program
        if not pts.flags.c_contiguous or pts.dtype != np.float64 or d != len(program.outputs):
            raise ValueError("pts must be a C-ordered float64 array of the kernel's dimension")
        r = self.registers.copy()
        r[:d] = pts[0]
        found = np.zeros(2, dtype=np.int64)
        stop = native.library().fejer_run(
            program.code.ctypes.data, len(program.code), program.outputs.ctypes.data,
            d, r.ctypes.data, pts.ctypes.data, n, cap2, found.ctypes.data,
        )
        i = int(found[0])
        if stop == _STOPS["LEFT_RANGE"]:
            raise NonFiniteValueError(f"orbit left the representable range at step {i}")
        if stop == _STOPS["RAISED"]:
            raise IndexError(f"list index out of range at step {i}")
        if stop == _STOPS["NO_MEMORY"]:
            raise MemoryError("no memory for the decoded orbit program")
        return (i, int(found[1])) if stop == _STOPS["CYCLED"] else None


def _compile(T: "OperatorExpr", d: int) -> _Kernel:
    src = KernelSource()
    ys = T._emit(src, [f"x{i}" for i in range(d)])
    key = ("\n".join(src.lines), tuple(ys))
    if key not in _PROGRAMS:
        _PROGRAMS[key] = _Lowering(d).program(*key)
    return _Kernel(_PROGRAMS[key], _PROGRAMS[key].registers(src.params))


class OperatorExpr(Emitted):
    """Base class for nonexpansive-map expression nodes."""

    @property
    def dim(self) -> int | None:
        """Ambient dimension, or None for dimension-free nodes."""
        return self._dim

    def apply(self, x) -> np.ndarray:
        """Evaluate the expression at ``x``."""
        return np.array(self._columns(*as_vector(x, self.dim)))

    def _kernel(self, d: int) -> _Kernel:
        """The orbit loop at start dimension ``d``, built on first use."""
        kernels = self.__dict__.setdefault("_kernels", {})
        if d not in kernels:
            kernels[d] = _compile(self, d)
        return kernels[d]

    def _install(self, dim, cert=_UNKNOWN_CERT) -> None:
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_cert", cert)

    # value semantics: equal type and equal fields, as for convex sets
    __eq__ = ConvexSet.__eq__
    __hash__ = None


@dataclass(frozen=True, eq=False)
class Identity(OperatorExpr):
    def __post_init__(self):
        self._install(None, _FIRM_CERT)

    def _emit(self, src, x):
        return x


@dataclass(frozen=True, eq=False)
class Negation(OperatorExpr):
    def __post_init__(self):
        self._install(None, _NONEXPANSIVE_CERT)

    def _emit(self, src, x):
        return src.lets("-{}", x)


@dataclass(frozen=True, eq=False)
class Translation(OperatorExpr):
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shift", _frozen_array(self.shift))
        self._install(self.shift.size, _NONEXPANSIVE_CERT)

    def _emit(self, src, x):
        return src.lets("{} + {}", x, src.vector(self.shift))


@dataclass(frozen=True, eq=False)
class Linear(OperatorExpr):
    matrix: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.matrix, "Linear")
        object.__setattr__(self, "matrix", m)
        self._install(m.shape[0], _linear_certificate(m))

    def _emit(self, src, x):
        return _emit_matvec(src, self.matrix, x)


@dataclass(frozen=True, eq=False)
class AffineMap(OperatorExpr):
    """x -> matrix @ x + shift."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.matrix, "AffineMap")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", _frozen_array(self.shift, m.shape[0]))
        self._install(m.shape[0], _linear_certificate(m))

    def _emit(self, src, x):
        mx = _emit_matvec(src, self.matrix, x)
        return src.lets("{} + {}", mx, src.vector(self.shift))


@dataclass(frozen=True, eq=False)
class Projector(OperatorExpr):
    target: ConvexSet

    def __post_init__(self):
        self._install(self.target.dim, _FIRM_CERT)

    def _emit(self, src, x):
        return self.target._emit(src, x)


@dataclass(frozen=True, eq=False)
class Reflector(OperatorExpr):
    target: ConvexSet

    def __post_init__(self):
        self._install(self.target.dim, _NONEXPANSIVE_CERT)

    def _emit(self, src, x):
        return _emit_reflection(src, self.target, x)


@dataclass(frozen=True, eq=False)
class ConvexCombination(OperatorExpr):
    """(1 - alpha) * left + alpha * right, alpha in (0, 1)."""

    alpha: float
    left: OperatorExpr
    right: OperatorExpr

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 < a < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        object.__setattr__(self, "alpha", a)
        dim = _merge_dims(self.left.dim, self.right.dim)
        cl, cr = self.left._cert, self.right._cert
        if isinstance(self.left, Identity) and cr.is_nonexpansive:
            cert = _averaged(a * (cr.alpha if cr.is_averaged else 1.0))
        elif isinstance(self.right, Identity) and cl.is_nonexpansive:
            cert = _averaged((1.0 - a) * (cl.alpha if cl.is_averaged else 1.0))
        elif cl.is_averaged and cr.is_averaged:
            cert = _averaged((1.0 - a) * cl.alpha + a * cr.alpha)
        elif cl.is_nonexpansive and cr.is_nonexpansive:
            cert = _NONEXPANSIVE_CERT
        else:
            cert = _UNKNOWN_CERT
        self._install(dim, cert)

    def _emit(self, src, x):
        left, right = self.left._emit(src, x), self.right._emit(src, x)
        b, a = src.param(1.0 - self.alpha), src.param(self.alpha)
        return src.lets(f"{b} * {{}} + {a} * {{}}", left, right)


@dataclass(frozen=True, eq=False)
class Composition(OperatorExpr):
    """x -> outer(inner(x))."""

    outer: OperatorExpr
    inner: OperatorExpr

    def __post_init__(self):
        dim = _merge_dims(self.outer.dim, self.inner.dim)
        co, ci = self.outer._cert, self.inner._cert
        if co.is_averaged and ci.is_averaged:
            a1, a2 = co.alpha, ci.alpha
            cert = _averaged((a1 + a2 - 2.0 * a1 * a2) / (1.0 - a1 * a2))
        elif co.is_nonexpansive and ci.is_nonexpansive:
            cert = _NONEXPANSIVE_CERT
        else:
            cert = _UNKNOWN_CERT
        self._install(dim, cert)

    def _emit(self, src, x):
        return self.outer._emit(src, self.inner._emit(src, x))


@dataclass(frozen=True, eq=False)
class DouglasRachford(OperatorExpr):
    """x -> (x + R_second(R_first(x))) / 2."""

    first: ConvexSet
    second: ConvexSet

    def __post_init__(self):
        self._install(_merge_dims(self.first.dim, self.second.dim), _FIRM_CERT)

    def _emit(self, src, x):
        r = _emit_reflection(src, self.second, _emit_reflection(src, self.first, x))
        return src.lets("0.5 * ({} + {})", x, r)


@dataclass(frozen=True, eq=False)
class ScalarPiecewiseLinear(OperatorExpr):
    """Continuous piecewise-linear map on the line with slopes in [-1, 1].

    ``slopes`` has one more entry than ``breakpoints``: slopes[0] applies left
    of the first breakpoint, slopes[i] between breakpoints i-1 and i, and the
    last entry beyond the final breakpoint.  ``anchor_value`` is the value at
    the first breakpoint.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    anchor_value: float = 0.0

    def __post_init__(self):
        xs, sl = _frozen_array(self.breakpoints), _frozen_array(self.slopes)
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if sl.size != xs.size + 1:
            raise ValueError("need exactly len(breakpoints) + 1 slopes")
        if np.max(np.abs(sl)) > 1.0:
            raise ValueError("slopes must lie in [-1, 1]")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "anchor_value", float(self.anchor_value))
        self._install(1, _NONEXPANSIVE_CERT)

    def _emit(self, src, x):
        (t,) = x
        xs, sl, a = self.breakpoints, self.slopes, self.anchor_value
        ys = np.concatenate([[a], a + np.cumsum(sl[1:-1] * np.diff(xs))])
        xs, sl, ys = (src.param(v) for v in (xs, sl, ys))
        j = src.let(f"bisect_right({xs}, {t})")  # slopes[j] applies at t
        # the breakpoint left of t, or the first one
        k = src.let(src.select(f"{j} > 0", f"{j} - 1", "0"))
        return [src.let(f"{ys}[{k}] + {sl}[{j}] * ({t} - {xs}[{k}])")]

    def value_at(self, t: float) -> float:
        return float(self._columns(np.float64(t))[0])


def _emit_matvec(src: KernelSource, matrix: np.ndarray, x: list[str]) -> list[str]:
    return [src.dot(src.vector(row), x) for row in matrix]


def _emit_reflection(src: KernelSource, C: ConvexSet, x: list[str]) -> list[str]:
    return src.lets("2.0 * {} - {}", C._emit(src, x), x)


def certify(T: OperatorExpr) -> AveragednessCertificate:
    """The certificate ``T`` computed at construction from its children's."""
    return T._cert


# ---------------------------------------------------------------------------
# Empirical verifiers
# ---------------------------------------------------------------------------


def _resolve_dim(T: OperatorExpr, dim: int | None) -> int:
    """``dim``, or the operator's own dimension when ``dim`` is None; a
    ``dim`` other than the operator's own is an error."""
    if dim is None:
        if T.dim is None:
            raise ValueError("operator is dimension-free; pass dim= explicitly")
        return T.dim
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    if T.dim not in (None, dim):
        raise ValueError(f"dim is {dim}, but the operator has dimension {T.dim}")
    return int(dim)


def _verify_pairs(checker, T, violation, params, trials, seed, tol, dim, box):
    """Worst ``violation(x, y, Tx, Ty)`` over seeded random pairs, as a report."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = _resolve_dim(T, dim)
    # x and then y of each trial, in one draw
    xy = np.random.default_rng(seed).uniform(-box, box, (trials, 2, d))
    x, y = xy[:, 0], xy[:, 1]
    tx, ty = T._rows(x), T._rows(y)
    worst, witness = -np.inf, None
    for i in range(trials):
        viol = float(violation(x[i], y[i], tx[i], ty[i]))
        if viol > worst:
            worst, witness = viol, {"trial": i, "x": x[i], "y": y[i], "violation": viol}
    return DiagnosticsReport.from_witness(
        checker,
        None if worst <= tol else witness,
        params={**params, "trials": trials, "tol": tol, "dim": d, "box": box},
        seed=seed,
        metadata={"worst_violation": worst},
    )


def verify_nonexpansive(
    T: OperatorExpr,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    dim: int | None = None,
    box: float = 10.0,
) -> DiagnosticsReport:
    """Sample random pairs and test ||Tx - Ty|| <= ||x - y|| + tol."""

    def violation(x, y, tx, ty):
        return np.linalg.norm(tx - ty) - np.linalg.norm(x - y)

    return _verify_pairs(
        "verify_nonexpansive", T, violation, {}, trials, seed, tol, dim, box
    )


def verify_averaged(
    T: OperatorExpr,
    alpha: float,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    dim: int | None = None,
    box: float = 10.0,
) -> DiagnosticsReport:
    """Test the averagedness inequality

    ||Tx - Ty||^2 + (1-a)/a ||(Id-T)x - (Id-T)y||^2 <= ||x - y||^2 + tol

    on random pairs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    coef = (1.0 - alpha) / alpha

    def violation(x, y, tx, ty):
        lhs = np.sum((tx - ty) ** 2) + coef * np.sum(((x - tx) - (y - ty)) ** 2)
        return lhs - np.sum((x - y) ** 2)

    return _verify_pairs(
        "verify_averaged", T, violation, {"alpha": alpha}, trials, seed, tol, dim, box
    )


# ---------------------------------------------------------------------------
# Generalized fixed sets
# ---------------------------------------------------------------------------


def two_ball_gap_vector(A: Ball, B: Ball) -> np.ndarray:
    """Minimal-norm translation v with A and B + v intersecting.

    Zero when the balls already meet; otherwise the vector of norm
    ||cA - cB|| - rA - rB along the line of centers, pulling B toward A.
    """
    d = A.center - B.center
    dist = float(np.linalg.norm(d))
    gap = dist - A.radius - B.radius
    if gap <= 0.0 or dist == 0.0:
        return np.zeros(A.dim)
    return d * (gap / dist)


def fixed_point_system(L: np.ndarray) -> tuple[np.ndarray, float]:
    """I - L, and the relative cutoff below which its singular values are zero.

    Forming I - L rounds by about eps * (1 + ||L||), however small I - L is,
    so singular values up to d * eps * (1 + ||L||_2) count as zero.  The
    default cutoffs of lstsq and null_space scale with ||I - L|| instead and
    drop a true fixed direction when ||I - L|| is small.
    """
    M = np.eye(L.shape[0]) - L
    cutoff = max(M.shape) * np.finfo(float).eps * (1.0 + np.linalg.norm(L, 2))
    top = np.linalg.norm(M, 2)
    return M, cutoff / top if top > cutoff else 1.0


def fixed_set_description(T: OperatorExpr, v) -> ConvexSet | None:
    """Closed form for Fix(v + T) = {x : x = v + Tx} where one is known.

    Returns None when no rule applies or the data is inconsistent.
    """
    v = as_vector(v, T.dim)
    vnorm = float(np.linalg.norm(v))
    if isinstance(T, Projector) and vnorm <= 1e-12:
        return T.target
    if (
        isinstance(T, ConvexCombination)
        and isinstance(T.left, Identity)
        and isinstance(T.right, (Reflector, Projector))
        and vnorm <= 1e-12
    ):
        return T.right.target
    if isinstance(T, Translation):
        if float(np.linalg.norm(v + T.shift)) <= 1e-12:
            return full_space(T.dim)
        return None
    if isinstance(T, (Linear, AffineMap)):
        L = T.matrix
        b = T.shift if isinstance(T, AffineMap) else np.zeros(L.shape[0])
        M, rcond = fixed_point_system(L)
        rhs = b + v
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=rcond)
        residual = float(np.linalg.norm(M @ sol - rhs))
        if residual > 1e-8 * (1.0 + float(np.linalg.norm(rhs))):
            return None
        from scipy.linalg import null_space

        null = null_space(M, rcond=rcond)
        return AffineSubspace(sol, null.T)
    if (
        isinstance(T, DouglasRachford)
        and isinstance(T.first, Ball)
        and isinstance(T.second, Ball)
    ):
        A, B = T.first, T.second
        g = two_ball_gap_vector(A, B)
        if float(np.linalg.norm(v - g)) > 1e-6 * (1.0 + float(np.linalg.norm(g))):
            return None
        d = A.center - B.center
        dist = float(np.linalg.norm(d))
        if dist < A.radius + B.radius - 1e-12 or dist == 0.0:
            # overlapping balls: the fixed set is a lens, no variant fits
            return None
        u_hat = d / dist
        tangency = A.center - A.radius * u_hat
        return Ray(tangency, -u_hat)
    return None


# ---------------------------------------------------------------------------
# Random test family
# ---------------------------------------------------------------------------


def random_scalar_piecewise_linear(
    rng: np.random.Generator,
    max_breakpoints: int = 6,
    span: float = 12.0,
    slope_levels: int = 20,
    anchor_span: float = 4.0,
    max_tail_drift: float = 1.0,
) -> ScalarPiecewiseLinear:
    """Random nonexpansive scalar map for iteration experiments.

    Slopes are drawn from the grid {k/slope_levels : |k| <= slope_levels}, so
    contraction factors are either exactly 1 or bounded away from 1; this
    keeps orbit convergence rates observable at desk scale.  Slope-one tail
    pieces whose drift exceeds ``max_tail_drift`` are flattened to the next
    grid slope: unbounded orbits then grow at most linearly with unit rate,
    so 1e5-step runs stay within the range where 1e-9 tail diagnostics are
    resolvable in float64.
    """
    k = int(rng.integers(1, max_breakpoints + 1))
    xs = np.unique(rng.uniform(-span, span, k))
    slopes = rng.integers(-slope_levels, slope_levels + 1, xs.size + 1) / slope_levels
    anchor = float(rng.uniform(-anchor_span, anchor_span))
    ys = np.concatenate(
        [[anchor], anchor + np.cumsum(slopes[1:-1] * np.diff(xs))]
    )
    capped_slope = (slope_levels - 1) / slope_levels
    if slopes[0] == 1.0 and abs(ys[0] - xs[0]) > max_tail_drift:
        slopes[0] = capped_slope
    if slopes[-1] == 1.0 and abs(ys[-1] - xs[-1]) > max_tail_drift:
        slopes[-1] = capped_slope
    return ScalarPiecewiseLinear(xs, slopes, anchor)
