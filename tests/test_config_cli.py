import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fejerlab import exports, native
from fejerlab.cli import main
from fejerlab.config import (
    OPERATOR_KINDS,
    SET_KINDS,
    dump_scenario,
    load_scenario,
    operator_from_config,
    operator_to_config,
    parse_scenario,
    serialize_scenario,
    set_from_config,
    set_to_config,
)
from fejerlab.dynamics import Trajectory, iterate
from fejerlab.errors import ConfigError
from fejerlab.exports import (
    export_report,
    export_trajectory,
    load_trajectory_csv,
    report_to_dict,
)
from fejerlab.geometry import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LinearSubspace,
    MinkowskiSum,
    Orthant,
    Point,
    Ray,
)
from fejerlab.operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
)
from fejerlab.report import DiagnosticsReport
from fejerlab.scenarios import (
    CHECK_KINDS,
    TRAJECTORY_KINDS,
    get_scenario,
    list_scenarios,
    run_scenario,
)


POINTS_MESSAGE = r"trajectories.t.points: expected a nonempty finite \(n, d\) array"

CONFIG_TEXT = """
name: custom-reflection
description: under-relaxed reflection through a slanted line
topic: codimension-1 convergence
n_steps: 2000
seed: 3
tol: 1.0e-9
tail_window: 400
sets:
  line: {kind: hyperplane, normal: [2.0, 1.0], offset: 1.0}
operators:
  T:
    kind: convex_combination
    alpha: 0.3
    left: {kind: identity}
    right: {kind: reflector, set: line}
trajectories:
  - {name: orbit, kind: raw, operator: T, start: [4.0, -1.0]}
checks:
  - {name: fejer, kind: fejer, trajectory: orbit, expect: pass, params: {set: line}}
  - {name: limit, kind: limit, trajectory: orbit, expect: converged}
"""


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------


SET_CASES = [
    Point([1.0, 2.0]),
    Ball([0.0, -1.0], 2.5),
    Halfspace([1.0, 1.0], 0.5),
    Hyperplane([1.0, 0.0], 0.0),
    AffineSubspace([1.0, 0.0, 0.0], [[0.0, 0.6, 0.8]]),
    LinearSubspace([[0.0, 1.0, 0.0]]),
    pytest.param(LinearSubspace(np.zeros((0, 3)), ambient_dim=3), id="LinearSubspace-empty"),
    Box([-1.0, 0.0], [1.0, 0.0]),
    Ray([0.0, 0.0], [0.6, 0.8]),
    Orthant([1.0, -1.0]),
    MinkowskiSum(Point([0.0, 0.0]), Ray([0.0, 0.0], [1.0, 0.0])),
]

OPERATOR_CASES = [
    Identity(),
    Negation(),
    Translation([1.0, -2.0]),
    Linear([[0.0, -1.0], [1.0, 0.0]]),
    AffineMap([[0.5, 0.0], [0.0, 0.25]], [1.0, 2.0]),
    Projector(Box([0.0], [1.0])),
    Reflector(Halfspace([1.0, -1.0], 2.0)),
    ConvexCombination(0.25, Identity(), Reflector(Ball([0.0], 1.0))),
    Composition(Projector(Ball([0.0, 0.0], 1.0)), Reflector(Hyperplane([0.0, 1.0], 1.0))),
    DouglasRachford(Ball([0.0] * 3, 1.0), Ball([5.0, 0.0, 0.0], 1.0)),
    ScalarPiecewiseLinear([0.0, 1.0], [0.5, -0.5, 1.0], 0.25),
]


def _kinds(cases):
    return {type(getattr(c, "values", [c])[0]) for c in cases}


def test_every_kind_has_a_round_trip_case():
    assert _kinds(SET_CASES) == set(SET_KINDS.values())
    assert _kinds(OPERATOR_CASES) == set(OPERATOR_KINDS.values())


def _through_yaml(d: dict) -> dict:
    return yaml.safe_load(yaml.safe_dump(d, sort_keys=False))


@pytest.mark.parametrize("s", SET_CASES, ids=lambda s: type(s).__name__)
def test_set_config_round_trip(s):
    assert set_from_config(_through_yaml(set_to_config(s))) == s


@pytest.mark.parametrize("op", OPERATOR_CASES, ids=lambda o: type(o).__name__)
def test_operator_config_round_trip(op):
    assert operator_from_config(_through_yaml(operator_to_config(op)), {}) == op


def test_optional_fields_take_the_signature_default():
    sub = set_from_config({"kind": "linear_subspace", "basis": [[1.0, 0.0]]})
    assert sub == LinearSubspace([[1.0, 0.0]], ambient_dim=2)
    f = operator_from_config(
        {"kind": "scalar_piecewise_linear", "breakpoints": [0.0], "slopes": [0.5, 0.5]},
        {},
    )
    assert f.anchor_value == 0.0


def test_scenario_yaml_round_trip(tmp_path):
    spec = parse_scenario(yaml.safe_load(CONFIG_TEXT))
    path = tmp_path / "scenario.yaml"
    dump_scenario(spec, path)
    reparsed = load_scenario(path)
    assert reparsed == spec
    assert serialize_scenario(reparsed) == serialize_scenario(spec)


def test_builtin_specs_serialize_and_round_trip():
    names = [name for name, _, _ in list_scenarios()]
    assert len(names) == 13
    for name in names:
        spec = get_scenario(name)
        again = parse_scenario(serialize_scenario(spec))
        assert again == spec


def test_builtin_dumps_parse_alike_under_both_yaml_loaders(tmp_path):
    # load_scenario parses with libyaml where PyYAML has it; the pure-Python
    # loader shares its constructor and resolver, so each gives the same data,
    # YAML 1.1 scalars such as 1e-9 (a string), .nan and 0x1F included
    loaders = (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    scalars = "[1e-9, 1.0e-9, .nan, -.inf, 0x1F, 0o17, 1_000, yes, off, ~, 2001-12-14]"
    for name in [name for name, _, _ in list_scenarios()] + [None]:
        text = scalars if name is None else dump_scenario(get_scenario(name))
        python, libyaml = (yaml.load(text, Loader=loader) for loader in loaders)
        assert repr(python) == repr(libyaml), name
        if name is not None:
            path = tmp_path / f"{name}.yaml"
            path.write_text(text, encoding="utf-8")
            assert load_scenario(path) == parse_scenario(python) == get_scenario(name)


def test_config_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="sets.bad: missing field 'radius'"):
        parse_scenario(
            {"name": "x", "sets": {"bad": {"kind": "ball", "center": [0, 0]}}}
        )
    with pytest.raises(ConfigError, match="unknown set kind"):
        set_from_config({"kind": "blob"}, "sets.blob")
    with pytest.raises(ConfigError, match="operators.T.set: unknown set reference"):
        parse_scenario(
            {
                "name": "x",
                "operators": {"T": {"kind": "projector", "set": "missing"}},
            }
        )
    with pytest.raises(ConfigError, match="unknown operator kind"):
        operator_from_config({"kind": "teleport"}, {})
    with pytest.raises(ConfigError, match="unknown trajectory kind"):
        parse_scenario(
            {
                "name": "x",
                "trajectories": [{"name": "t", "kind": "warp"}],
            }
        )
    with pytest.raises(ConfigError, match="sets.b: unknown field 'radus'"):
        parse_scenario(
            {"name": "x", "sets": {"b": {"kind": "ball", "center": [0], "radus": 1}}}
        )
    with pytest.raises(ConfigError, match="scenario: unknown field 'n_step'"):
        parse_scenario({"name": "x", "n_step": 10})
    with pytest.raises(ConfigError, match="trajectories.t: unknown field 'strat'"):
        traj = {"name": "t", "kind": "harmonic_rotation", "strat": [0]}
        parse_scenario({"name": "x", "trajectories": [traj]})
    for key, value, message in [
        ("n_steps", "abc", "scenario.n_steps: expected an integer, got 'abc'"),
        ("tail_window", [3], "scenario.tail_window: expected an integer, got [3]"),
        ("n_steps", 0, "scenario.n_steps: must be at least 1, got 0"),
        ("n_steps", 12.7, "scenario.n_steps: expected an integer, got 12.7"),
        ("n_steps", True, "scenario.n_steps: expected an integer, got True"),
        ("seed", -1, "scenario.seed: must be at least 0, got -1"),
        ("tail_window", 1, "scenario.tail_window: must be at least 2, got 1"),
        ("tol", float("nan"), "scenario.tol: must be at least 0.0, got nan"),
        ("tol", "abc", "scenario.tol: expected a number, got 'abc'"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_scenario({"name": "x", key: value})
    # YAML reads 1e-9 (no dot) as a string; it stays a valid tol
    assert parse_scenario({"name": "x", "tol": "1e-9"}).tol == 1e-9
    # a trajectory's own n_steps follows the same rule, under its own path
    for value, message in [
        ("abc", "trajectories.t.n_steps: expected an integer, got 'abc'"),
        (0, "trajectories.t.n_steps: must be at least 1, got 0"),
        (12.7, "trajectories.t.n_steps: expected an integer, got 12.7"),
        (True, "trajectories.t.n_steps: expected an integer, got True"),
    ]:
        traj = {"name": "t", "kind": "harmonic_rotation", "n_steps": value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_scenario({"name": "x", "trajectories": [traj]})
    traj = {"name": "t", "kind": "harmonic_rotation", "n_steps": "40"}
    assert parse_scenario({"name": "x", "trajectories": [traj]}).trajectories[0].n_steps == 40

    # Douglas-Rachford on a half-space and a ball: no closed-form drift
    dr_mixed = {
        "kind": "douglas_rachford",
        "first": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0},
        "second": {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0},
    }

    def with_check(check):
        data = yaml.safe_load(CONFIG_TEXT)
        data["operators"]["D"] = dr_mixed
        data["checks"] = [{"name": "c", "trajectory": "orbit", **check}]
        return data

    for check, message in [
        ({"kind": "fejr"}, "checks.c: unknown check kind 'fejr'"),
        ({"kind": "fejer"}, "checks.c.params: missing parameter 'set'"),
        (
            {"kind": "fejer", "params": {"set": "nope"}},
            "checks.c.params.set: unknown set reference 'nope'",
        ),
        (
            {"kind": "limit", "params": {"tolerance": 1e-3}},
            "checks.c.params: unknown parameter 'tolerance'",
        ),
        (
            {"kind": "nonexpansive", "params": {"operator": "S"}},
            "checks.c.params.operator: unknown operator reference 'S'",
        ),
        (
            {"kind": "scalar_averaged_sweep", "params": {"instance": 3}},
            "checks.c.params: unknown parameter 'instance'",
        ),
        ({"kind": "fejer", "params": 3}, "checks.c.params: expected a mapping"),
        ({"kind": "fejer", "params": {"set": None}}, "missing parameter 'set'"),
        ({"kind": "fejer", "params": {"set": [1]}}, "unknown set reference"),
        ({"kind": "check", "expect": "pass"}, "unknown check kind"),
        (
            {"kind": "displacement_match", "params": {"operator": "D"}},
            "checks.c.params.operator: needs a Douglas-Rachford operator on two balls",
        ),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_scenario(with_check(check))
    data = with_check({"kind": "fejer", "params": {"set": "line"}})
    del data["checks"][0]["trajectory"]
    with pytest.raises(ConfigError, match="checks.c: missing field 'trajectory'"):
        parse_scenario(data)

    def with_trajectory(trajectory):
        data = yaml.safe_load(CONFIG_TEXT)
        data["operators"]["S"] = {"kind": "translation", "shift": [1.0, 0.0]}
        data["operators"]["D"] = dr_mixed
        data["operators"]["L"] = {"kind": "linear", "matrix": [[0.5]]}
        data["trajectories"].append({"name": "t", **trajectory})
        return data

    for trajectory, message in [
        ({"kind": "raw", "start": [0, 0]}, "trajectories.t: missing field 'operator'"),
        ({"kind": "raw", "operator": "T"}, "trajectories.t: missing field 'start'"),
        (
            {"kind": "difference", "operator": "T", "start": [0, 0]},
            "trajectories.t: missing field 'partner'",
        ),
        ({"kind": "shadow", "set": "line"}, "trajectories.t: missing field 'base'"),
        ({"kind": "shadow", "base": "orbit"}, "trajectories.t: missing field 'set'"),
        ({"kind": "points"}, "trajectories.t: missing field 'points'"),
        ({"kind": "normalized", "base": "orbit"}, "trajectories.t: missing field 'shift'"),
        (
            {"kind": "normalized", "operator": "T", "shift": [0, 0]},
            "trajectories.t: missing field 'start'",
        ),
        (
            {"kind": "normalized", "base": "orbit", "shift": "two_ball"},
            "trajectories.t: missing field 'operator'",
        ),
        (
            {"kind": "normalized", "base": "orbit", "shift": "estimate"},
            "trajectories.t: missing field 'operator'",
        ),
        (
            {"kind": "normalized", "operator": "S", "base": "orbit", "shift": "estimate"},
            "trajectories.t: shift 'estimate' needs an operator certified averaged",
        ),
        (
            {"kind": "normalized", "operator": "D", "base": "orbit", "shift": "two_ball"},
            "trajectories.t: shift 'two_ball' needs a Douglas-Rachford operator on two balls",
        ),
        (
            {"kind": "raw", "operator": "L", "start": [1.0, 2.0]},
            "trajectories.t.start: expected dimension 1, got 2",
        ),
        (
            {"kind": "difference", "operator": "T", "start": [0, 0], "partner": [1.0]},
            "trajectories.t.partner: expected dimension 2, got 1",
        ),
        # NaN entries, ragged rows, a 1-D list, no points at all
        *(
            ({"kind": "points", "points": points}, POINTS_MESSAGE)
            for points in (
                [[1.0, 0.0], [float("nan"), 0.0], [0.5, 0.0]],
                [[1.0, 0.0], [0.5]],
                [1.0, 0.5],
                [],
            )
        ),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_scenario(with_trajectory(trajectory))


def test_operator_config_resolves_named_sets():
    line = Hyperplane([1.0, 0.0], 0.0)
    op = operator_from_config(
        {"kind": "reflector", "set": "line"}, {"line": line}
    )
    assert op.target is line


def test_custom_config_runs(tmp_path):
    path = tmp_path / "custom.yaml"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    spec = load_scenario(path)
    artifacts = run_scenario(spec)
    assert artifacts.all_matched


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_trajectory_csv_schema_and_round_trip(tmp_path):
    pts = np.array([[0.1, 0.2], [1.0 / 3.0, -2.0 / 7.0], [1e-17, 12345.678]])
    traj = Trajectory(pts)
    path = tmp_path / "traj.csv"
    export_trajectory(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,x1,x2"
    assert len(lines) == 4
    back = load_trajectory_csv(path)
    assert np.array_equal(back, pts)  # bit-exact round trip


def test_format_float_round_trip(tmp_path):
    # the CSV writer's 17 significant digits reproduce every float bit for bit
    many = np.random.default_rng(9).uniform(-1e6, 1e6, 200).reshape(100, 2)
    back = load_trajectory_csv(export_trajectory(Trajectory(many), tmp_path / "many.csv"))
    assert np.array_equal(back, many)


# -0.0, the smallest subnormal, the largest float, and values whose shortest
# decimal has fewer than 17 digits
CSV_EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, 2.0, 1e16]


def _per_float_csv(pts) -> bytes:
    """Reference writer: one format(v, ".17g") call per float."""
    header = "n," + ",".join(f"x{i}" for i in range(1, pts.shape[1] + 1))
    rows = [f"{n}," + ",".join(format(float(v), ".17g") for v in row) for n, row in enumerate(pts)]
    return ("\n".join([header, *rows]) + "\n").encode("ascii")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trajectory_csv_bytes_match_per_float_writer(tmp_path, d):
    rng = np.random.default_rng(d)
    scaled = rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, 20)
    values = np.concatenate([CSV_EDGE_VALUES, np.negative(CSV_EDGE_VALUES), scaled])
    pts = np.resize(values, (values.size, d))  # every value in every column
    path = export_trajectory(Trajectory(pts), tmp_path / "t.csv")
    assert path.read_bytes() == _per_float_csv(pts)
    back = load_trajectory_csv(path)
    assert np.array_equal(back, pts)
    assert np.array_equal(np.signbit(back), np.signbit(pts))  # -0.0 survives


def test_trajectory_csv_header_r3(tmp_path):
    traj = Trajectory(np.zeros((2, 3)))
    path = export_trajectory(traj, tmp_path / "t.csv")
    assert path.read_text().splitlines()[0] == "n,x1,x2,x3"


def _csv_matches_reference(path, pts) -> bool:
    return export_trajectory(Trajectory(pts), path).read_bytes() == _per_float_csv(pts)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_trajectory_csv_bytes_match_per_float_writer_on_any_floats(tmp_path_factory, data):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.floats(), min_size=n * d, max_size=n * d))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert _csv_matches_reference(path, np.array(values).reshape(n, d))


def _powers_of_ten_and_neighbours() -> np.ndarray:
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    return np.concatenate([near, -near])


def _exact_ties() -> np.ndarray:
    """Floats whose exact decimal has 18 significant digits, the last a 5."""
    rng = np.random.default_rng(5)
    ties = []
    for j in range(2, 26):  # c / 2**j has the digits of c * 5**j
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        for c in rng.integers(lo, hi, 8) | 1:
            digits = str(int(c) * 5**j)
            assert len(digits) == 18 and digits[-1] == "5"
            ties.append(int(c) / 2**j)
    return np.array(ties)


def test_trajectory_csv_bytes_at_powers_of_ten_and_exact_ties(tmp_path):
    # 1e-16 reads 9.9999999999999998e-17: the exponent is taken from the
    # floor of the scaled value, not from its rounding
    values = _powers_of_ten_and_neighbours()
    assert _csv_matches_reference(tmp_path / "tens.csv", values.reshape(-1, 1))
    ties = _exact_ties()
    # halves go to the even digit, so ties round both down and up
    ups = set()
    for v in ties:
        q = Fraction(v)  # c / 2**j, whose decimal digits are those of c * 5**j
        truncated = int(str(q.numerator * 5 ** (q.denominator.bit_length() - 1))[:17])
        ups.add(int(format(v, ".16e").split("e")[0].replace(".", "")) - truncated)
    assert ups == {0, 1}
    for d in (1, 2, 3):
        pts = np.resize(np.concatenate([ties, -ties]), (len(ties), d))
        assert _csv_matches_reference(tmp_path / f"ties{d}.csv", pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trajectory_csv_bytes_of_non_finite_values_and_zeros(tmp_path, d):
    # the writer has its own branches for these, outside the digit arithmetic
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5])
    assert np.signbit(special[1]) and not np.signbit(special[0])
    # every value in every column, next to every other
    pts = np.array([np.roll(special, shift)[:d] for shift in range(len(special))])
    assert _csv_matches_reference(tmp_path / "t.csv", pts)


@pytest.mark.parametrize("n", [exports.BLOCK - 1, exports.BLOCK + 1, 65535, 65536, 65537])
def test_trajectory_csv_bytes_across_block_boundaries(tmp_path, n):
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-6, 18, (n, 2))
    assert _csv_matches_reference(tmp_path / "t.csv", pts)


def test_trajectory_csv_index_widths(tmp_path):
    # the index grows a digit at 10, 100, ..., 100000
    pts = np.random.default_rng(2).standard_normal((100_001, 1))
    assert _csv_matches_reference(tmp_path / "t.csv", pts)


def _reference_rows(pts, start) -> bytes:
    """Reference CSV rows of ``native.csv_rows``, numbered from ``start``."""
    return "".join(
        f"{start + i}," + ",".join(format(float(v), ".17g") for v in row) + "\n"
        for i, row in enumerate(pts)
    ).encode("ascii")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("start", [-3, 0, 8, 9, 98, 99, 8190, 8191, 8192, 10**15, 2**63 - 3])
def test_csv_rows_number_from_any_start(d, start):
    # 3 rows from each start cross 9 -> 10, 99 -> 100 and 8191 -> 8192 -> 8193
    pts = np.random.default_rng(d).standard_normal((3, d))
    assert native.csv_rows(pts, start).tobytes() == _reference_rows(pts, start)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_csv_rows_of_repeated_rows(d):
    # a row equal bit for bit to the row before it reuses that row's text;
    # -0.0 and 0.0, or NaNs of other bits, are equal as numbers but not as bits
    other_nan = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
    values = [0.0, 0.0, -0.0, -0.0, 0.0, 1.5, 1.5, 1.5, 0.1, 1.5, 1.5, np.nan, np.nan,
              -np.nan, other_nan, other_nan, np.nan, 1e300, 1e300, -1e-300, -1e-300]
    pts = np.repeat(np.array(values)[:, None], d, axis=1)
    last = pts.copy()
    last[1::2, -1] *= -1.0  # rows that differ in one column only
    for case in (pts, last, np.concatenate([pts, pts[::-1]])):
        assert native.csv_rows(case, 7).tobytes() == _reference_rows(case, 7)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trajectory_csv_bytes_of_a_run_of_equal_rows_across_a_block(tmp_path, d):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((exports.BLOCK + 6, d))
    pts[exports.BLOCK - 3 : exports.BLOCK + 3] = pts[exports.BLOCK - 4]  # a run over the boundary
    pts[-2:] = -0.0
    pts[-1, 0] = 0.0
    assert _csv_matches_reference(tmp_path / "t.csv", pts)
    fixed = np.tile(rng.standard_normal(d), (2 * exports.BLOCK + 1, 1))  # a fixed point, padded
    assert _csv_matches_reference(tmp_path / "fixed.csv", fixed)


def test_trajectory_csv_of_a_cycled_orbit_is_read_from_its_computed_rows(tmp_path):
    # the orbit holds the four rows its kernel computed (q = 1, p = 2); the
    # export reads blocks of them and writes the bytes of the padded orbit
    n = 10**6
    traj = iterate(Negation(), [1.0], n)
    padded = Trajectory(np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)[:, None])
    export_trajectory(traj, tmp_path / "cycled.csv")
    export_trajectory(padded, tmp_path / "padded.csv")
    assert (tmp_path / "cycled.csv").read_bytes() == (tmp_path / "padded.csv").read_bytes()
    assert traj._rows.shape[0] == 4 and traj._points is None


def test_exports_into_a_missing_directory_name_the_file(tmp_path):
    missing = tmp_path / "missing"
    with pytest.raises(OSError, match="cannot write .*t.csv"):
        export_trajectory(Trajectory(np.zeros((3, 2))), missing / "t.csv")
    for per_step in (None, np.array([0.5, 0.25])):
        rep = DiagnosticsReport("check_fejer", "pass", per_step=per_step)
        with pytest.raises(OSError, match="cannot write .*rep.json"):
            export_report(rep, missing / "rep.json")
    assert not missing.exists()


def _shortest_digit_cases() -> np.ndarray:
    """Values inside the range of the C digits of report floats, 0 and
    1e-16 <= |v| < 1e17, where the shortest digits are easy to get wrong."""
    rng = np.random.default_rng(4)
    twos = np.ldexp(1.0, np.arange(-53, 57))  # the lower gap is half the upper
    tens = np.array([float(f"1e{k}") for k in range(-16, 17)])
    # the doubles below their power of ten: the shortest digits carry from 99...9
    below = np.array([1e-16, 1e-14, 1e-12, 1e-11, 1e-7, 1e-6])
    ints = np.concatenate([np.arange(1, 2000), rng.integers(1, 2**53, 2000), 2**53 - np.arange(20)])
    decimals = [
        float(f"{rng.integers(10 ** (p - 1), 10**p)}e{rng.integers(-15 - p, 18 - p)}")
        for p in range(1, 18) for _ in range(300)
    ]
    # r / 2**17 near 1 is often a tie between its two nearest 16-digit decimals
    ties = np.arange(1, 2**17, 7) / 2**17
    values = np.concatenate([
        twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
        tens, np.nextafter(tens[1:], 0.0), np.nextafter(tens, np.inf),  # not below 1e-16
        below, [np.nextafter(1e17, 0.0), 0.0], ints.astype(float), decimals, ties,
    ])
    values = np.concatenate([values, -values])
    assert native.reprs(values, b",") is not None  # every value takes the C digits
    return values


def _report_zoo():
    rng = np.random.default_rng(3)
    long = rng.standard_normal(200_000) * 10.0 ** rng.integers(-30, 30, 200_000)
    long[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 1e16]
    shortest = _shortest_digit_cases()
    nested = {
        "arrays": {"m": np.arange(6.0).reshape(2, 3), "ints": np.arange(3)},
        "flags": [True, False, np.bool_(True)],
        "counts": (np.int64(7), 3),
        "per_step": [1.0],  # a nested key of the same name
        "text": 'quote " and newline\n  "per_step": null',
    }
    return [
        DiagnosticsReport("check_fejer", "pass", per_step=None),
        DiagnosticsReport("check_fejer", "pass", per_step=np.array([])),
        DiagnosticsReport("check_fejer", "pass", per_step=np.array([0.1])),
        DiagnosticsReport("check_fejer", "pass", params={"tol": 1e-9}, seed=4, per_step=long),
        DiagnosticsReport("check_fejer", "pass", per_step=shortest),
        DiagnosticsReport("asymptotic_regularity", "pass", per_step=np.arange(5)),
        DiagnosticsReport("check_fejer", "pass", per_step=long[:7], metadata=nested),
        DiagnosticsReport(
            "check_fejer", "fail", witness={"step": 3, "point": np.array([1.0, -0.0])},
            per_step=long[:3],
        ),
        DiagnosticsReport("check_shadow_superset", "inconclusive", witness={"reason": "unmet"}),
    ]


def _report_matches_json_dumps(rep, path) -> bool:
    expected = json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"
    return export_report(rep, path).read_bytes() == expected.encode("ascii")


def test_report_json_bytes_match_json_dumps(tmp_path):
    for i, rep in enumerate(_report_zoo()):
        assert _report_matches_json_dumps(rep, tmp_path / f"r{i}.json"), i


_IN_RANGE = st.floats(1e-16, 1e17, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
    | st.lists(_IN_RANGE | st.just(0.0), min_size=1, max_size=40)
)
def test_report_json_bytes_match_json_dumps_on_any_finite_floats(tmp_path_factory, values):
    rep = DiagnosticsReport("check_fejer", "pass", per_step=np.array(values))
    assert _report_matches_json_dumps(rep, tmp_path_factory.mktemp("rep") / "r.json")


@pytest.mark.parametrize("n", [exports.BLOCK - 1, exports.BLOCK, exports.BLOCK + 1, 3 * exports.BLOCK])
@pytest.mark.parametrize("outside", [None, 1e-20, 1e300, 5e-324])
def test_report_json_bytes_per_block(tmp_path, monkeypatch, n, outside):
    # a block with a value outside the C digits' range is written by repr in
    # Python; every other block by the C library
    rng = np.random.default_rng(n)
    base = rng.choice([-1.0, 1.0], 2 * n) * rng.uniform(1.0, 10.0, 2 * n)
    base *= 10.0 ** rng.integers(-16, 17, 2 * n)
    if outside is not None:
        base[2 * (n // 2)] = outside
    written = []
    reprs = native.reprs

    def recorded(values, sep):
        written.append(reprs(values, sep))
        return written[-1]

    monkeypatch.setattr(native, "reprs", recorded)
    for i, per_step in enumerate([base[::2], np.ascontiguousarray(base[::2])]):
        rep = DiagnosticsReport("check_fejer", "pass", per_step=per_step)
        assert _report_matches_json_dumps(rep, tmp_path / f"r{i}.json")
    blocks = [text is not None for text in written]
    in_python = [n // 2 // exports.BLOCK] if outside is not None else []
    assert blocks == 2 * [k not in in_python for k in range(-(-n // exports.BLOCK))]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_report_json_rejects_non_finite_per_step(tmp_path, bad):
    per_step = np.linspace(0.0, 1.0, 3 * exports.BLOCK)
    per_step[-2] = bad
    path = tmp_path / "rep.json"
    with pytest.raises(ValueError, match="rep.json"):
        export_report(DiagnosticsReport("check_fejer", "pass", per_step=per_step), path)
    assert not path.exists()


def test_report_json_schema(tmp_path):
    rep = DiagnosticsReport(
        "check_fejer",
        "fail",
        witness={"step": 3, "increase": 0.5, "point": np.array([1.0, 2.0])},
        params={"tol": 1e-10},
        seed=7,
        per_step=np.array([0.0, 0.1, -0.2]),
        metadata={"worst_increase": 0.5},
    )
    d = report_to_dict(rep)
    assert d["verdict"]["type"] == "fail"
    assert d["verdict"]["witness"]["point"] == [1.0, 2.0]
    assert d["seed"] == 7
    assert len(d["per_step"]) == 3
    path = export_report(rep, tmp_path / "rep.json")
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(d))
    # deterministic serialization
    again = export_report(rep, tmp_path / "rep2.json")
    assert path.read_text() == again.read_text()


def test_report_json_rejects_non_finite_values(tmp_path):
    # JSON has no NaN or Infinity token; the file is not written
    rep = DiagnosticsReport("check_fejer", "pass", metadata={"worst_increase": float("nan")})
    path = tmp_path / "rep.json"
    with pytest.raises(ValueError, match="rep.json"):
        export_report(rep, path)
    assert not path.exists()


def test_report_json_inconclusive_reason(tmp_path):
    rep = DiagnosticsReport(
        "check_shadow_superset", "inconclusive", witness={"reason": "unmet"}
    )
    d = report_to_dict(rep)
    assert d["verdict"]["type"] == "inconclusive"
    assert d["verdict"]["reason"] == {"reason": "unmet"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "alternating-pair" in out
    assert "dr-two-balls-r3" in out


def test_cli_run_builtin(capsys):
    assert main(["run", "negation-r1"]) == 0
    out = capsys.readouterr().out
    assert "[ ok ] negation-r1/limit: expected=oscillating actual=oscillating" in out


def test_cli_run_config(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 0


def test_cli_run_mismatch_exit_code(tmp_path, capsys):
    bad = CONFIG_TEXT.replace("expect: converged", "expect: diverging")
    path = tmp_path / "bad.yaml"
    path.write_text(bad, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "MISS" in out


@pytest.mark.parametrize("kind", ["hyperplane", "halfspace"])
def test_a_subnormal_squared_normal_is_a_config_error(tmp_path, capsys, kind):
    text = CONFIG_TEXT.replace(
        "kind: hyperplane, normal: [2.0, 1.0], offset: 1.0",
        f"kind: {kind}, normal: [1.0e-161, 0.0], offset: 0.0",
    )
    path = tmp_path / "tiny-normal.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "error: sets.line: " in capsys.readouterr().err
    # at 1e-150 the squared norm is a normal float, and the config loads
    path.write_text(text.replace("1.0e-161", "1.0e-150"), encoding="utf-8")
    assert load_scenario(path).sets["line"].project([1.0, 2.0]).tolist() == [0.0, 2.0]


def test_an_unsupported_minkowski_summand_is_a_config_error(tmp_path, capsys):
    # only a point or ball summand has a projector; a box one is refused on load
    text = CONFIG_TEXT.replace(
        "sets:\n",
        "sets:\n  s: {kind: minkowski_sum, summand: {kind: box, lower: [0.0, 0.0], "
        "upper: [1.0, 1.0]}, cone: {kind: orthant, signs: [1.0, 1.0]}}\n",
    ).replace("params: {set: line}", "params: {set: s}")
    path = tmp_path / "box-sum.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "error: sets.s: no closed-form projector for Box + cone" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: x\nsets:\n  b: {kind: blob}\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    typo = tmp_path / "typo.yaml"
    typo.write_text(CONFIG_TEXT.replace("kind: fejer", "kind: fejr"), encoding="utf-8")
    assert main(["run", "--config", str(typo)]) == 2
    assert "unknown check kind 'fejr'" in capsys.readouterr().err
    no_start = tmp_path / "no-start.yaml"
    no_start.write_text(CONFIG_TEXT.replace(", start: [4.0, -1.0]", ""), encoding="utf-8")
    assert main(["run", "--config", str(no_start)]) == 2
    assert "trajectories.orbit: missing field 'start'" in capsys.readouterr().err
    data = yaml.safe_load(CONFIG_TEXT)
    data["operators"]["T"] = {"kind": "linear", "matrix": [[0.5]]}
    data["trajectories"][0]["start"] = [1.0, 2.0]
    wrong_dim = tmp_path / "wrong-dim.yaml"
    wrong_dim.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["run", "--config", str(wrong_dim)]) == 2
    assert "trajectories.orbit.start: expected dimension 1, got 2" in capsys.readouterr().err
    nan_points = tmp_path / "nan-points.yaml"
    nan_points.write_text(
        "name: x\ntrajectories:\n  - name: walk\n    kind: points\n"
        "    points: [[1.0, 0.0], [.nan, 0.0], [0.5, 0.0]]\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(nan_points), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "trajectories.walk.points: expected a nonempty finite (n, d) array" in err
    assert not (tmp_path / "out").exists()
    for line, message in [
        ("n_steps: abc", "scenario.n_steps: expected an integer, got 'abc'"),
        ("n_steps: 0", "scenario.n_steps: must be at least 1, got 0"),
        ("tail_window: [3]", "scenario.tail_window: expected an integer, got [3]"),
    ]:
        key = line.split(":")[0]
        text = "\n".join(l for l in CONFIG_TEXT.splitlines() if not l.startswith(key + ":"))
        bad_number = tmp_path / "bad-number.yaml"
        bad_number.write_text(text + "\n" + line + "\n", encoding="utf-8")
        assert main(["run", "--config", str(bad_number)]) == 2
        assert message in capsys.readouterr().err
    for value, message in [
        ("abc", "trajectories.orbit.n_steps: expected an integer, got 'abc'"),
        ("0", "trajectories.orbit.n_steps: must be at least 1, got 0"),
    ]:
        bad_steps = tmp_path / "bad-steps.yaml"
        bad_steps.write_text(
            CONFIG_TEXT.replace("start: [4.0, -1.0]", f"start: [4.0, -1.0], n_steps: {value}"),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(bad_steps)]) == 2
        assert message in capsys.readouterr().err


def test_an_estimated_shift_of_a_two_row_orbit_is_a_config_error(tmp_path, capsys):
    # the estimate reads at least one step of the tail, so the orbit it
    # shifts needs three rows: a one-step orbit, a two-row base and a run at
    # --steps 1 are refused on load, before any orbit is computed
    data = yaml.safe_load(CONFIG_TEXT)
    data["trajectories"].append(
        {"name": "pair", "kind": "points", "points": [[0.0, 1.0], [1.0, 0.0]]}
    )
    shifted = {"name": "nz", "kind": "normalized", "operator": "T", "shift": "estimate"}
    path = tmp_path / "two-rows.yaml"
    for trajectory, steps in [
        ({**shifted, "start": [4.0, -1.0], "n_steps": 1}, []),
        ({**shifted, "base": "pair"}, []),
        ({**shifted, "start": [4.0, -1.0]}, ["--steps", "1"]),
    ]:
        case = {**data, "trajectories": [*data["trajectories"], trajectory]}
        path.write_text(yaml.safe_dump(case), encoding="utf-8")
        assert main(["run", "--config", str(path), *steps]) == 2
        err = capsys.readouterr().err
        assert "trajectories.nz: shift 'estimate' needs an orbit of at least 3 rows, got 2" in err
    # three rows are enough
    assert run_scenario(load_scenario(path), n_steps=2).trajectories["nz"].points.shape == (3, 2)


def test_cli_trajectory_errors_fail_their_checks(tmp_path, capsys):
    # an orbit that leaves the representable range
    data = yaml.safe_load(CONFIG_TEXT)
    data["operators"]["T"] = {"kind": "linear", "matrix": [[3.0]]}
    data["sets"]["line"] = {"kind": "hyperplane", "normal": [1.0], "offset": 0.0}
    data["trajectories"][0]["start"] = [1.0]
    path = tmp_path / "blow-up.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[MISS] custom-reflection/fejer: expected=pass actual=error" in out
    assert "[MISS] custom-reflection/limit: expected=converged actual=error" in out
    # a difference orbit whose norm grows; the other checks still run
    data = yaml.safe_load(CONFIG_TEXT)
    data["operators"]["G"] = {"kind": "linear", "matrix": [[1.5, 0.0], [0.0, 1.5]]}
    data["trajectories"].append(
        {"name": "diff", "kind": "difference", "operator": "G", "start": [1.0, 0.0],
         "partner": [0.0, 0.0], "n_steps": 20}
    )
    data["checks"].append(
        {"name": "reg", "kind": "asymptotic_regularity", "trajectory": "diff", "expect": "pass"}
    )
    path = tmp_path / "growing-difference.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[ ok ] custom-reflection/fejer: expected=pass actual=pass" in out
    assert "[ ok ] custom-reflection/limit: expected=converged actual=converged" in out
    assert "[MISS] custom-reflection/reg: expected=pass actual=error" in out


def test_readme_documents_every_kind():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for table in (SET_KINDS, OPERATOR_KINDS, TRAJECTORY_KINDS, CHECK_KINDS):
        missing = [kind for kind in table if f"`{kind}`" not in readme]
        assert not missing, missing


def test_cli_missing_scenario_is_config_error(capsys):
    assert main(["run"]) == 2
    assert main(["run", "definitely-not-a-scenario"]) == 2


def test_cli_parses_each_call_afresh_with_one_parser(monkeypatch, capsys):
    # the parser is built once per process, and no parsed value carries over
    # into the next call: the second run takes the spec's own seed and steps
    from fejerlab import cli, scenarios

    seen = []

    def recording_run(spec, **overrides):
        artifacts = scenarios.run_scenario(spec, **overrides)
        length = len(artifacts.trajectories["orbit"])
        seen.append((overrides["n_steps"], overrides["seed"], length, artifacts.reports))
        return artifacts

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    main(["run", "alternating-pair", "--seed", "3", "--steps", "5"])
    assert main(["run", "alternating-pair"]) == 0
    spec = get_scenario("alternating-pair")
    assert [s[:3] for s in seen] == [(5, 3, 6), (None, None, spec.n_steps + 1)]
    assert {rep.seed for rep in seen[0][3].values()} - {None} == {3}
    assert {rep.seed for rep in seen[1][3].values()} - {None} == {spec.seed}
    assert cli._build_parser() is cli._build_parser()


def test_cli_export_writes_artifacts(tmp_path, capsys):
    assert main(["export", "negation-r1", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "negation-r1"
    assert (run_dir / "orbit.csv").exists()
    assert (run_dir / "difference.csv").exists()
    assert (run_dir / "limit.json").exists()
    assert (run_dir / "summary.json").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_matched"] is True


def test_cli_export_requires_out(monkeypatch, capsys):
    monkeypatch.delenv("FEJERLAB_OUT", raising=False)
    assert main(["export", "negation-r1"]) == 2


def test_cli_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FEJERLAB_OUT", str(tmp_path))
    assert main(["export", "negation-r1"]) == 0
    assert (tmp_path / "negation-r1" / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--steps", "0", "n_steps: must be at least 1, got 0"),
        ("--seed", "-1", "seed: must be at least 0, got -1"),
        ("--tol", "nan", "tol: must be at least 0.0, got nan"),
        ("--tol", "inf", "tol: must be finite, got inf"),
    ],
)
def test_cli_overrides_obey_the_config_number_rule(tmp_path, capsys, flag, value, message):
    # the same values in a config file are configuration errors too
    out = tmp_path / "out"
    assert main(["run", "negation-r1", flag, value, "--out", str(out)]) == 2
    assert f"error: negation-r1: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "tol, message",
    [(".nan", "must be at least 0.0, got nan"), ("-1", "must be at least 0.0, got -1.0"),
     ("abc", "expected a number, got 'abc'"), (".inf", "must be finite, got inf")],
)
def test_a_check_tol_obeys_the_config_number_rule(tmp_path, capsys, tol, message):
    path = tmp_path / "bad-tol.yaml"
    path.write_text(
        CONFIG_TEXT.replace("params: {set: line}", f"params: {{set: line, tol: {tol}}}"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: checks.fejer.params.tol: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_an_infinite_cluster_radius_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "inf-radius.yaml"
    path.write_text(
        CONFIG_TEXT
        + "  - {name: clusters, kind: connectivity, trajectory: orbit, params: {radius: .inf}}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "error: checks.clusters.params.radius: must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, param, message",
    [
        ("connectivity", "radius: -1.0", "radius: must be null or a number > 0, got -1.0"),
        ("connectivity", "tail_fraction: 5.0", "tail_fraction: must be a number in (0, 1], got 5.0"),
        ("connectivity", "tail_fraction: .nan", "tail_fraction: must be a number in (0, 1], got nan"),
        (
            "cluster_orthogonality", "set: line, radius: .nan",
            "radius: must be null or a number > 0, got nan",
        ),
    ],
    ids=["radius-negative", "tail-fraction-5", "tail-fraction-nan", "orthogonality-radius-nan"],
)
def test_cluster_params_out_of_range_are_config_errors(tmp_path, capsys, kind, param, message):
    # found with the spec, before any orbit is built: exit 2 with the field path
    path = tmp_path / "bad-cluster.yaml"
    path.write_text(
        CONFIG_TEXT
        + f"  - {{name: clusters, kind: {kind}, trajectory: orbit, params: {{{param}}}}}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: checks.clusters.params.{message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "check, message",
    [
        ("kind: fejer, trajectory: orbit, params: {set: line, witnesses: 0}",
         "witnesses: must be at least 1, got 0"),
        ("kind: fejer, trajectory: orbit, params: {set: line, witnesses: 2.5}",
         "witnesses: expected an integer, got 2.5"),
        ("kind: nonexpansive, params: {operator: T, trials: -2}",
         "trials: must be at least 1, got -2"),
    ],
    ids=["witnesses-0", "witnesses-float", "trials-negative"],
)
def test_witness_and_trial_counts_below_one_are_config_errors(tmp_path, capsys, check, message):
    # found with the spec, before any orbit is built: exit 2 with the field path
    path = tmp_path / "bad-count.yaml"
    path.write_text(CONFIG_TEXT + f"  - {{name: count, {check}}}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: checks.count.params.{message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "check, message",
    [
        ("kind: fejer, trajectory: orbit, params: {set: line, seed: -1}",
         "seed: must be at least 0, got -1"),
        ("kind: limit, trajectory: orbit, params: {tail_window: 1}",
         "tail_window: must be at least 2, got 1"),
        ("kind: affine_limit_sweep, params: {n_steps: 0}", "n_steps: must be at least 1, got 0"),
        ("kind: scalar_averaged_sweep, params: {max_steps: 0}",
         "max_steps: must be at least 1, got 0"),
        ("kind: two_ball_sweep, params: {match_tol: .nan}",
         "match_tol: must be at least 0.0, got nan"),
        ("kind: two_ball_sweep, params: {fejer_tol: -1.0}",
         "fejer_tol: must be at least 0.0, got -1.0"),
        ("kind: scalar_averaged_sweep, params: {alphas: []}",
         "alphas: must be a nonempty list of numbers, got []"),
        ("kind: affine_limit_sweep, params: {dims: []}",
         "dims: must be a nonempty list of integers >= 1, got []"),
        ("kind: codim1_sweep, params: {dims: [2, 0]}",
         "dims: must be a nonempty list of integers >= 1, got [2, 0]"),
    ],
    ids=[
        "fejer-seed", "limit-tail-window", "affine-n-steps", "scalar-max-steps",
        "two-ball-match-tol-nan", "two-ball-fejer-tol", "scalar-alphas", "affine-dims",
        "codim1-dims",
    ],
)
def test_a_check_number_obeys_the_scenario_number_rule(tmp_path, capsys, check, message):
    # found with the spec, before any orbit is built: exit 2 with the field path
    path = tmp_path / "bad-number.yaml"
    path.write_text(CONFIG_TEXT + f"  - {{name: number, {check}}}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: checks.number.params.{message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_check_tol_in_exponent_notation_reaches_the_checker_as_a_number(tmp_path, capsys):
    # YAML 1.1 reads 1e-9 (no ".") as a string; the config number rule accepts it
    path = tmp_path / "tol.yaml"
    path.write_text(
        CONFIG_TEXT.replace("params: {set: line}", "params: {set: line, tol: 1e-9}"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "fejer: expected=pass actual=pass" in capsys.readouterr().out
    report = json.loads((out / "custom-reflection" / "fejer.json").read_text())
    assert report["params"]["tol"] == 1e-9


def test_cli_steps_override(tmp_path):
    assert main(["export", "negation-r1", "--out", str(tmp_path), "--steps", "7"]) == 0
    csv = (tmp_path / "negation-r1" / "orbit.csv").read_text().strip().splitlines()
    assert len(csv) == 9  # header + 8 points


@pytest.mark.parametrize("dim, shown", [("0", "0"), ("-3", "-3"), ("true", "True"), ("2.5", "2.5")])
def test_a_nonexpansive_dim_obeys_its_rule(tmp_path, capsys, dim, shown):
    # found with the spec, before any orbit is built: exit 2 with the field path
    path = tmp_path / "bad-dim.yaml"
    path.write_text(
        CONFIG_TEXT.replace("operators:\n", "operators:\n  N: {kind: negation}\n")
        + f"  - {{name: nonexp, kind: nonexpansive, params: {{operator: N, dim: {dim}}}}}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: checks.nonexp.params.dim: must be null or an integer >= 1, got {shown}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "export"])
@pytest.mark.parametrize(
    "selectors",
    [["negation-r1", "--config", "{config}"], ["negation-r1", "--all"], ["--config", "{config}", "--all"]],
    ids=["name-config", "name-all", "config-all"],
)
def test_more_than_one_scenario_selector_is_a_config_error(tmp_path, capsys, command, selectors):
    config = tmp_path / "custom.yaml"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, *(arg.format(config=config) for arg in selectors), "--out", str(out)]
    assert main(argv) == 2
    assert (
        "error: pass only one of a scenario name, --config FILE, or --all"
        in capsys.readouterr().err
    )
    assert not out.exists()


DR_3D = (
    "  D:\n    kind: douglas_rachford\n"
    "    first: {kind: ball, center: [0.0, 0.0, 0.0], radius: 1.0}\n"
    "    second: {kind: ball, center: [5.0, 0.0, 0.0], radius: 1.0}\n"
)


@pytest.mark.parametrize(
    "trajectory, check, message",
    [
        (
            "",
            "{name: dm, kind: displacement_match, trajectory: orbit, params: {operator: D}}",
            "checks.dm.params.operator: operator 'D' has dimension 3, "
            "trajectory 'orbit' has dimension 2",
        ),
        (
            "  - {name: nz, kind: normalized, base: orbit, operator: D, shift: two_ball}\n",
            "{name: nz-limit, kind: limit, trajectory: nz}",
            "trajectories.nz.operator: operator 'D' has dimension 3, "
            "base 'orbit' has dimension 2",
        ),
        (
            "",
            "{name: nonexp, kind: nonexpansive, params: {operator: T, dim: 3}}",
            "checks.nonexp.params.dim: operator 'T' has dimension 2, got 3",
        ),
    ],
    ids=["check-operator", "shift-operator", "nonexpansive-dim"],
)
def test_an_operator_of_another_dimension_is_a_config_error(
    tmp_path, capsys, trajectory, check, message
):
    # found with the spec, before any orbit is built: exit 2 with the field path
    path = tmp_path / "operator-dim.yaml"
    path.write_text(
        CONFIG_TEXT.replace("operators:\n", "operators:\n" + DR_3D).replace(
            "checks:\n", trajectory + "checks:\n"
        )
        + f"  - {check}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
