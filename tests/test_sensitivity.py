import pytest
from hypothesis import given, settings, strategies as st

from uplan.cli import main
from uplan.sensitivity import (
    MAX_AXIS_VALUES,
    ErrorBoundedEF,
    _spread,
    contour_csv,
    contour_rows,
    distinguishable,
    ef_range,
    grid_csv,
    ratio_threshold,
    sensitivity_grid,
)


def test_ef_range_zero_errors_collapse():
    r = ef_range(ErrorBoundedEF(0.85, 1000.0))
    assert (r.low, r.center, r.high) == (850.0, 850.0, 850.0)


def test_ef_range_epsilon_formula():
    r = ef_range(ErrorBoundedEF(0.5, 100.0, 0.1, 0.1))
    assert r.center == 50.0
    assert r.epsilon_max == pytest.approx((0.1 + 0.1 + 0.01) * 50.0, abs=1e-12)
    assert r.epsilon_max == pytest.approx(10.5, abs=1e-12)


def test_ef_range_zero_fulfilment_annihilates():
    r = ef_range(ErrorBoundedEF(0.9, 0.0, 0.5, 0.5))
    assert (r.low, r.center, r.high) == (0.0, 0.0, 0.0)


def test_distinguishable_identical_inputs():
    x = ErrorBoundedEF(0.8, 500.0, 0.1, 0.1)
    verdict, margin = distinguishable(x, x)
    assert not verdict
    assert margin == pytest.approx(-2 * ef_range(x).epsilon_max, abs=1e-9)


def test_distinguishable_zero_errors_strict_comparison():
    a = ErrorBoundedEF(0.85, 1000.0)
    b = ErrorBoundedEF(0.7, 1000.0)
    verdict, margin = distinguishable(a, b)
    assert verdict and margin == pytest.approx(150.0, abs=1e-9)
    equal = ErrorBoundedEF(0.85, 1000.0)
    verdict, margin = distinguishable(a, equal)
    assert not verdict and margin == 0.0


def test_distinguishable_overlapping_ranges():
    # Centres 850 and 810 with eps 30 each: gap 40 < 60.
    a = ErrorBoundedEF(0.85, 1000.0, 30.0 / 850.0, 0.0)
    b = ErrorBoundedEF(0.81, 1000.0, 30.0 / 810.0, 0.0)
    verdict, margin = distinguishable(a, b)
    assert not verdict
    assert margin == pytest.approx(40.0 - 60.0, abs=1e-9)


def test_distinguishable_argument_order_irrelevant():
    a = ErrorBoundedEF(0.9, 900.0, 0.01, 0.01)
    b = ErrorBoundedEF(0.4, 500.0, 0.01, 0.01)
    assert distinguishable(a, b) == distinguishable(b, a)


def test_ratio_threshold_worked_point():
    assert ratio_threshold(0.2, 0.3) == 2.12


def test_ratio_threshold_perfect_knowledge():
    assert ratio_threshold(0.0, 0.0) == 1.0


def test_ratio_threshold_tenth_errors():
    assert ratio_threshold(0.1, 0.1) == pytest.approx(1.42, abs=1e-12)


def test_grid_contains_worked_point():
    rows = sensitivity_grid((0.0, 0.5), (0.0, 0.5), 0.1)
    assert len(rows) == 36
    lookup = {(g, d): t for g, d, t in rows}
    assert lookup[(0.2, 0.3)] == 2.12
    assert lookup[(0.0, 0.0)] == 1.0


def test_grid_symmetry_exact():
    rows = sensitivity_grid((0.0, 0.5), (0.0, 0.5), 0.05)
    lookup = {(g, d): t for g, d, t in rows}
    for (g, d), t in lookup.items():
        assert lookup[(d, g)] == t


def test_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sensitivity_grid((0.0, 0.5), (0.0, 0.5), 0.0)
    with pytest.raises(ValueError):
        sensitivity_grid((0.5, 0.1), (0.0, 0.5), 0.1)
    with pytest.raises(ValueError):
        sensitivity_grid((0.0, 1.5), (0.0, 0.5), 0.1)


@pytest.mark.parametrize("gammas, deltas", [
    ((0.0, 1.0), (0.0, 3.0)),   # the contours would run to delta 3.0
    ((0.0, 1.0), (0.5, 0.2)),   # and would be empty
    ((0.5, 0.1), (0.0, 0.5)),
    ((0.0, 1.5), (0.0, 0.5)),
])
def test_contours_reject_the_ranges_the_grid_rejects(gammas, deltas):
    with pytest.raises(ValueError) as grid:
        sensitivity_grid(gammas, deltas, 0.1)
    with pytest.raises(ValueError) as contour:
        contour_rows(gammas, deltas, 0.1)
    assert str(contour.value) == str(grid.value)


def test_spread_caps_the_values_per_axis():
    # A 0.001 step over [0, 1] is the finest allowed; anything finer, down to
    # a step whose count of values overflows a float, is refused up front.
    assert len(_spread(0, 1, 0.001)) == MAX_AXIS_VALUES == 1001
    for step in (1e-4, 1e-9, 1e-320):
        with pytest.raises(ValueError, match="more than 1001 values"):
            _spread(0, 1, step)
    assert len(_spread(0.5, 0.6, 1e-4)) == 1001


@pytest.mark.parametrize("step, message", [
    ("1e-9", "step 1e-09 gives more than 1001 values over [0.0, 1.0]"),
    ("nan", "step must be > 0"),
    ("-0.1", "step must be > 0"),
])
def test_sensitivity_bad_step_exits_two(step, message, tmp_path, capsys):
    grid, contour = tmp_path / "g.csv", tmp_path / "c.csv"
    assert main(["sensitivity", "--step", step, "--grid-out", str(grid),
                 "--contour-out", str(contour)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not grid.exists() and not contour.exists()


def test_contours_hit_integer_ratios():
    rows = contour_rows((0.0, 1.0), (0.0, 1.0), 0.25)
    ratios = {r for r, _, _ in rows}
    assert ratios == {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}
    for r, g, d in rows:
        assert ratio_threshold(g, d) == pytest.approx(r, abs=1e-9)


def test_csv_formats():
    grid = grid_csv([(0.2, 0.3, 2.12)])
    assert grid.splitlines()[0] == "gamma,delta,threshold"
    assert grid.splitlines()[1] == "0.2,0.3,2.12"
    contour = contour_csv([(2.0, 0.25, 0.2)])
    assert contour.splitlines()[0] == "ratio,gamma,delta"


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
small = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(small, small)
def test_threshold_symmetric_and_at_least_one(g, d):
    assert ratio_threshold(g, d) == ratio_threshold(d, g)
    assert ratio_threshold(g, d) >= 1.0


@settings(max_examples=300, deadline=None)
@given(small, small, st.floats(min_value=0.001, max_value=0.5, allow_nan=False))
def test_threshold_strictly_increasing(g, d, bump):
    assert ratio_threshold(g + bump, d) > ratio_threshold(g, d)
    assert ratio_threshold(g, d + bump) > ratio_threshold(g, d)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
)
def test_ratio_threshold_consistent_with_range_check(p_b, f_b, gamma, delta, slack):
    """Meeting the ratio threshold implies non-overlapping EF ranges when the
    total error is split evenly between the two actions."""
    threshold = ratio_threshold(gamma, delta)
    ef_b = p_b * f_b
    ef_a = ef_b * threshold * slack
    epsilon_b = (gamma + delta + gamma * delta) * ef_b
    # Encode action a with the same absolute error budget as b.
    f_a = ef_a  # probability 1, fulfilment carries the whole EF
    if ef_a == 0.0:
        return
    a = ErrorBoundedEF(1.0, f_a, 0.0, epsilon_b / ef_a)
    b = ErrorBoundedEF(p_b, f_b, gamma, delta)
    verdict, margin = distinguishable(a, b)
    if slack > 1.0 + 1e-9:
        assert verdict, (ef_a, ef_b, margin)
    if slack >= 1.0:
        assert margin >= -1e-9


def test_error_bounded_ef_validation():
    with pytest.raises(ValueError):
        ErrorBoundedEF(1.2, 100.0)
    with pytest.raises(ValueError):
        ErrorBoundedEF(0.5, -1.0)
    with pytest.raises(ValueError):
        ErrorBoundedEF(0.5, 1.0, -0.1, 0.0)
