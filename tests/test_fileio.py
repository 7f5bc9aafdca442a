"""Coefficient-file and dataset-CSV parsing and round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergelane import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    ParseError,
    format_coefficients,
    format_dataset,
    parse_coefficients,
    parse_dataset,
    solve_fixed_point,
)

from divergelane.fileio import DATASET_HEADER, format_dataset_columns
from divergelane.model import FACTOR_FLOOR

from conftest import CAL_VAL, random_coefficients

#: Any valid value of a rate (finite, > 0, subnormals included) or a factor.
_rates = st.floats(0.0, exclude_min=True, allow_infinity=False)
_factors = st.floats(FACTOR_FLOOR, 1.0)


@st.composite
def coefficient_files(draw):
    """Valid coefficients and the symmetry flag to write them with: drawn
    true only on mirrored coefficients (cf1 = cf2 = cb, lambda1 = lambda2,
    mu1 = mu2)."""
    symmetry = draw(st.booleans())
    if symmetry:
        cf, lam, mu = draw(_rates), draw(_factors), draw(_factors)
        c = CostCoefficients(cf, cf, cf, lam, lam, mu, mu, draw(_rates))
    else:
        c = CostCoefficients(*(draw(s) for s in [_rates] * 3 + [_factors] * 4 + [_rates]))
    return c, symmetry


@st.composite
def feasible_datasets(draw):
    """Zero to six feasible points with any finite, non-negative total."""
    points = []
    for _ in range(draw(st.integers(0, 6))):
        q1 = draw(st.floats(0.0, 1.0))
        demand = DemandConfig(q1, 1.0 - q1)
        flow = FlowDistribution.from_bifurcating_shares(
            demand, draw(st.floats(0.0, demand.q1)), draw(st.floats(0.0, demand.q2))
        )
        total = draw(st.floats(0.0, allow_infinity=False))
        points.append(DataPoint(demand, flow, total))
    return points


#: Perturbations of a valid field: slips of 2e-12 break the 1e-12
#: conservation tolerance and slips of 5e-13 stay inside it.
_EDITS = st.sampled_from(
    ["negative", math.nan, math.inf, -math.inf, 2e-12, -2e-12, 5e-13, -5e-13]
)


def _edited(value, edit):
    if edit == "negative":
        return -value - 0.25
    if math.isfinite(edit):
        return value + edit
    return edit


@st.composite
def dataset_rows(draw):
    """One row, ``(q1, q2, xf1, xb1, xf2, xb2, total_demand_vph)``, valid but
    for up to three perturbed fields (so every check gets its turn)."""
    q1 = draw(st.floats(0.0, 1.0))
    q2 = 1.0 - q1
    xb1, xb2 = draw(st.floats(0.0, q1)), draw(st.floats(0.0, q2))
    row = [q1, q2, q1 - xb1, xb1, q2 - xb2, xb2, draw(st.floats(0.0, 1e4))]
    for field, edit in draw(st.dictionaries(st.integers(0, 6), _EDITS, max_size=3)).items():
        row[field] = _edited(row[field], edit)
    return tuple(row)


GNARLY = CostCoefficients(
    cf1=1.0 / 3.0,
    cf2=2.0 / 7.0,
    cb=5.0 / 11.0,
    lambda1=0.1234567890123456,
    lambda2=1.0 / 3.0,
    mu1=0.9999999999999999,
    mu2=1e-9,
    nu=3.141592653589793,
)


class TestCoefficients:
    def test_round_trip_exact(self):
        for c in (CAL_VAL, GNARLY):
            assert parse_coefficients(format_coefficients(c)) == c

    def test_symmetry_flag_round_trip(self):
        text = format_coefficients(CAL_VAL, symmetry=True)
        assert "symmetry = true" in text
        assert parse_coefficients(text) == CAL_VAL

    def test_symmetry_fills_mirrored_keys(self):
        text = "cf1 = 1.45\nlambda1 = 0.87\nmu1 = 0.69\nnu = 1.0\nsymmetry = true\n"
        assert parse_coefficients(text) == CAL_VAL

    def test_symmetry_mismatch_rejected(self):
        text = "cf1 = 1.45\ncf2 = 2.0\nlambda1 = 0.87\nmu1 = 0.69\nnu = 1\nsymmetry = true\n"
        with pytest.raises(ParseError, match="cf2"):
            parse_coefficients(text)

    def test_missing_key_is_named(self):
        text = format_coefficients(CAL_VAL).replace("nu = 1.0\n", "")
        with pytest.raises(ParseError, match="'nu'"):
            parse_coefficients(text)

    def test_comments_and_blank_lines(self):
        text = "# reference values\n\n" + format_coefficients(CAL_VAL) + "\n# end\n"
        assert parse_coefficients(text) == CAL_VAL

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ParseError, match="line 2.*bogus"):
            parse_coefficients("cf1 = 1.0\nbogus = 2\n")

    def test_bad_number_with_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_coefficients("cf1 = one\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cf1 = 1.0\ncf2 1.0\n", "^line 2: expected 'key = value', got 'cf2 1.0'$"),
            ("symmetry = yes\n", "^line 1: symmetry must be true or false, got 'yes'$"),
        ],
    )
    def test_malformed_line_with_line_number(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_coefficients(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_coefficients("cf1 = 1\ncf1 = 2\n")

    @pytest.mark.parametrize("second", ["true", "false"])
    def test_duplicate_symmetry_rejected(self, second):
        # A second symmetry line used to override the first silently.
        text = "cf1 = 1.45\nlambda1 = 0.87\nmu1 = 0.69\nnu = 1.0\nsymmetry = true\n"
        text += f"symmetry = {second}\n"
        with pytest.raises(ParseError, match="^line 6: duplicate key 'symmetry'$"):
            parse_coefficients(text)

    @settings(max_examples=300)
    @given(coefficient_files())
    def test_round_trip_property(self, case):
        c, symmetry = case
        assert parse_coefficients(format_coefficients(c, symmetry)) == c

    def test_invalid_values_rejected(self):
        text = format_coefficients(CAL_VAL).replace("lambda1 = 0.87", "lambda1 = 1.87")
        with pytest.raises(ParseError, match="lambda1"):
            parse_coefficients(text)


def sample_points():
    return [
        DataPoint(
            demand=DemandConfig(0.4, 0.6),
            flow=FlowDistribution(0.3, 0.1, 0.45, 0.15),
            total_demand_vph=3000.0,
        ),
        DataPoint(
            demand=DemandConfig(1.0 / 3.0, 2.0 / 3.0),
            flow=FlowDistribution(1.0 / 3.0 - 0.1, 0.1, 0.5, 2.0 / 3.0 - 0.5),
            total_demand_vph=3200.0,
        ),
    ]


class TestDataset:
    def test_round_trip_exact(self):
        points = sample_points()
        assert parse_dataset(format_dataset(points)) == points

    @settings(max_examples=300)
    @given(feasible_datasets())
    def test_round_trip_property(self, points):
        assert parse_dataset(format_dataset(points)) == points

    def test_rows_numbered_from_one(self):
        lines = format_dataset(sample_points()).splitlines()
        assert lines[0] == "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph"
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")

    def test_columns_of_different_length_rejected(self):
        columns = [[0.5, 0.5]] * 6 + [[3000.0]]
        with pytest.raises(ValueError, match="differ in length"):
            format_dataset_columns(*columns)

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_dataset("q1,q2\n0.5,0.5\n")

    def test_field_count_checked(self):
        text = format_dataset(sample_points()) + "3,0.5,0.5\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_dataset(text)

    def test_bad_number_reported(self):
        text = "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n1,a,0.5,0.4,0.1,0.4,0.1,0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_dataset(text)

    def test_infeasible_row_named(self):
        text = "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n1,0.5,0.5,0.4,0.2,0.4,0.1,0\n"
        with pytest.raises(ParseError, match="k=1"):
            parse_dataset(text)

    @settings(max_examples=500)
    @given(dataset_rows())
    def test_validation_boundary_property(self, row):
        q1, q2, xf1, xb1, xf2, xb2, total = row
        valid = (
            all(0.0 <= v < math.inf for v in row)
            and abs(q1 + q2 - 1.0) <= 1e-12
            and abs(xf1 + xb1 - q1) <= 1e-12
            and abs(xf2 + xb2 - q2) <= 1e-12
        )
        text = f"{DATASET_HEADER}\n1,{','.join(map(repr, row))}\n"
        if valid:
            (point,) = parse_dataset(text)
            assert point == DataPoint(
                DemandConfig(q1, q2), FlowDistribution(xf1, xb1, xf2, xb2), total
            )
        else:
            with pytest.raises(ParseError, match="k=1"):
                parse_dataset(text)

    @pytest.mark.parametrize("k", ["abc", "", "0", "2", "1.0"])
    def test_first_row_k_must_be_1(self, k):
        text = f"{DATASET_HEADER}\n{k},0.5,0.5,0.3,0.2,0.3,0.2,3000.0\n"
        with pytest.raises(ParseError, match=f"^line 2: expected k = 1, got '{k}'$"):
            parse_dataset(text)

    def test_k_counts_data_rows(self):
        # Blank lines are skipped and do not count; a repeated k is refused.
        text = format_dataset(sample_points()).replace("\n2,", "\n\n2,")
        assert parse_dataset(text) == sample_points()
        with pytest.raises(ParseError, match="^line 4: expected k = 2, got '1'$"):
            parse_dataset(text.replace("\n2,", "\n1,"))

    def test_header_only_gives_empty_dataset(self):
        assert parse_dataset("k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n") == []

    def test_numpy_scalars_round_trip(self):
        # Coefficients drawn with numpy and the flows solved from them hold
        # np.float64 values; both files must still parse back exactly.
        rng = np.random.default_rng(5)
        c = random_coefficients(rng)
        assert isinstance(c.cf1, np.float64)
        assert parse_coefficients(format_coefficients(c)) == c
        points = []
        for q1 in (np.float64(0.4), np.float64(0.6)):
            demand = DemandConfig(q1, 1.0 - q1)
            flow = solve_fixed_point(DivergeInstance(demand, c)).flow
            points.append(DataPoint(demand, flow, np.float64(3000.0)))
        text = format_dataset(points)
        assert "np." not in text
        assert parse_dataset(text) == points
