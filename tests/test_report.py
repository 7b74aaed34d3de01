import json
from fractions import Fraction

import pytest

from tropical_transient import __version__
from tropical_transient.bounds import explicit_bound
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.report import (
    FORMAT_VERSION,
    MAX_REPORTED_COUNTEREXAMPLES,
    _tokens_equal,
    attach_deviations,
    base_report,
    bound_section,
    comparable_fields,
    derived_section,
    deviations_between,
    render,
    render_json,
    render_pretty,
    schema_text,
    transient_section,
    validation_section,
)
from tropical_transient.products import TransientEstimate


@pytest.fixture()
def derive_report(family5, names5):
    report = base_report("derive", family5, names5)
    report["validation"] = validation_section(family5.validate())
    report["derived"] = derived_section(family5)
    return report


class TestBaseReport:
    def test_header_fields(self, family5, names5):
        report = base_report("validate", family5, names5)
        assert report["command"] == "validate"
        assert report["tool"] == {"name": "tropical-transient", "version": __version__}
        assert report["format_version"] == FORMAT_VERSION
        assert report["family"] == {
            "n": 5,
            "member_count": 3,
            "members": list(names5),
        }


class TestTokensEqual:
    def test_equivalent_spellings(self):
        assert _tokens_equal("1/2", Fraction(1, 2))
        assert _tokens_equal("0.5", "1/2")
        assert _tokens_equal(3, "3")
        assert _tokens_equal("-inf", "-inf")

    def test_distinct_values(self):
        assert not _tokens_equal("1/2", "1/3")
        assert not _tokens_equal("-inf", 0)

    def test_non_tokens_fall_back_to_plain_equality(self):
        assert _tokens_equal("term1", "term1")
        assert not _tokens_equal("term1", "term2")


class TestDeviations:
    def test_scalar(self):
        out = deviations_between({"x": "1/2"}, {"x": "1/3"})
        assert out == [
            {"field": "x", "position": [], "computed": "1/2", "expected": "1/3"}
        ]

    def test_scalar_equivalent_tokens_do_not_deviate(self):
        assert deviations_between({"x": 2}, {"x": "2"}) == []

    def test_booleans_are_not_weights(self):
        out = deviations_between({"w": [0, 1, -4]}, {"w": [False, True, -4]})
        assert out == [
            {"field": "w", "position": [1], "computed": 0, "expected": False},
            {"field": "w", "position": [2], "computed": 1, "expected": True},
        ]
        assert deviations_between({"x": True}, {"x": True}) == []

    def test_vector_positions_are_one_based(self):
        out = deviations_between({"w": [0, -5, -14]}, {"w": [0, -4, -14]})
        assert out == [
            {"field": "w", "position": [2], "computed": -5, "expected": -4}
        ]

    def test_matrix_positions(self):
        got = [[0, -1], [-2, -3]]
        exp = [[0, -1], [-2, -4]]
        out = deviations_between({"m": got}, {"m": exp})
        assert out == [
            {"field": "m", "position": [2, 2], "computed": -3, "expected": -4}
        ]

    def test_shape_mismatch_reported_whole(self):
        out = deviations_between({"m": [[0]]}, {"m": [[0, 1]]})
        assert len(out) == 1
        assert out[0]["position"] == []

    @pytest.mark.parametrize(
        "got, exp",
        [
            ([0, -5, -14], [[0], [-5], [-14]]),
            (["-inf", "1/2"], [["-", "i", "n", "f"], ["1", "/", "2"]]),
            ([[0, 0], [0, 0]], [[0, 0], 2]),
            ([[0, 0], [0, 0]], [0, 0]),
        ],
    )
    def test_row_that_is_not_a_list_is_a_shape_mismatch(self, got, exp):
        out = deviations_between({"m": got}, {"m": exp})
        assert out == [{"field": "m", "position": [], "computed": got, "expected": exp}]

    def test_list_in_a_matrix_cell_is_a_shape_mismatch(self):
        got, exp = [[0, 0], [0, 0]], [[0, [0]], [0, 0]]
        out = deviations_between({"m": got}, {"m": exp})
        assert out == [{"field": "m", "position": [], "computed": got, "expected": exp}]

    def test_expected_fields_missing_from_computed_are_skipped(self):
        assert deviations_between({}, {"w": [0], "description": "notes"}) == []

    def test_order_follows_expected_file(self):
        exp = {"b": 1, "a": 2}
        out = deviations_between({"a": 0, "b": 0}, exp)
        assert [d["field"] for d in out] == ["b", "a"]


class TestComparableFields:
    def test_derive_report_flattening(self, derive_report):
        fields = comparable_fields(derive_report)
        assert set(fields) == {
            "a_sup",
            "a_inf",
            "alpha",
            "beta",
            "gamma",
            "w",
            "v",
            "lambda_star",
            "lambda_star_witness",
        }
        assert fields["lambda_star"] == "-2/3"
        assert fields["lambda_star_witness"] == [2, 5, 4]

    def test_bound_fields(self, family5, derive_report):
        derive_report["bounds"] = {"explicit": bound_section(explicit_bound(family5))}
        fields = comparable_fields(derive_report)
        assert fields["explicit_overall"] == 34
        assert "implicit_overall" not in fields

    def test_null_witness_is_compared(self):
        # No cycle avoids node 1, so lambda* is -inf with no witness; an
        # expected witness must still be compared against that null.
        family = MatrixFamily([
            TropicalMatrix.from_rows([[0, -1], [-1, None]]),
            TropicalMatrix.from_rows([[0, -2], [-1, None]]),
        ])
        report = base_report("derive", family, ["A1", "A2"])
        report["derived"] = derived_section(family)
        assert report["derived"]["lambda_star"] == {"value": "-inf", "witness": None}
        assert comparable_fields(report)["lambda_star_witness"] is None
        attach_deviations(report, {"lambda_star_witness": [2]})
        assert report["deviations"] == [
            {"field": "lambda_star_witness", "position": [], "computed": None, "expected": [2]}
        ]

    def test_empty_report_has_no_fields(self):
        assert comparable_fields({"command": "validate"}) == {}


class TestAttachDeviations:
    def test_none_leaves_report_alone(self, derive_report):
        attach_deviations(derive_report, None)
        assert "deviations" not in derive_report

    def test_expected_adds_section(self, derive_report, expected5):
        attach_deviations(derive_report, expected5)
        fields = [d["field"] for d in derive_report["deviations"]]
        assert fields == ["alpha", "w", "w", "w", "v"]
        positions = [d["position"] for d in derive_report["deviations"]]
        assert positions == [[5], [2], [3], [4], [2]]


class TestRendering:
    def test_json_round_trips_and_ends_with_newline(self, derive_report):
        text = render_json(derive_report)
        assert text.endswith("\n")
        assert json.loads(text) == derive_report

    def test_pretty_mentions_key_results(self, derive_report):
        text = render_pretty(derive_report)
        assert "derive" in text
        assert "-2/3" in text
        assert "cycle 2->5->4" in text

    def test_pretty_shows_deviations(self, derive_report, expected5):
        attach_deviations(derive_report, expected5)
        text = render_pretty(derive_report)
        assert "deviations" in text
        assert "alpha" in text

    def test_render_dispatch(self, derive_report):
        assert render(derive_report, "json") == render_json(derive_report)
        assert render(derive_report, "pretty") == render_pretty(derive_report)
        with pytest.raises(ValueError):
            render(derive_report, "yaml")


class TestTransientSection:
    def test_counterexample_cap(self):
        examples = tuple((3, (1, 1, 1)) for _ in range(60))
        est = TransientEstimate(
            mode="exhaustive",
            horizon=3,
            first_all_rank_one=None,
            counterexamples=examples,
            examined=60,
            samples_per_length=None,
            seed=None,
        )
        sect = transient_section(est)
        assert sect["counterexample_count"] == 60
        assert len(sect["counterexamples"]) == MAX_REPORTED_COUNTEREXAMPLES


def test_schema_text_is_valid_json_schema():
    schema = json.loads(schema_text())
    assert schema["$schema"].endswith("2020-12/schema")
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(schema)
