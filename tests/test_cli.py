import json
import os
import random
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from tropical_transient import _kernels
from tropical_transient.bounds import implicit_bound
from tropical_transient.cli import UsageError, build_parser, main
from tropical_transient.products import fold
from tropical_transient.report import bound_section, comparable_fields, schema_text

import oracles
from conftest import fixture_path, random_valid_family
from test_bench_digests import load_bench_inputs

FAMILY = fixture_path("five_node_family.json")
SEQ44 = fixture_path("product_len44.json")
EXPECTED = fixture_path("expected_five_node.json")
SRC = Path(__file__).resolve().parents[1] / "src"

jsonschema = pytest.importorskip("jsonschema")
VALIDATOR = jsonschema.Draft202012Validator(json.loads(schema_text()))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    VALIDATOR.validate(report)
    return code, report, err


@pytest.fixture()
def invalid_family(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps({"members": [{"rows": [[0, -1], [-1, 0]]}]}), encoding="utf-8"
    )
    return p


@pytest.fixture()
def tiny_family(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(
        json.dumps(
            {
                "members": [
                    {"rows": [[0, -1], [-1, -2]]},
                    {"rows": [[0, -2], [-3, -1]]},
                ]
            }
        ),
        encoding="utf-8",
    )
    return p


class TestValidate:
    def test_valid_family(self, capsys):
        code, report, _ = run_json(capsys, "validate", FAMILY)
        assert code == 0
        assert report["validation"]["passed"] is True
        names = [c["name"] for c in report["validation"]["checks"]]
        assert names == [
            "geometric_equivalence",
            "irreducibility",
            "members_node1_critical_loop",
            "sup_node1_critical_loop",
        ]

    def test_invalid_family_exits_2_with_witness(self, capsys, invalid_family):
        code, report, _ = run_json(capsys, "validate", invalid_family)
        assert code == 2
        assert report["validation"]["passed"] is False
        failing = [c for c in report["validation"]["checks"] if not c["passed"]]
        assert failing and all("witness" in c for c in failing)

    def test_pretty_default(self, capsys):
        code, out, _ = run(capsys, "validate", FAMILY)
        assert code == 0
        assert "validation: passed" in out

    def test_one_closure_validates_every_member(self, capsys, monkeypatch):
        # The closure of A_sup without its (1,1) loop finds every off-1
        # cycle negative, so no member of the three is closed.
        calls = []
        closure = _kernels.closure
        monkeypatch.setattr(_kernels, "closure", lambda a: calls.append(a) or closure(a))
        code, _, _ = run(capsys, "validate", FAMILY)
        assert code == 0
        assert len(calls) == 1


class TestDerive:
    def test_fixture_values(self, capsys):
        code, report, _ = run_json(capsys, "derive", FAMILY)
        assert code == 0
        derived = report["derived"]
        assert derived["lambda_star"] == {"value": "-2/3", "witness": [2, 5, 4]}
        assert derived["alpha"] == [0, -3, -6, -4, -1]
        assert derived["beta"] == [0, 2, -2, 1, -1]
        assert derived["w"] == [0, -5, -14, -10, -6]
        assert derived["v"] == [0, -4, -4, -8, -10]

    def test_expected_deviations(self, capsys):
        code, report, _ = run_json(capsys, "derive", FAMILY, "--expected", EXPECTED)
        assert code == 0
        devs = [(d["field"], d["position"]) for d in report["deviations"]]
        assert devs == [
            ("alpha", [5]),
            ("w", [2]),
            ("w", [3]),
            ("w", [4]),
            ("v", [2]),
        ]

    @pytest.mark.parametrize(
        "expected",
        [
            {"w": [[0], [1], [2], [3], [4]]},
            {"lambda_star_witness": [[2], [5], [4]]},
            {"gamma": [[0] * 5, 2, [0] * 5, [0] * 5, [0] * 5]},
            {"gamma": [0] * 5},
        ],
    )
    def test_expected_shape_mismatch_is_one_deviation(self, capsys, tmp_path, expected):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected), encoding="utf-8")
        code, report, _ = run_json(capsys, "derive", FAMILY, "--expected", path)
        assert code == 0
        [(field, exp)] = expected.items()
        devs = [(d["field"], d["position"], d["expected"]) for d in report["deviations"]]
        assert devs == [(field, [], exp)]

    def test_expected_boolean_is_an_input_error(self, capsys, tmp_path):
        # false is not the weight 0, and not a token at all: the file is refused.
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"w": [False, -5, -14, -10, -6]}), encoding="utf-8")
        code, out, err = run(capsys, "derive", FAMILY, "--expected", path, "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and "'w' holds a boolean" in err

    def test_invalid_family_stops(self, capsys, invalid_family):
        code, report, _ = run_json(capsys, "derive", invalid_family)
        assert code == 2
        assert "derived" not in report

    def test_force_emits_boundaries_only(self, capsys, invalid_family):
        code, report, _ = run_json(capsys, "derive", invalid_family, "--force")
        assert code == 0
        assert set(report["derived"]) == {"a_sup", "a_inf"}


HEADER = {"command", "tool", "format_version", "family"}


class TestValidationGate:
    @pytest.mark.parametrize("command", ["bound", "check"])
    def test_sequence_commands_stop_after_validation(self, capsys, invalid_family, command):
        code, report, _ = run_json(capsys, command, invalid_family, SEQ44)
        assert code == 2
        assert set(report) == HEADER | {"validation"}

    def test_transient_scans_an_invalid_family(self, capsys, invalid_family):
        code, report, _ = run_json(capsys, "transient", invalid_family, "--horizon", 4)
        assert code == 0
        assert report["validation"]["passed"] is False
        assert report["transient"]["examined"] == 400

    def test_forced_derive_attaches_deviations(self, capsys, invalid_family):
        code, report, _ = run_json(
            capsys, "derive", invalid_family, "--force", "--expected", EXPECTED
        )
        assert code == 0
        assert [(d["field"], d["position"]) for d in report["deviations"]] == [
            ("a_sup", []),
            ("a_inf", []),
        ]


class TestBound:
    def test_explicit_only_without_sequence(self, capsys):
        code, report, _ = run_json(capsys, "bound", FAMILY)
        assert code == 0
        bounds = report["bounds"]
        assert set(bounds) == {"explicit"}
        explicit = bounds["explicit"]
        assert explicit["overall"] == 34
        assert explicit["argmax"] == {"i": 3, "j": 4, "term": "term1"}
        assert explicit["min_sufficient_length"] == 35
        assert "sequence_length" not in explicit

    def test_with_sequence_adds_implicit(self, capsys):
        code, report, _ = run_json(capsys, "bound", FAMILY, SEQ44)
        assert code == 0
        bounds = report["bounds"]
        assert set(bounds) == {"explicit", "implicit"}
        assert bounds["explicit"]["sequence_length"] == 44
        assert bounds["explicit"]["length_sufficient"] is True
        implicit = bounds["implicit"]
        assert implicit["overall"] == "55/2"
        assert implicit["argmax"] == {"i": 4, "j": 4, "term": "term2"}
        assert implicit["min_sufficient_length"] == 28
        assert implicit["length_sufficient"] is True

    def test_implicit_bound_runs_no_fold(self, capsys, monkeypatch):
        # The implicit bound reads column 1 and row 1 from two sweeps.
        def no_fold(*args, **kwargs):
            raise AssertionError("bound FAM SEQ folded its sequence")

        monkeypatch.setattr(_kernels, "_fold", no_fold)
        monkeypatch.setattr(_kernels, "extend", no_fold)
        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.ACTIVE._replace(fold=no_fold))
        code, report, _ = run_json(capsys, "bound", FAMILY, SEQ44)
        assert code == 0
        assert report["bounds"]["implicit"]["overall"] == "55/2"

    def test_implicit_section_is_the_bound_of_the_fold(self, capsys, tmp_path):
        rng = random.Random(47)
        for case in range(8):
            fam = random_valid_family(rng, n=2 + case % 4)
            seq = [rng.randint(1, fam.member_count) for _ in range(rng.randint(1, 60))]
            fam_path, seq_path = tmp_path / f"fam{case}.json", tmp_path / f"seq{case}.json"
            oracles.save_family(fam, fam_path)
            seq_path.write_text(json.dumps(seq), encoding="utf-8")
            code, report, _ = run_json(capsys, "bound", fam_path, seq_path)
            assert code == 0
            want = bound_section(implicit_bound(fam, fold(fam, seq)), len(seq))
            assert report["bounds"]["implicit"] == json.loads(json.dumps(want))

    def test_a_inf_vectors_are_derived_once(self, capsys, monkeypatch):
        # Validation closes A_sup without its (1,1) loop once: every member
        # lies below it, so its negative off-1 cycles decide the members'
        # too.  alpha, beta and gamma are read off that closure.  w and v
        # are one vector fixpoint each over A_inf, once, although the
        # report and the bound both read them.
        calls, lines = [], []
        closure, anchor_paths = _kernels.closure, _kernels.anchor_paths
        monkeypatch.setattr(_kernels, "closure", lambda a: calls.append(a) or closure(a))
        monkeypatch.setattr(_kernels, "anchor_paths",
                            lambda a: lines.append(a) or anchor_paths(a))
        code, _, _ = run(capsys, "bound", FAMILY, SEQ44)
        assert code == 0
        assert len(calls) == 1
        assert len(lines) == 1

    def test_no_cycle_avoids_node_one(self, capsys, tmp_path):
        # Node 2 has no loop, so the only side cycle, 1 -> 2 -> 1, passes
        # through node 1: lambda* is -inf and the quotients are taken as 0.
        p = tmp_path / "through_one.json"
        p.write_text(json.dumps({"members": [
            {"rows": [[0, -1], [-1, "-inf"]]},
            {"rows": [[0, -2], ["-1/2", "-inf"]]},
        ]}), encoding="utf-8")
        code, out, _ = run(capsys, "bound", p)
        assert code == 0
        assert "\nlambda* = -inf\n" in out
        assert (
            "\nexplicit bound: 2 (argmax entry (1,1) via term2)\n"
            "  sufficient length: k >= 3\n"
            "  note: no cycle avoids node 1; quotients taken as 0\n"
        ) in out
        code, report, _ = run_json(capsys, "bound", p)
        assert code == 0
        assert report["derived"]["lambda_star"] == {"value": "-inf", "witness": None}
        assert report["bounds"]["explicit"]["lambda_star_undefined"] is True

    def test_expected_logs_bound_disagreements(self, capsys):
        code, report, _ = run_json(
            capsys, "bound", FAMILY, SEQ44, "--expected", EXPECTED
        )
        assert code == 0
        devs = report["deviations"]
        by_field = {}
        for d in devs:
            by_field.setdefault(d["field"], []).append(d)
        assert [d["position"] for d in by_field["implicit_term1"]] == [[5, 4]]
        assert by_field["implicit_term1"][0]["computed"] == 25
        assert by_field["implicit_term1"][0]["expected"] == 28
        assert by_field["explicit_overall"][0]["expected"] == "65/2"
        assert "implicit_overall" not in by_field
        assert "product" not in by_field


class TestCheck:
    def test_rank_one_product(self, capsys):
        code, report, _ = run_json(capsys, "check", FAMILY, SEQ44)
        assert code == 0
        check = report["check"]
        assert check["length"] == 44
        assert check["rank_one"] is True
        assert check["consistent"] is True
        assert check["w_star"] == [0, -3, -10, -10, -6]
        assert check["v_star"] == [0, -1, -2, -6, -4]
        assert check["factors"]["column"] == check["w_star"]
        assert check["factors"]["row"] == check["v_star"]

    def test_lemmas_flag(self, capsys):
        code, report, _ = run_json(capsys, "check", FAMILY, SEQ44, "--lemmas")
        assert code == 0
        lemmas = report["lemma_checks"]
        assert lemmas["all_hold"] is True
        assert lemmas["through_one_decomposition"]["checked"] == 25
        assert lemmas["avoiding_strictly_below"]["skipped"] == 0

    def test_anchor_vectors_are_derived_once(self, capsys, monkeypatch):
        # The report's w_star and v_star fields each take one anchor
        # sweep; the lemma checks read w* and v* off their own tables.
        calls = []
        base = _kernels.ACTIVE

        def counted(name):
            kernel = getattr(base, name)
            return lambda *args: calls.append(name) or kernel(*args)

        monkeypatch.setattr(_kernels, "ACTIVE", base._replace(
            initial_to_anchor=counted("initial_to_anchor"),
            final_from_anchor=counted("final_from_anchor"),
        ))
        code, _, _ = run(capsys, "check", FAMILY, SEQ44, "--lemmas")
        assert code == 0
        assert sorted(calls) == ["final_from_anchor", "initial_to_anchor"]

    def test_minus_inf_pivot_stops_at_the_validation_gate(self, capsys, monkeypatch, tmp_path):
        # check has no --force, and validation needs every member's (1,1)
        # entry to be 0, so a product with a -inf pivot is never folded:
        # rank_one_factor's PivotError cannot reach cmd_check.
        fam = tmp_path / "pivot.json"
        fam.write_text(json.dumps({"members": [{"rows": [["-inf", -1], [-1, -2]]},
                                               {"rows": [[0, -2], [-3, -1]]}]}),
                       encoding="utf-8")
        seq = tmp_path / "seq.json"
        seq.write_text("[2, 1]", encoding="utf-8")
        folds = []
        monkeypatch.setattr("tropical_transient.cli.fold", lambda *a: folds.append(a))
        code, report, _ = run_json(capsys, "check", fam, seq)
        assert code == 2 and folds == []
        assert set(report) == HEADER | {"validation"}
        failing = {c["name"] for c in report["validation"]["checks"] if not c["passed"]}
        assert "members_node1_critical_loop" in failing

    def test_short_product_not_rank_one(self, capsys, tmp_path):
        seq = tmp_path / "one.json"
        seq.write_text("[1]", encoding="utf-8")
        code, report, _ = run_json(capsys, "check", FAMILY, seq)
        assert code == 3
        assert report["check"]["rank_one"] is False
        assert "factors" not in report["check"]

    def test_expected_product_match(self, capsys, expected5):
        code, report, _ = run_json(
            capsys, "check", FAMILY, SEQ44, "--expected", EXPECTED
        )
        assert code == 0
        fields = {d["field"] for d in report["deviations"]}
        assert fields == set()
        assert report["check"]["product"] == expected5["product"]


class TestStepWork:
    """Planned product steps (``_kernels._step``) a command runs on the
    fixture, as (matrix steps, vector steps): a state of one row per start
    node, or one vector.  ``bound FAM SEQ`` runs the fixpoints of A_inf
    and of the cycle-mean potentials, Karp's tables and the two vector
    sweeps of the implicit bound; ``check FAM SEQ --lemmas`` adds the two
    all-starts avoiding sweeps and the fold, each absorbed into vector
    sweeps once rank-one, and the through table joined from the avoiding
    sweeps, one matrix step (93 + 1 matrix steps)."""

    @pytest.mark.parametrize("argv, steps", [
        pytest.param(("bound", FAMILY, SEQ44), (0, 99), id="bound"),
        pytest.param(("check", FAMILY, SEQ44, "--lemmas"), (94, 130), id="check-lemmas"),
    ])
    def test_steps_on_the_fixture(self, capsys, monkeypatch, argv, steps):
        counts = [0, 0]
        step = _kernels._step

        def counted(state, *args, **kwargs):
            counts[state.ndim == 1] += 1
            return step(state, *args, **kwargs)

        monkeypatch.setattr(_kernels, "_step", counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert tuple(counts) == steps


class TestExpectedRoundTrip:
    @pytest.mark.parametrize("source", ["fixture", 6, 12])
    def test_report_fields_as_expected_file_give_no_deviations(self, capsys, tmp_path, source):
        # A report's own comparable fields, read back as --expected, match
        # it everywhere: every field they name is compared, none differs.
        if source == "fixture":
            family, sequence = FAMILY, SEQ44
        else:
            family, sequence = load_bench_inputs().write_synthetic(tmp_path, 1, source, 60)
        for command in (["derive", family], ["bound", family, sequence],
                        ["check", family, sequence]):
            code, report, _ = run_json(capsys, *command)
            fields = comparable_fields(report)
            assert fields
            expected = tmp_path / "expected.json"
            expected.write_text(json.dumps(fields), encoding="utf-8")
            again, checked, _ = run_json(capsys, *command, "--expected", expected)
            assert again == code
            assert checked["deviations"] == []
            del checked["deviations"]
            assert checked == report


class TestTransient:
    def test_exhaustive_tiny(self, capsys, tiny_family):
        code, report, _ = run_json(
            capsys,
            "transient", tiny_family,
            "--horizon", 6, "--mode", "exhaustive",
        )
        assert code == 0
        sect = report["transient"]
        assert sect["mode"] == "exhaustive"
        assert sect["examined"] == sum(2 ** k for k in range(1, 7))
        assert sect["samples_per_length"] is None
        assert sect["seed"] is None

    def test_sampled_deterministic(self, capsys, tiny_family):
        args = (
            "transient", tiny_family,
            "--horizon", 8, "--samples", 20, "--seed", 5,
        )
        code1, out1, _ = run(capsys, *args, "--format", "json")
        code2, out2, _ = run(capsys, *args, "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_budget_exceeded(self, capsys):
        code, out, err = run(
            capsys,
            "transient", FAMILY,
            "--horizon", 20, "--mode", "exhaustive",
        )
        assert code == 4
        assert "budget" in err

    def test_budget_override(self, capsys, tiny_family):
        code, _, err = run(
            capsys,
            "transient", tiny_family,
            "--horizon", 6, "--mode", "exhaustive", "--budget", 10,
        )
        assert code == 4
        code, report, _ = run_json(
            capsys,
            "transient", tiny_family,
            "--horizon", 6, "--mode", "exhaustive", "--budget", 1000,
        )
        assert code == 0

    def test_pretty_onset_line_when_the_horizon_fails(self, capsys):
        # Lengths 7-9 were all rank-one, so a rank-one length was scanned;
        # only the horizon's counterexample leaves the onset null.
        args = ("transient", FAMILY, "--horizon", 10, "--samples", 3, "--seed", 9)
        code, report, _ = run_json(capsys, *args)
        sect = report["transient"]
        assert code == 0 and sect["first_all_rank_one"] is None
        assert sect["counterexample_count"] == len(sect["counterexamples"])
        failing = {item["length"] for item in sect["counterexamples"]}
        assert 10 in failing and not failing & {7, 8, 9}
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "\n  length 10, the longest scanned, still had a counterexample\n" in out
        assert "never held" not in out

    @pytest.mark.parametrize(
        "flag,value",
        [("--horizon", 0), ("--samples", 0)],
    )
    def test_argument_validation(self, capsys, tiny_family, flag, value):
        argv = ["transient", str(tiny_family), "--horizon", "4", flag, str(value)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "usage error" in err


class TestParser:
    def test_built_once_and_keeps_no_state_between_parses(self):
        # main() reuses one parser per process; each parse starts from the
        # defaults again, after a usage error too.
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["transient", "F", "--horizon", "3", "--samples", "5",
                                   "--mode", "exhaustive", "--budget", "9"])
        assert (first.samples, first.mode, first.budget) == (5, "exhaustive", 9)
        with pytest.raises(UsageError):
            parser.parse_args(["transient", "F", "--horizon", "x"])
        again = parser.parse_args(["transient", "F", "--horizon", "3"])
        assert (again.samples, again.mode, again.budget, again.seed) == (100, "sampled", None, 0)
        bound = parser.parse_args(["bound", "F"])
        assert bound.sequence is None and not hasattr(bound, "horizon")


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/family.json")
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "validate", FAMILY, "--walrus")
        assert code == 1
        assert "usage error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate", FAMILY)
        assert code == 1

    def test_non_ascii_token_position(self, capsys, tmp_path):
        p = tmp_path / "uni.json"
        p.write_text(
            json.dumps({"members": [{"rows": [[0, "−∞"], [-1, -2]]}]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "validate", p)
        assert code == 1
        assert "row 1 column 2" in err

    def test_int64_overflow_is_reported(self, capsys, tmp_path):
        # A 2^61 magnitude is stored exactly but cannot be multiplied.
        fam = tmp_path / "huge.json"
        fam.write_text(
            json.dumps({"members": [{"rows": [[0, -(2**61)], [-1, -2]]}]}),
            encoding="utf-8",
        )
        seq = tmp_path / "three.json"
        seq.write_text("[1, 1, 1]", encoding="utf-8")
        code, out, err = run(capsys, "check", fam, seq)
        assert code == 1
        assert out == ""
        assert err.startswith("overflow: ")

    def test_lemma_threshold_overflow_is_reported(self, capsys, tmp_path):
        # The lemma checks share the bound terms' int64 guard; lambda* with
        # a 2^31 denominator scales their thresholds past it.
        fam = tmp_path / "fine.json"
        fam.write_text(
            json.dumps({"members": [{"rows": [[0, -5], [-5, f"-1/{2**31}"]]}]}),
            encoding="utf-8",
        )
        seq = tmp_path / "ten.json"
        seq.write_text(json.dumps([1] * 10), encoding="utf-8")
        code, _, _ = run(capsys, "check", fam, seq)
        assert code == 3  # reported: the product is not yet rank-one
        code, out, err = run(capsys, "check", fam, seq, "--lemmas")
        assert code == 1
        assert out == ""
        assert err.startswith("overflow: bound terms: ")

    def test_karp_table_overflow_is_reported(self, capsys, tmp_path):
        # Validation decides the side cycles with the closure, whose guard
        # is 2n |weight|; Karp's cross-multiplied quotients reach
        # (2n - 1) n |weight| on an n-node component.  On the 2-node family
        # Karp used to overflow (6 |weight| >= 2^61) where the closure
        # (4 |weight|) decides, so validation now passes.  On the 4-node
        # family lambda* in derive still runs Karp on the 3-cycle off node
        # 1 (15 |weight| >= 2^61; the closures need 8 |weight|).
        def write(name, rows):
            path = tmp_path / name
            path.write_text(json.dumps({"members": [{"rows": rows}]}), encoding="utf-8")
            return path

        w = (2**61) // 6 + 1
        two = write("wide2.json", [[0, -w], [-w, -w]])
        code, report, _ = run_json(capsys, "validate", two)
        assert code == 0
        assert report["validation"]["passed"] is True

        w = (2**61) // 15 + 1
        inf = "-inf"
        four = write("wide4.json", [
            [0, -w, inf, inf],
            [inf, inf, -w, inf],
            [inf, inf, inf, -w],
            [-w, -w, inf, inf],
        ])
        code, report, _ = run_json(capsys, "validate", four)
        assert code == 0
        assert report["validation"]["passed"] is True
        code, out, err = run(capsys, "derive", four)
        assert code == 1
        assert out == ""
        assert err.startswith("overflow: cycle mean: ")


def console_script_command(name):
    """Argv prefix that runs console script ``name`` in a fresh process.

    The installed wrapper when it is on PATH; otherwise the entry point that
    ``[project.scripts]`` in pyproject.toml declares, called the way pip's
    generated wrapper calls it.
    """
    if shutil.which(name):
        return [name]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    target = EntryPoint(name, scripts[name], "console_scripts")
    assert callable(target.load())
    module, attr = target.module, target.attr
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", wrapper]


class TestProcessLevel:
    def test_console_script_deterministic(self):
        script = console_script_command("tropical-transient")
        cmd = [*script, "derive", FAMILY, "--format", "json"]
        # The checkout's src on the path, for the fresh interpreter of the
        # fallback when nothing is installed.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout and first.stdout == second.stdout
