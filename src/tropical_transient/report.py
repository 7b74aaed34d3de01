"""Analysis reports: JSON-ready assembly, deviation diffs and rendering.

Reports are plain dicts of JSON-compatible values, byte-deterministic
for fixed inputs, flags and seed: no timestamps, no environment state,
and every weight rendered through the exact token syntax.  A JSON schema
for the layout ships as ``report.schema.json`` next to this module.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Mapping, Optional

from . import __version__
from .bounds import BoundReport, check_length_sufficient
from .family import MatrixFamily, ValidationReport
from .io import column_tokens, json_text, matrix_tokens
from .products import TransientEstimate
from .semiring import weight_from_token, weight_token
from .trellis import LemmaReport

FORMAT_VERSION = 1
MAX_REPORTED_COUNTEREXAMPLES = 50


def base_report(command: str, family: MatrixFamily, names) -> dict:
    return {
        "command": command,
        "tool": {"name": "tropical-transient", "version": __version__},
        "format_version": FORMAT_VERSION,
        "family": {
            "n": family.size,
            "member_count": family.member_count,
            "members": list(names),
        },
    }


def validation_section(report: ValidationReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                **({"witness": dict(c.witness)} if c.witness is not None else {}),
            }
            for c in report.checks
        ],
    }


def boundary_section(family: MatrixFamily) -> dict:
    return {"a_sup": matrix_tokens(family.a_sup), "a_inf": matrix_tokens(family.a_inf)}


def derived_section(family: MatrixFamily) -> dict:
    derived = family.sup_derived
    w, v = family.inf_walk_to_one(), family.inf_walk_from_one()
    lam = derived.lambda_star
    return {
        **boundary_section(family),
        "lambda_star": {
            "value": weight_token(lam.mean),
            "witness": list(lam.witness) if lam.witness is not None else None,
        },
        "alpha": column_tokens(derived.alpha),
        "beta": column_tokens(derived.beta),
        "gamma": matrix_tokens(derived.gamma),
        "w": column_tokens(w),
        "v": column_tokens(v),
    }


def bound_section(report: BoundReport, k: Optional[int] = None) -> dict:
    out = {
        "mode": report.mode,
        "term1": matrix_tokens(report.term1),
        "term2": matrix_tokens(report.term2),
        "per_entry": matrix_tokens(report.per_entry),
        "overall": weight_token(report.overall),
        "argmax": {
            "i": report.argmax[0],
            "j": report.argmax[1],
            "term": report.argmax[2],
        },
        "min_sufficient_length": report.min_sufficient_length,
        "lambda_star_undefined": report.lambda_star_undefined,
    }
    if k is not None:
        out["sequence_length"] = k
        out["length_sufficient"] = check_length_sufficient(report, k)
    return out


def transient_section(estimate: TransientEstimate) -> dict:
    shown = [
        {"length": k, "indices": list(idx)}
        for k, idx in estimate.counterexamples[:MAX_REPORTED_COUNTEREXAMPLES]
    ]
    return {
        "mode": estimate.mode,
        "horizon": estimate.horizon,
        "first_all_rank_one": estimate.first_all_rank_one,
        "examined": estimate.examined,
        "counterexample_count": len(estimate.counterexamples),
        "counterexamples": shown,
        "samples_per_length": estimate.samples_per_length,
        "seed": estimate.seed,
    }


def lemma_section(report: LemmaReport) -> dict:
    def one(check):
        return {
            "holds": check.holds,
            "checked": check.checked,
            "skipped": check.skipped,
            "failures": [dict(f) for f in check.failures],
        }

    return {
        "all_hold": report.all_hold,
        "initial_length": one(report.initial_length),
        "final_length": one(report.final_length),
        "through_one_decomposition": one(report.through_one_decomposition),
        "avoiding_strictly_below": one(report.avoiding_strictly_below),
    }


# ---------------------------------------------------------------------------
# Deviations against expected values
# ---------------------------------------------------------------------------

def _tokens_equal(a, b) -> bool:
    """Equal weights, or equal non-weight tokens of one type (``False``
    is not the weight 0)."""
    try:
        wa = weight_from_token(a)
        wb = weight_from_token(b)
    except ValueError:
        return type(a) is type(b) and a == b
    return wa is wb or wa == wb


def _nesting(value):
    """The list structure of a value, with every non-list leaf as ``None``."""
    return [_nesting(v) for v in value] if isinstance(value, list) else None


def _leaves(value, position=()):
    """(1-based position, leaf) pairs of a nested list, row-major."""
    if not isinstance(value, list):
        yield list(position), value
        return
    for i, v in enumerate(value, start=1):
        yield from _leaves(v, position + (i,))


def deviations_between(computed: Mapping, expected: Mapping) -> list[dict]:
    """Per-position differences between computed fields and expectations.

    ``computed`` maps field names to token scalars or nested lists of
    tokens.  Fields of ``expected`` missing from ``computed`` are ignored
    (they belong to other commands).  A field whose list nesting differs
    from the computed one (a length, or a list where a token is expected
    or the reverse, at any depth) is one deviation at position ``[]``;
    otherwise each differing token is one deviation at its 1-based
    position.
    """
    out: list[dict] = []
    for field, exp in expected.items():
        if field not in computed:
            continue
        got = computed[field]
        if _nesting(got) != _nesting(exp):
            out.append({"field": field, "position": [], "computed": got, "expected": exp})
            continue
        for (pos, g), (_, e) in zip(_leaves(got), _leaves(exp)):
            if not _tokens_equal(g, e):
                out.append({"field": field, "position": pos, "computed": g, "expected": e})
    return out


# Expected-file field name -> key path into the report.
_FIELD_PATHS = {
    **{key: ("derived", key) for key in ("a_sup", "a_inf", "alpha", "beta", "gamma", "w", "v")},
    "lambda_star": ("derived", "lambda_star", "value"),
    "lambda_star_witness": ("derived", "lambda_star", "witness"),
    **{f"{mode}_{key}": ("bounds", mode, key)
       for mode in ("explicit", "implicit") for key in ("term1", "term2", "overall")},
    **{key: ("check", key) for key in ("product", "w_star", "v_star")},
}


def comparable_fields(report: dict) -> dict:
    """The report's values under the field names expected files refer to;
    a field is left out only when its section or key is missing."""
    fields: dict = {}
    for name, path in _FIELD_PATHS.items():
        node = report
        for key in path:
            if key not in node:
                break
            node = node[key]
        else:
            fields[name] = node
    return fields


def attach_deviations(report: dict, expected: Optional[Mapping]) -> dict:
    if expected is not None:
        report["deviations"] = deviations_between(comparable_fields(report), expected)
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_json(report: dict) -> str:
    return json_text(report) + "\n"


def _fmt_matrix(rows: list[list], indent: str = "  ") -> list[str]:
    cells = [[str(tok) for tok in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    return [
        indent + "[ " + "  ".join(r[c].rjust(widths[c]) for c in range(len(r))) + " ]"
        for r in cells
    ]


def _fmt_vector(tokens: list) -> str:
    return "(" + ", ".join(str(t) for t in tokens) + ")"


def _fmt_value(value) -> str:
    """A deviation value: a token as itself, a list or null as JSON."""
    return json.dumps(value) if value is None or isinstance(value, list) else str(value)


def render_pretty(report: dict) -> str:
    lines: list[str] = []
    fam = report["family"]
    lines.append(
        f"{report['command']}: family of {fam['member_count']} members, n = {fam['n']}"
    )
    validation = report.get("validation")
    if validation:
        lines.append("")
        lines.append(f"validation: {'passed' if validation['passed'] else 'FAILED'}")
        for check in validation["checks"]:
            mark = "ok" if check["passed"] else "FAIL"
            lines.append(f"  [{mark}] {check['name']}")
            if not check["passed"] and "witness" in check:
                lines.append(f"        witness: {json.dumps(check['witness'])}")
    derived = report.get("derived")
    if derived:
        lines.append("")
        if "a_sup" in derived:
            lines.append("A_sup:")
            lines.extend(_fmt_matrix(derived["a_sup"]))
            lines.append("A_inf:")
            lines.extend(_fmt_matrix(derived["a_inf"]))
        lam = derived.get("lambda_star")
        if lam:
            witness = lam["witness"]
            cyc = " on cycle " + "->".join(map(str, witness)) if witness else ""
            lines.append(f"lambda* = {lam['value']}{cyc}")
        for key in ("alpha", "beta", "w", "v"):
            if key in derived:
                lines.append(f"{key} = {_fmt_vector(derived[key])}")
        if "gamma" in derived:
            lines.append("gamma:")
            lines.extend(_fmt_matrix(derived["gamma"]))
    for mode, sect in report.get("bounds", {}).items():
        lines.append("")
        lines.append(f"{mode} bound: {sect['overall']}"
                     f" (argmax entry ({sect['argmax']['i']},{sect['argmax']['j']})"
                     f" via {sect['argmax']['term']})")
        lines.append(f"  sufficient length: k >= {sect['min_sufficient_length']}")
        if sect.get("lambda_star_undefined"):
            lines.append("  note: no cycle avoids node 1; quotients taken as 0")
        if "length_sufficient" in sect:
            verdict = "guaranteed" if sect["length_sufficient"] else "not guaranteed"
            lines.append(f"  sequence length {sect['sequence_length']}: rank-one {verdict}")
        lines.append("  term1:")
        lines.extend(_fmt_matrix(sect["term1"], indent="    "))
        lines.append("  term2:")
        lines.extend(_fmt_matrix(sect["term2"], indent="    "))
    check = report.get("check")
    if check:
        lines.append("")
        lines.append(f"product of {check['length']} factors:")
        lines.extend(_fmt_matrix(check["product"]))
        if check["rank_one"]:
            lines.append("rank-one: yes")
            lines.append(f"  column factor = {_fmt_vector(check['factors']['column'])}")
            lines.append(f"  row factor    = {_fmt_vector(check['factors']['row'])}")
        else:
            lines.append("rank-one: NO")
        lines.append(f"w* = {_fmt_vector(check['w_star'])}")
        lines.append(f"v* = {_fmt_vector(check['v_star'])}")
        agree = "agree" if check["consistent"] else "DISAGREE"
        lines.append(f"product column/row 1 and walk DP {agree}")
    transient = report.get("transient")
    if transient:
        lines.append("")
        lines.append(
            f"transient scan ({transient['mode']}), horizon {transient['horizon']}: "
            f"examined {transient['examined']} products"
        )
        first = transient["first_all_rank_one"]
        if first is None:
            lines.append(f"  length {transient['horizon']}, the longest scanned,"
                         " still had a counterexample")
        else:
            lines.append(f"  all examined products rank-one from length {first} on")
        cc = transient["counterexample_count"]
        lines.append(f"  counterexamples: {cc}")
        for item in transient["counterexamples"][:5]:
            lines.append(f"    length {item['length']}: {tuple(item['indices'])}")
        if cc > 5:
            lines.append("    ...")
    lemmas = report.get("lemma_checks")
    if lemmas:
        lines.append("")
        lines.append(f"walk-structure checks: {'all hold' if lemmas['all_hold'] else 'FAILURES'}")
        for key, sect in lemmas.items():
            if key == "all_hold":
                continue
            mark = "ok" if sect["holds"] else "FAIL"
            lines.append(
                f"  [{mark}] {key}: {sect['checked']} checked, {sect['skipped']} skipped"
            )
    deviations = report.get("deviations")
    if deviations is not None:
        lines.append("")
        lines.append(f"deviations from expected values: {len(deviations)}")
        for d in deviations:
            pos = "".join(f"[{p}]" for p in d["position"])
            lines.append(f"  {d['field']}{pos}: computed {_fmt_value(d['computed'])}, "
                         f"expected {_fmt_value(d['expected'])}")
    lines.append("")
    return "\n".join(lines)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "pretty":
        return render_pretty(report)
    raise ValueError(f"unknown format {fmt!r}")


def schema_text() -> str:
    return resources.files("tropical_transient").joinpath("report.schema.json").read_text(
        encoding="utf-8"
    )
