"""The package root exports only names that something besides the tests
uses, and its classes only methods and properties that something besides
the tests calls.

``PUBLIC`` pins ``tropical_transient.__all__``.  Each of its names must be
referenced in ``src/`` other than by its own definition and the package
root's import, in README.md, or in the benchmark (``perfbench/``,
``benchmarks/``).  A new export therefore comes with a caller.  The same
texts must hold a ``.name`` reference for every public method and property
of an exported class; dunders and dataclass fields are exempt.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import tropical_transient

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AssumptionCheck", "AssumptionError", "BoundReport", "BudgetExceededError",
    "CycleMeanResult", "DimensionError", "EPSILON", "Epsilon", "FamilyFileError",
    "LemmaCheck", "LemmaReport", "MatrixFamily", "PivotError", "ProductSequence",
    "SupDerived", "TransientEstimate", "TrellisDigraph", "TropicalError",
    "TropicalMatrix", "ValidationReport", "WalkSummary", "Weight",
    "avoiding_walk_weights", "best_avoiding_full_weight", "best_paths_from_one",
    "best_paths_to_one", "best_through_one_weight", "bounds", "build_trellis",
    "check_lemma_bounds", "check_length_sufficient", "compute_bound_report",
    "digraph", "errors", "estimate_transient", "explicit_bound", "family",
    "final_weights_all", "fold", "geometrically_equivalent", "implicit_bound",
    "implicit_sequence_bound", "initial_weights_all", "io", "is_irreducible",
    "lambda_star", "load_expected", "load_family", "load_sequence", "matrix",
    "max_cycle_mean", "optimal_final_walk", "optimal_full_walk",
    "optimal_initial_walk", "products", "rank_one_factor", "semiring", "trellis",
    "weight_from_token", "weight_token",
]


def caller_texts() -> list[str]:
    root_init = ROOT / "src" / "tropical_transient" / "__init__.py"
    paths = [p for p in sorted((ROOT / "src").rglob("*.py")) if p != root_init]
    for tree in ("perfbench", "benchmarks"):
        paths += [p for p in sorted((ROOT / tree).rglob("*")) if p.suffix in (".py", ".md")]
    paths.append(ROOT / "README.md")
    return [p.read_text(encoding="utf-8") for p in paths]


def test_exports_are_pinned():
    assert sorted(tropical_transient.__all__) == PUBLIC
    assert len(PUBLIC) <= 61


def test_every_export_has_a_caller_outside_the_tests():
    texts = caller_texts()
    unreferenced = []
    for name in PUBLIC:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(?:(?:def|class)\s+{name}\b|{name}\s*[:=])")
        if not any(word.search(line) and not definition.match(line)
                   for text in texts for line in text.splitlines()):
            unreferenced.append(name)
    assert unreferenced == []


def public_members() -> list[tuple[str, str]]:
    """(class, attribute) for every public method and property of the
    exported classes, inherited ones from package classes included."""
    out = []
    for name in PUBLIC:
        cls = getattr(tropical_transient, name)
        if not inspect.isclass(cls):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for base in cls.__mro__:
            if not base.__module__.startswith("tropical_transient"):
                continue
            out += [(name, attr) for attr in vars(base)
                    if not attr.startswith("_") and attr not in fields]
    return out


def test_every_public_method_has_a_caller_outside_the_tests():
    members = public_members()
    assert ("MatrixFamily", "a_sup") in members
    assert ("TropicalMatrix", "from_rows") in members
    assert ("WalkSummary", "weight") not in members  # a dataclass field
    texts = caller_texts()
    unreferenced = [
        f"{cls}.{attr}" for cls, attr in members
        if not any(re.search(rf"\.{attr}\b", text) for text in texts)
    ]
    assert unreferenced == []
