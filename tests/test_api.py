"""The public names of the package, pinned so that API growth shows in a diff."""

import ast
import inspect
from pathlib import Path

import pytest

import foldruns

PUBLIC_NAMES = [
    "AutomatonFormatError",
    "CheckReport",
    "Counterexample",
    "EXPECTED_PALINDROMES",
    "EXPECTED_SQUARES",
    "EndRelationOracle",
    "FoldCode",
    "GapOracle",
    "InferenceError",
    "InvalidCodeError",
    "MAX_ALPHA_INDEX",
    "MINUS",
    "MaterializationLimitError",
    "MultiTrackAutomaton",
    "PAD",
    "PLUS",
    "PaperfoldingWord",
    "RegularEndOracle",
    "RegularLengthOracle",
    "RegularStartOracle",
    "RunDecomposition",
    "RunLengthOracle",
    "SUITES",
    "StartRelationOracle",
    "WordOracle",
    "accepted_numeric_values",
    "accepted_second_values",
    "all_codes",
    "alpha_value",
    "as_code",
    "assoc_code",
    "build_semantic_automaton",
    "build_tt",
    "canonical",
    "cf_from_rational",
    "cf_theorem_check",
    "cf_to_rational",
    "combine_value_acceptors",
    "complexity",
    "encode_inputs",
    "equivalent",
    "find_overlaps",
    "find_palindromes",
    "find_squares",
    "fold_step",
    "folded_alpha",
    "gap_wellformedness",
    "infer_automaton",
    "is_valid_code",
    "min_code_length",
    "minimize",
    "no_triple_extension",
    "overlapfree",
    "palindromes",
    "paperfolding_term",
    "paperfolding_word",
    "predicted_cf",
    "predicted_end_positions",
    "prop1",
    "prop4",
    "read_automaton",
    "regular_gap_value",
    "regular_run_end",
    "regular_run_length",
    "regular_run_span",
    "regular_run_start",
    "regular_suite",
    "right_extension_map",
    "right_special_count",
    "right_special_exactly_four",
    "run_decompose",
    "run_length_word",
    "run_span",
    "run_suite",
    "runs_suite",
    "set_parity",
    "sp_suite",
    "specialize_regular",
    "squares_only",
    "squares_present",
    "subword_complexity",
    "thm3",
    "to_dot",
    "valid_code_length_automaton",
    "verify_exhaustive",
    "window_bound",
    "write_automaton",
]


def test_public_names_are_pinned():
    # submodules are attributes too, but not exports
    exported = sorted(
        name
        for name, value in vars(foldruns).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
    assert len(exported) == 87


@pytest.mark.parametrize(
    "path",
    sorted(Path(foldruns.__file__).parent.glob("*.py")),
    ids=lambda p: p.name,
)
def test_package_imports_sit_at_module_level(path):
    # a function-local import inside the package hides a dependency cycle
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert local == []


def _private_definitions_and_uses():
    """(name, file, line) of each private def or class in the package, and every use.

    A use is a name read or an attribute, so an import alone is not one.
    """
    defined, used = [], set()
    for path in sorted(Path(foldruns.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, path.name, node.lineno))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_definition_is_used_in_the_package():
    # a helper that only tests still call, or that a deletion left behind
    defined, used = _private_definitions_and_uses()
    assert defined
    assert [d for d in defined if d[0] not in used] == []
