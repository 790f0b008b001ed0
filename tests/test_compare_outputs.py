"""The output-diff harness: a tree matches itself, and a changed number is named by its field."""

from pathlib import Path

import numpy as np

import compare_outputs

ROOT = Path(__file__).resolve().parents[1]


def test_the_working_tree_matches_itself_on_the_preset():
    result = compare_outputs.compare(ROOT, only=["preset"])
    assert compare_outputs.identical(result), compare_outputs.report(result)
    cli, library = result["cli"], result["library"]
    # 23 runs from each of t = 0 and t = 1, each with a stdout and a stderr
    assert cli["runs"] == 46 and cli["outputs"] >= 2 * cli["runs"]
    assert library["cases"] == 2 and library["outcomes"] > 100


def test_a_changed_number_is_named_by_its_field():
    jsonl = '{"stage": 0, "j_star": 1.0, "deviation": [0.5, 2.0]}\n'
    assert compare_outputs.compare_texts(jsonl, jsonl) is None
    moved = compare_outputs.compare_texts(jsonl, jsonl.replace("2.0]", "2.000000000000001]"))
    assert list(moved) == ["deviation[]"] and 0 < moved["deviation[]"] < 1e-15
    assert compare_outputs.compare_texts("a,b\n1,2\n", "a,b\n1,3\n") == {"b": 1 / 3}
    assert compare_outputs.compare_texts("cost: 1.5 (se 2e-3)\n", "cost: 1.25 (se 2e-3)\n") == {"cost: [0]": 0.25 / 1.5}
    # anything but a number is a difference of the text
    assert compare_outputs.compare_texts("open-loop: PASS\n", "open-loop: FAIL\n") == {"text": float("inf")}
    assert compare_outputs.compare_arrays(np.array([1.0, 2.0]), np.array([1.0, 2.0])) is None
    assert compare_outputs.compare_arrays(np.array([1.0, -0.0]), np.array([1.0, 0.0])) == 0.0
