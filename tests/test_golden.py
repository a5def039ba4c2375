"""The checked-in golden outputs match what the code prints now
(``scripts/golden.py --check``, run in this process)."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_files():
    golden = load_golden()
    assert golden.compare(golden.read(golden.GOLDEN), golden.outputs()) == []


def test_a_changed_digit_names_the_file_and_line():
    golden = load_golden()
    want = {"a/out.csv": "n,error\n2,0.125\n4,0.0625\n"}
    assert golden.compare(want, dict(want)) == []
    assert golden.compare(want, {"a/out.csv": "n,error\n2,0.125\n4,0.0626\n"}) == [
        "tests/golden/a/out.csv:3: expected '4,0.0625\\n', got '4,0.0626\\n'"]
    # Within the relative 1e-12 a number matches; an integer or a word must match exactly.
    assert golden.compare(want, {"a/out.csv": "n,error\n2,0.12500000000000003\n4,0.0625\n"}) == []
    assert golden.compare(want, {"a/out.csv": "n,error\n3,0.125\n4,0.0625\n"}) != []
    assert golden.compare({"v": "verdict=bound-satisfied\n"},
                          {"v": "verdict=bound-violated\n"}) != []
    assert golden.compare(want, {}) == [
        "tests/golden/a/out.csv: checked in, but no longer produced"]
