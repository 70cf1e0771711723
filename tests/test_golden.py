"""The golden corpus: verify reports and CLI CSVs of fixed configs stay put.

The corpus, its comparison rules and ``--diff`` / ``--update`` live in
``tests/golden/update.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_update", Path(__file__).parent / "golden" / "update.py"
)
golden = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_outputs_match_the_golden_corpus(tmp_path, case):
    golden.run_case(case, tmp_path)
    moved = [m for m in golden.compare_case(case, tmp_path) if not m.within_tolerance]
    assert not moved, "\n".join(map(str, moved))


def test_comparison_rules():
    old = "check_name,status,measured,budget\nzeta,pass,1.5,1e-10\n"

    def moved(new, floats=True):
        return golden.compare_file("report.csv", old, new, floats)

    assert moved(old) == []
    # a few-ulp float move is reported but allowed; a real one is not
    (drift,) = moved("check_name,status,measured,budget\nzeta,pass,1.5000000000000002,1e-10\n")
    assert drift.within_tolerance and drift.lineno == 2
    assert drift.old == "zeta,pass,1.5,1e-10"
    (jump,) = moved("check_name,status,measured,budget\nzeta,pass,1.6,1e-10\n")
    assert not jump.within_tolerance
    # text columns, headers, row counts and exact files allow no slack at all
    for new in (
        "check_name,status,measured,budget\nzeta,fail,1.5,1e-10\n",
        "check_name,status,measured,budget\nzeta2,pass,1.5,1e-10\n",
        "check_name,status,value,budget\nzeta,pass,1.5,1e-10\n",
        "check_name,status,measured,budget\nzeta,pass,1.5,1e-10\nextra,pass,0,0\n",
        "check_name,status,measured,budget\n",
    ):
        assert [m.within_tolerance for m in moved(new)] == [False], new
    ulp_move = "check_name,status,measured,budget\nzeta,pass,1.5000000000000002,1e-10\n"
    (exact,) = moved(ulp_move, floats=False)
    assert not exact.within_tolerance
    # x is a text column: a shifted checkpoint is a move, whatever its size
    (shifted,) = golden.compare_file("p.csv", "x,sum\n10,1\n", "x,sum\n11,1\n", True)
    assert not shifted.within_tolerance
