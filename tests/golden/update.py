"""Golden corpus of multlab's verify reports and CLI CSVs, and its diff tool.

Each case is a directory beside this file holding ``config.cfg`` and the
CSV files that the CLI commands listed for it in ``CASES`` write, all at
sieve 10^6.  ``tests/test_golden.py`` reruns every case and compares:

* partial-sums CSVs of a +/-1 spec (exact integer sums): byte for byte;
* every other CSV: the header and every text column exactly (check names,
  statuses, x, spec_id, kind, window, point counts, the s-point,
  truncation_N, the heuristic flag, method), and each float column
  of ``FLOAT_COLUMNS`` within ``REL_TOL`` relative, or ``ABS_TOL`` absolute
  for values that are themselves rounding residuals (near zero, where a
  relative bound means nothing).

The float slack is there because numpy's float64 log, exp, sin and cos may
take SIMD paths that differ by a few ulps across CPUs and numpy versions.

Usage, from the repository root::

    python tests/golden/update.py --diff     # print each moved line, old and new
    python tests/golden/update.py --update   # rewrite the corpus from this tree

``--diff`` prints nothing and exits 0 when no line moved.  A change that
rewrites the corpus says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

VERIFY = (("verify",),)
TRACES = tuple(
    ("partial-sums", "--kind", kind) for kind in ("F_plain", "H_conv", "G_conv", "F_mu2")
) + (("prime-sum",), ("exponent",))
SERIES = tuple(
    ("series", "--which", which) for which in ("zeta", "F", "H", "Fmu2", "G_sum", "U", "G_product")
)

#: case directory -> the CLI commands run on its config.cfg
CASES = {
    "verify-default": VERIFY,
    "verify-power-decay-exc3": VERIFY,
    "verify-constant-neg": VERIFY,
    "verify-power-decay": VERIFY,
    "verify-constant-pos": VERIFY,
    "verify-short-trace": VERIFY,
    "traces-liouville": TRACES,
    "traces-liouville-exc": TRACES,
    "traces-power-decay": TRACES,
    "traces-constant-exc-large": TRACES,
    "series-power-decay": SERIES,
    "series-constant-zero": SERIES,
}

FLOAT_COLUMNS = frozenset(
    {"measured", "budget", "sum", "alpha_hat", "stderr", "value_re", "value_im", "tail_bound"}
)
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Moved:
    """One corpus line whose text changed (``lineno`` 0: the file itself)."""

    path: str
    lineno: int
    old: str
    new: str
    within_tolerance: bool

    def __str__(self) -> str:
        mark = "" if self.within_tolerance else "  [outside tolerance]"
        return f"{self.path}:{self.lineno}: {self.old} -> {self.new}{mark}"


def run_case(case: str, out: Path) -> None:
    """Run the CLI commands of ``case`` on its config, writing CSVs to ``out``."""
    from multlab.cli import main

    config = GOLDEN / case / "config.cfg"
    for command in CASES[case]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, "--config", str(config), "--out", str(out)])
        if code not in (0, 1):  # verify exits 1 when a check fails
            raise RuntimeError(f"{case}: {' '.join(command)} exited {code}")


def _exact_sums(case: str) -> bool:
    from multlab.config import load_config
    from multlab.multfunc import spec_is_pm1

    return spec_is_pm1(load_config(GOLDEN / case / "config.cfg").spec)


def _same_value(column: str, old: str, new: str, floats: bool) -> bool:
    if old == new:
        return True
    if not floats or column not in FLOAT_COLUMNS:
        return False
    try:
        a, b = float(old), float(new)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_file(path: str, old_text: str, new_text: str, floats: bool) -> list[Moved]:
    """Moved lines between two CSV texts; ``floats`` enables the float slack."""
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    header = old_lines[0].split(",") if old_lines else []
    moved = []
    for i in range(max(len(old_lines), len(new_lines))):
        old = old_lines[i] if i < len(old_lines) else "<none>"
        new = new_lines[i] if i < len(new_lines) else "<none>"
        if old == new:
            continue
        a, b = old.split(","), new.split(",")
        ok = (
            i > 0
            and len(a) == len(b) == len(header)
            and all(_same_value(col, x, y, floats) for col, x, y in zip(header, a, b))
        )
        moved.append(Moved(path, i + 1, old, new, ok))
    return moved


def compare_case(case: str, out: Path) -> list[Moved]:
    """Every moved line of ``case`` between the corpus and the CSVs in ``out``."""
    exact = _exact_sums(case)
    names = sorted({p.name for d in (GOLDEN / case, out) for p in d.glob("*.csv")})
    moved = []
    for name in names:
        path = f"{case}/{name}"
        old, new = GOLDEN / case / name, out / name
        if not (old.exists() and new.exists()):
            state = ("<none>", "written") if new.exists() else ("present", "<none>")
            moved.append(Moved(path, 0, *state, False))
            continue
        floats = not (exact and name.startswith("partial_sums_"))
        moved.extend(compare_file(path, old.read_text(), new.read_text(), floats))
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--diff", action="store_true", help="print every moved line")
    action.add_argument("--update", action="store_true", help="rewrite the corpus")
    args = parser.parse_args(argv)
    moved: list[Moved] = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = Path(tmp) / case
            run_case(case, out)
            if args.update:
                for stale in (GOLDEN / case).glob("*.csv"):
                    stale.unlink()
                for fresh in out.glob("*.csv"):
                    shutil.copyfile(fresh, GOLDEN / case / fresh.name)
            else:
                moved.extend(compare_case(case, out))
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main())
