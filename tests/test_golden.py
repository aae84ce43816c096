"""Golden outputs: sha256 digests of the stdout and exit code of ``closedform``
(every builtin spec kind, degree 6), ``decompose`` and ``genfun --series`` to
degree 12 (the regular character and every irreducible; ``decompose`` also of
the natural character) and ``verify`` on a fixed set of groups, of the rational
``genfun`` of every linear character against every irreducible on RATIONAL,
of the rational ``genfun`` (both ops) of the regular character and of every
irreducible of degree >= 2 against every irreducible on FORMS, and of every
script under demos/.

The digests in golden_digests.json were recorded from an earlier version of
the program; a refactor must keep every one.  To re-record after an intended
change of output:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symext.catalog import central_characters, get_group, named_subgroups, parse_group_selector
from symext.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
ROOT = Path(__file__).resolve().parent.parent
GROUPS = ["S3", "A4", "S4", "G21", "A5", "D2n:6", "D2n:7", "Q4n:3", "Q4n:4", "Hp:3", "Hp:5"]
RATIONAL = ["S3", "S4", "D2n:6", "Hp:3"]
FORMS = ["S3", "A4", "S4", "G21", "A5", "D2n:6", "Q4n:3", "Hp:3"]


def golden_cases() -> list[str]:
    """Every closedform spec the catalog attaches to GROUPS, the series of the
    regular and natural characters and of every irreducible, verify on each,
    the rational forms of linear characters on RATIONAL and of the regular
    character and the irreducibles of degree >= 2 on FORMS, the demos."""
    cases, series, rational = [], [], []
    for group in GROUPS:
        family, param = parse_group_selector(group)
        table = get_group(family, param)
        specs = ["regular", "regular:2"]
        specs += [f"quotient:{name}" for name in sorted(named_subgroups(family, param))]
        specs += [f"central:{name}" for name in sorted(central_characters(family, param))]
        specs += [f"onedim:{lbl}" for lbl, d in zip(table.labels, table.degrees()) if d == 1]
        cases += [f"closedform --group {group} --spec {s} --degree 6" for s in specs]
        for char in ["regular", *table.labels]:
            series += [f"decompose --group {group} --char {char} --op {op} --degree 12"
                       for op in ("sym", "ext")]
            series.append(
                f"genfun --group {group} --char {char} --irr {table.labels[-1]} --series 12"
            )
        series += [f"decompose --group {group} --char natural --op {op} --degree 12"
                   for op in ("sym", "ext")]
        if group in RATIONAL:
            rational += [f"genfun --group {group} --char {lin} --irr {irr} --op sym"
                         for lin, d in zip(table.labels, table.degrees()) if d == 1
                         for irr in table.labels]
        if group in FORMS:
            chars = ["regular"] + [lbl for lbl, d in zip(table.labels, table.degrees()) if d >= 2]
            rational += [f"genfun --group {group} --char {char} --irr {irr} --op {op}"
                         for char in chars for irr in table.labels for op in ("sym", "ext")]
    demos = [f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("*.py"))]
    verify = [f"verify --group {group}" for group in GROUPS]
    return cases + series + rational + verify + demos


def digest(case: str) -> str:
    if case.startswith("demos/"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, case], cwd=ROOT, env=env, capture_output=True)
        code, text = run.returncode, run.stdout.decode()
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(case.split())
        text = out.getvalue()
    return f"{code} {hashlib.sha256(text.encode()).hexdigest()}"


def test_golden_case_list_is_complete():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(golden_cases())


@pytest.mark.parametrize("case", golden_cases())
def test_golden_output(case):
    assert digest(case) == json.loads(DIGESTS.read_text())[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DIGESTS.write_text(
        json.dumps({case: digest(case) for case in golden_cases()}, indent=1, sort_keys=True)
        + "\n"
    )
