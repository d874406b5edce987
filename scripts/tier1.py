#!/usr/bin/env python3
"""Run the tier-1 test suite and check that only the by-design failures fail.

Five acceptance tests stay red on purpose: the published values they check
(C1, C2, C3 and two C7 registry rows) are refuted by exhaustive computation
(see README).  This script runs the tier-1 command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

from the repository root, prints the pass count and then the total line
count of src/sbox_spectra/*.py (the net source size the ROADMAP tracks), and
exits 0 exactly when the set of failed or erroring tests is those five;
otherwise it lists the unexpected failures and the expected ones that
passed, and exits 1.  Every collected test runs.

Usage: python scripts/tier1.py
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BY_DESIGN = {
    "tests/test_acceptance.py::test_c01_fbct_x11_exact_reproduction",
    "tests/test_acceptance.py::test_c02_fbct_x19_exact_reproduction",
    "tests/test_acceptance.py::test_c03_fbct_2m5_examples",
    "tests/test_acceptance.py::test_c07_registry_named_rows[inverse-p2n5]",
    "tests/test_acceptance.py::test_c07_registry_named_rows[x5-oddp-p5n2]",
}


def node_id(case: ET.Element) -> str:
    """The pytest node id of a JUnit test case of a test module."""
    return f"{case.get('classname', '').replace('.', '/')}.py::{case.get('name', '')}"


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {node_id(c) for c in cases if c.find("failure") is not None or c.find("error") is not None}
    skipped = sum(c.find("skipped") is not None for c in cases)
    print(f"tier-1: {len(cases) - len(failed) - skipped} passed, {len(failed)} failed, "
          f"{skipped} skipped")
    sources = (ROOT / "src" / "sbox_spectra").glob("*.py")
    print(f"src/sbox_spectra/*.py: {sum(len(p.read_bytes().splitlines()) for p in sources)} lines")
    for test in sorted(failed - BY_DESIGN):
        print(f"unexpected failure: {test}")
    for test in sorted(BY_DESIGN - failed):
        print(f"by-design failure now passes: {test}")
    return 0 if failed == BY_DESIGN else 1


if __name__ == "__main__":
    sys.exit(main())
