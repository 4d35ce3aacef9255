"""The byte contract: CLI reports reproduced byte for byte from tests/golden/.

Each case runs through `cli.main` with tests/golden/ as the working
directory, so the input paths the reports echo stay relative.  The files
CASE.stdout, CASE.stderr and CASE.exit hold what the command wrote and
returned.  A deliberate change to a report edits its golden files in the same
change; `PYTHONPATH=src python tests/test_golden.py` rewrites every one from the current
tree, and the diff is then the report change to review.  Every byte is
compared: no report prints a float from a matrix product, and the few
decimals printed are exact rationals rounded to four places.

Left out on purpose: `reproduce-all --n-range 4..5`.  It exits 2 because
criterion 10's "second half <= first half" trend heuristic reads a two-point
sweep as growth, and a golden file would hold that known defect as the
contract.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qperm.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce-all": ["reproduce-all"],
    "reproduce-all-seed-7": ["reproduce-all", "--seed", "7"],
    "reproduce-all-csv": ["reproduce-all", "--csv"],
    "reproduce-all-k3-n12-csv": [
        "reproduce-all", "--k-max", "3", "--n-range", "4..12", "--seed", "3", "--csv",
    ],
    "reproduce-all-k5-n9": [
        "reproduce-all", "--k-max", "5", "--n-range", "4..9", "--seed", "11",
    ],
    "urn-quantum": ["urn", "quantum", "--n", "5", "--lam", "1,1/2,0,0,-1", "--j", "1,2,1,3"],
    "urn-classical": ["urn", "classical", "--n", "5", "--lam", "1,1/2,0,0,-1", "--j", "1,2,1,3"],
    "urn-gap": ["urn", "gap", "--n", "6", "--lam", "1,1,1,0,0,0", "--j", "1,2,1,2"],
    "urn-gap-classical-scaled": ["urn", "gap", "--n", "3", "--lam", "2,-1/2,0", "--j", "1,2,1"],
    "weingarten-table": ["weingarten", "table", "--k", "4", "--n", "5"],
    "weingarten-table-k8": ["weingarten", "table", "--k", "8", "--n", "5"],
    "weingarten-dk": ["weingarten", "dk", "--k", "3", "--n-range", "4..9"],
    "weingarten-asym-k4": ["weingarten", "asym", "--k", "4", "--n-range", "4..60"],
    "weingarten-asym-pair": [
        "weingarten", "asym", "--k", "3", "--n-range", "4..9", "--p", "1|2|3", "--q", "1,2,3",
    ],
    "haar-moment": ["haar", "moment", "--n", "5", "--i", "1,2,1", "--j", "3,4,3"],
    "partitions-enum-nc-csv": ["partitions", "enum", "--k", "4", "--nc", "--csv"],
    "partitions-mobius": ["partitions", "mobius", "--p", "1|2|3|4", "--q", "1,2,3,4"],
    "cumulants-convert-spec": ["cumulants", "convert", "--spec", "spec.json", "--word", "c,c,c,c"],
    "cumulants-convert-moments": ["cumulants", "convert", "--moments", "mf.json", "--word", "a,a"],
    "cumulants-free-moment": [
        "cumulants", "free-moment", "--spec", "spec.json",
        "--letters", "c,c,c,c", "--labels", "1,2,1,2",
    ],
    "cumulants-check-free": [
        "cumulants", "check-free", "--moments", "tensor.json", "--families", "a=1,b=2",
    ],
    "magic-validate-line": ["magic", "validate", "--line", "3,4"],
    "magic-validate-perm": ["magic", "validate", "--perm", "2,1,3"],
    "magic-invariance-line": [
        "magic", "invariance", "--line", "3,4", "--moments", "labels.json", "--degree", "4",
    ],
    "magic-invariance-perm": [
        "magic", "invariance", "--perm", "2,1,4,3", "--moments", "labels.json", "--degree", "4",
    ],
}

def run_case(argv):
    """(stdout, stderr, exit code) of `qperm argv`, in the current directory."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), f"{code}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    stdout, stderr, code = run_case(CASES[case])
    assert code == (GOLDEN / f"{case}.exit").read_text()
    assert stderr == (GOLDEN / f"{case}.stderr").read_text()
    assert stdout == (GOLDEN / f"{case}.stdout").read_text()


def test_every_golden_file_has_a_case():
    names = {p.name.rsplit(".", 1)[0] for p in GOLDEN.glob("*.std*")}
    assert names == set(CASES)


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        for suffix, text in zip(("stdout", "stderr", "exit"), run_case(argv)):
            Path(f"{name}.{suffix}").write_text(text)
