"""Report bytes: every file in golden/ is the exact stdout of one run.

A file's name is its argv joined by "_" (`verify_--theorem_TA_--p_3_--n_6.out`
is `verify --theorem TA --p 3 --n 6`), at seed 0 unless the argv names
another.  To record a new reference, or to accept a change of report bytes,
write the run's stdout over the file:

    python -m skewrank verify --theorem TA --p 3 --n 6 > tests/golden/verify_--theorem_TA_--p_3_--n_6.out

What the files freeze:
- TA and RemarkC: these reports do not depend on which non-degenerate j,
  eigenvector b0 or coset step is chosen.  RemarkC is recorded at
  l = 3, 5, 7 and 11, the modulus of its expected pattern.
- Sampled walks (TC (3, 8) at cap 1, oracle (3, 16) at cap 200, direct-sum
  (5, 6) at cap 2000) at several seeds: how rows are drawn and cut into
  blocks may change, the reports may not.  TC (3, 8) at cap 1 draws an
  all-zero row, and so redraws it, at seeds 0, 2, 3 and 8.
- Section 6 reports counts, not its random fractions, so the order in which
  it draws them may change too.
- `oracle --p P --n N` at (3, 5), (5, 6), (3, 8), (7, 4) and (3, 10): the
  bytes of the census that ranked every nonzero element for every i in
  1..n-1, the slow path the coset census is checked against.
- `verify` TC (3, 16), direct-sum (3, 8) and TA (11, 10) at cap 200000:
  the bytes of the exhaustive spectra that ranked every nonzero element of
  each space (161 050 per TA space), the slow path the coset walk of each
  space is checked against.
- `verify` RemarkC (11, 32) at i = 3 and (19, 32), at caps that admit
  their slices: the bytes of the walk that ranked every odd exponent
  (130 320 at (19, 32)), the slow path the coset walk of E_i is checked
  against.
- `--format text`: the whole text rendering of one report per verb.
"""

import difflib
from pathlib import Path

import pytest

from skewrank.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# files recorded so far; pytest skips an empty parameter set, so a lost
# directory or file has to fail here
RECORDED = 45


def test_golden_directory_holds_every_reference():
    assert GOLDEN.is_dir(), GOLDEN
    names = sorted(path.name for path in GOLDEN.iterdir())
    assert [name for name in names if not name.endswith(".out")] == []
    assert len(names) >= RECORDED


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.out")), ids=lambda path: path.stem)
def test_report_matches_its_golden_file(capsys, path):
    code = main(path.stem.split("_"))
    out = capsys.readouterr().out
    assert code == 0
    expected = path.read_bytes().decode("utf-8")  # read_text would translate line ends
    if out != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True), out.splitlines(keepends=True),
                                    f"golden/{path.name}", "stdout")
        pytest.fail("".join(diff), pytrace=False)
