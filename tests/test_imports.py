"""Which modules a run loads: the GF(p) commands never import the Section-6
layer (skewrank.cyclotomic, and with it fractions and decimal), while the
package still exports that layer's names.

Each load check runs in a fresh interpreter, since this one has imported
everything the other tests use.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import skewrank
from skewrank import cyclotomic
from skewrank.report import _json

from conftest import child_env

SECTION6_LAYER = ("fractions", "decimal", "skewrank.cyclotomic")
GFP_LAYER = ("numpy", "skewrank.decomposition")


def child(code: str) -> str:
    """Standard output of a fresh interpreter running `code`, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli_run(argv: str) -> str:
    """Code that runs one passing command in-process, its report discarded."""
    return f"from skewrank.cli import main\nassert main({[*argv.split(), '--output', os.devnull]!r}) == 0"


def loaded_after(code: str) -> dict[str, bool]:
    """Which modules of both layers a fresh interpreter holds after running `code`."""
    names = [*SECTION6_LAYER, *GFP_LAYER]
    out = child(f"{code}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {names!r}}}))")
    return json.loads(out)


@pytest.mark.parametrize("step", ["import skewrank", "import skewrank.cli", "oracle --p 3 --n 4",
                                  "verify --theorem TC --p 3 --n 8"])
def test_gfp_runs_load_the_gfp_layer_and_not_section6(step):
    loaded = loaded_after(step if step.startswith("import ") else cli_run(step))
    assert [m for m in SECTION6_LAYER if loaded[m]] == []
    assert [m for m in GFP_LAYER if not loaded[m]] == []  # what setup_s measures


@pytest.mark.parametrize("argv", ["section6 --grid 1 --samples 5",
                                  "report-all --p 3 --n 4 --grid 1 --samples 5"])
def test_section6_runs_load_the_cyclotomic_layer(argv):
    assert loaded_after(cli_run(argv))["skewrank.cyclotomic"]


def test_star_import_binds_every_exported_name():
    code = ("from skewrank import *\nimport skewrank\n"
            "print(sorted(name for name in skewrank.__all__ if name not in globals()))")
    assert child(code) == "[]\n"


def test_lazy_exports_are_the_cyclotomic_objects():
    assert skewrank.verify_section6 is cyclotomic.verify_section6
    for name in ("CycloElement", "TernaryForm", "isotropic_witness", "legendre_solvable"):
        assert getattr(skewrank, name) is getattr(cyclotomic, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        skewrank.no_such_name  # noqa: B018


def test_report_json_renders_fractions_and_leaves_integers_alone():
    assert _json(Fraction(3, 4)) == "3/4"
    assert _json((Fraction(-6), Fraction(1, 2))) == ["-6", "1/2"]
    for value in (7, -1, True, False, np.int64(5)):
        out = _json(value)
        assert out == value and type(out) is type(value)
