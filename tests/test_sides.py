"""Golden residuals of single-line catalog mutants.

Each mutant breaks one coefficient of the packaged catalog in a copy of
its data directory.  The checks it breaks are run at the rational point
of scripts/verify_all.py and their reports, timing aside, must equal the
fixture byte for byte: labels, rendered residuals, their order, status
and the echoed parameters.  Between them the mutants break both sides of
the comodule, coaction, containment, primitive and invariance checks, so
the fixture pins what each mirror side reports.

At the rational point k/rho is a number, so the invariance elements
have constant coefficients.  The Y-coefficient mutants are also run with
only h bound, where k/rho and kprime/rhoprime stay fractions, and their
invariance reports are pinned in a second fixture: there the checks
clear a true denominator and must divide it back into each residual.
"""

import json
import shutil
from pathlib import Path

import pytest

from jqsphere.catalog import default_catalog_dir
from jqsphere.checks import run_check
from jqsphere.jordanian import build_catalog

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "sides_golden.json"
SYMBOLIC_FIXTURE = DATA / "sides_symbolic_golden.json"

RATIONAL = {"h": 1, "k": 2, "rho": 3, "kprime": 1, "rhoprime": 2}
# k, rho, kprime and rhoprime stay symbolic
SYMBOLIC = {"h": 1}
SYMBOLIC_MUTANTS = ("PL-Y-coefficient", "PR-Y-coefficient")
INVARIANCE = ("invariance-PL", "invariance-PR", "invariance-products")

# name -> (file, old text, new text, checks the mutation breaks)
MUTANTS = {
    "embed-right-kprime": (
        "maps.cat",
        "- kprime*(d^2 - (3/4)*h^2*c^2)",
        "- kprime*(d^2 - (5/4)*h^2*c^2)",
        (
            "embedding-right-beta",
            "embedding-matrix-form",
            "containment-right",
            "invariance-PR",
            "invariance-products",
        ),
    ),
    "PR-Y-coefficient": (
        "maps.cat",
        "4*h*(kprime/rhoprime)*Y",
        "3*h*(kprime/rhoprime)*Y",
        ("primitive-PR", "invariance-PR", "invariance-products"),
    ),
    "PL-Y-coefficient": (
        "maps.cat",
        "4*h*(k/rho)*Y",
        "3*h*(k/rho)*Y",
        ("primitive-PL", "invariance-PL", "invariance-products"),
    ),
    "matrix-entry-pm": (
        "maps.cat",
        "entry p m : (1/2)*c^2",
        "entry p m : (3/2)*c^2",
        (
            "grouplike-j1",
            "comodule-left",
            "comodule-right",
            "coaction-left",
            "coaction-right",
            "embedding-matrix-form",
            "containment-left",
            "containment-right",
        ),
    ),
    "right-sphere-mz": (
        "spheres.cat",
        "- 4*h*ym^2",
        "- 5*h*ym^2",
        (
            "confluence-catalog",
            "comodule-right",
            "coaction-right",
            "pi-isomorphism",
            "embedding-right-beta",
            "embedding-limit-right",
        ),
    ),
}


def mutant_reports(name, workdir, bindings=RATIONAL, check_ids=None):
    """Reports, without timing, of the given checks on a mutant, by
    default of the checks it breaks."""
    filename, old, new, broken = MUTANTS[name]
    data = Path(workdir) / name
    shutil.copytree(default_catalog_dir(), data)
    target = data / filename
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} is not a unique line fragment of {filename}"
    target.write_text(text.replace(old, new))
    cat = build_catalog(bindings=bindings, paths=[data])
    out = []
    for check_id in check_ids or broken:
        report = run_check(cat, check_id).to_dict()
        del report["elapsed_ms"]
        out.append(report)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_mutant(golden):
    assert sorted(golden) == sorted(MUTANTS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_residuals_are_pinned(name, golden, tmp_path):
    reports = mutant_reports(name, tmp_path)
    assert all(r["status"] != "pass" for r in reports), name
    assert reports == golden[name]


def test_symbolic_fixture_covers_its_mutants():
    assert sorted(json.loads(SYMBOLIC_FIXTURE.read_text())) == sorted(SYMBOLIC_MUTANTS)


@pytest.mark.parametrize("name", SYMBOLIC_MUTANTS)
def test_mutant_invariance_residuals_keep_their_denominators(name, tmp_path):
    reports = mutant_reports(name, tmp_path, bindings=SYMBOLIC, check_ids=INVARIANCE)
    broken = MUTANTS[name][3]
    assert [r["status"] for r in reports] == [
        "fail" if c in broken else "pass" for c in INVARIANCE
    ]
    assert reports == json.loads(SYMBOLIC_FIXTURE.read_text())[name]
