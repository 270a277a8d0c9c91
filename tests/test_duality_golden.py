"""Golden residuals of the duality checks on single-line catalog mutants.

Each mutant breaks one coefficient of a defining relation in a copy of
the packaged catalog's data directory.  duality-axioms is run at the
rational point of scripts/verify_all.py and its report, timing aside,
must equal the fixture byte for byte: labels, rendered residuals, their
order, status and the echoed parameters.  One mutant breaks a relation
of the enveloping side, the other one of the function side; between them
they break the product, antipode and direction cross-check rows, so the
fixture pins both directions of the pairing recursion.

duality-welldefined pairs each relation's own terms word by word, so it
must fail on both mutants too.
"""

import json
import shutil
from pathlib import Path

import pytest

from jqsphere.catalog import default_catalog_dir
from jqsphere.checks import run_check
from jqsphere.jordanian import build_catalog

FIXTURE = Path(__file__).resolve().parent / "data" / "duality_golden.json"

RATIONAL = {"h": 1, "k": 2, "rho": 3, "kprime": 1, "rhoprime": 2}

# name -> (file, old text, new text)
MUTANTS = {
    "uh-TY-coefficient": ("uh.cat", "(h/2)*(H*T + T*H)", "(h/3)*(H*T + T*H)"),
    "funh-ac-coefficient": ("funh.cat", "+ h*c^2", "+ 2*h*c^2"),
}


def mutant_catalog(name, workdir):
    """The catalog bound at the rational point, with one line mutated."""
    filename, old, new = MUTANTS[name]
    data = Path(workdir) / name
    shutil.copytree(default_catalog_dir(), data)
    target = data / filename
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} is not a unique line fragment of {filename}"
    target.write_text(text.replace(old, new))
    return build_catalog(bindings=RATIONAL, paths=[data])


def report(cat, check_id):
    """A check's report without its timing."""
    out = run_check(cat, check_id).to_dict()
    del out["elapsed_ms"]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_mutant(golden):
    assert sorted(golden) == sorted(MUTANTS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_duality_axioms_residuals_are_pinned(name, golden, tmp_path):
    got = report(mutant_catalog(name, tmp_path), "duality-axioms")
    assert got["status"] == "fail", name
    assert got == golden[name]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_welldefined_fails_on_a_broken_relation(name, tmp_path):
    got = report(mutant_catalog(name, tmp_path), "duality-welldefined")
    assert got["status"] == "fail", name
