"""Acceptance gate: one test per verification criterion.

Every criterion states an exact-zero requirement and a wall-clock cap;
each test runs the corresponding registry checks on a shared catalog,
asserts empty residual lists, asserts the cap, and prints one summary
line.  Run with -s (or read the captured output) to see the lines.
"""

import contextlib
import subprocess
import sys
import time
from pathlib import Path

from jqsphere import scalars as sc
from jqsphere.checks import check_ids, run_check
from jqsphere.jordanian import DET_LABEL, FUN, SPHERE_LEFT, build_catalog
from jqsphere.ncalg import FreePoly

GEN = build_catalog()


def run(cat, *ids):
    reports = []
    for cid in ids:
        report = run_check(cat, cid)
        assert report.status == "pass", (cid, report.status, report.residuals[:4])
        assert report.residuals == []
        reports.append(report)
    return reports


@contextlib.contextmanager
def capped(number, name, cap_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{name}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    line = f"criterion {number:02d} [{name}]: PASS ({elapsed:.2f}s < {cap_seconds:.0f}s)"
    print(line)
    assert elapsed < cap_seconds, line


def test_criterion_01_six_relation_completion_is_already_confluent():
    with capped(1, "pbw-six-rules", 5.0):
        run(GEN, "pbw-funh")
        assert len(GEN.system(FUN, skip=(DET_LABEL,)).rules) == 6


def test_criterion_02_determinant_is_central_and_unit():
    with capped(2, "determinant", 5.0):
        run(GEN, "determinant")


def test_criterion_03_hopf_axioms_hold_in_both_algebras():
    with capped(3, "hopf-axioms", 60.0):
        run(GEN, "hopf-funh", "hopf-uh")


def test_criterion_04_monodromy_matrix_is_grouplike():
    with capped(4, "grouplike-matrix", 60.0):
        run(GEN, "grouplike-j1")


def test_criterion_05_coactions_are_comodules():
    with capped(5, "comodule-axioms", 120.0):
        run(GEN, "comodule-left", "comodule-right")


def test_criterion_06_coactions_preserve_sphere_relations():
    # 4 relations per side; failures would print the residuals verbatim
    with capped(6, "coaction-covariance", 300.0):
        run(GEN, "coaction-left", "coaction-right")


def test_criterion_07_scaling_normalizes_the_radius():
    with capped(7, "scaling-isomorphism", 10.0):
        run(GEN, "scaling-left", "scaling-right")


def test_criterion_08_embeddings_hold_exactly_at_their_level():
    with capped(8, "embeddings", 120.0):
        run(
            GEN,
            "embedding-left-beta",
            "embedding-right-beta",
            "embedding-limit-left",
            "embedding-limit-right",
            "embedding-matrix-form",
        )


def test_criterion_09_coactions_restrict_to_the_embedded_spheres():
    with capped(9, "containment", 120.0):
        run(GEN, "containment-left", "containment-right")


def test_criterion_10_sphere_families_are_isomorphic():
    with capped(10, "sphere-isomorphism", 30.0):
        run(GEN, "pi-isomorphism")


def test_criterion_11_duality_is_a_well_defined_pairing():
    with capped(11, "duality", 120.0):
        run(GEN, "duality-axioms", "duality-welldefined")
        # the cross-check of the pairing against its transpose sweeps every
        # normal word pair up to degree three on both sides, far beyond a
        # hundred samples
        env_words = sum(1 for _ in GEN.system("uh").normal_words(3))
        fun_words = sum(1 for _ in GEN.system("funh").normal_words(3))
        assert env_words * fun_words >= 100


def test_criterion_12_twisted_primitives_govern_invariance():
    with capped(12, "twisted-primitives", 300.0):
        run(
            GEN,
            "primitive-PL",
            "primitive-PR",
            "invariance-PL",
            "invariance-PR",
            "invariance-products",
            "limit-primitives",
            "primitive-distinctness",
        )


def test_criterion_13_classical_limit_degenerates_correctly():
    with capped(13, "classical-limit", 120.0):
        classical = build_catalog(bindings={"h": 0})
        for cid in check_ids():
            report = run_check(classical, cid)
            assert report.status == "pass", (cid, report.residuals[:4])
        alg = classical.algebra(SPHERE_LEFT)
        xp, x0, xm = (FreePoly.gen(alg, n) for n in ("xp", "x0", "xm"))
        casimir = x0 * x0 - (xm * xp).scale(sc.ensure_scalar(2)) - sc.beta
        assert classical.system(SPHERE_LEFT).reduces_to_zero(casimir)


def test_criterion_14_randomized_property_suite_is_green():
    with capped(14, "property-suite", 120.0):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "tests/test_properties.py"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert " passed" in proc.stdout
