"""Assembled structures from the packaged catalog: completed systems and
their graded dimensions, frozen normal forms, the quantum determinant,
coactions, embeddings, the sphere isomorphism and the named elements.

Dimension counts are the independent oracle here: the number of normal
words per degree is fixed by the diamond lemma once the rule set is
confluent, so any change in the completed systems shows up as a count.
"""

import math

import pytest

from jqsphere import scalars as sc
from jqsphere.errors import CatalogParseError, DenominatorVanishes
from jqsphere.jordanian import (
    DET_LABEL,
    ELEMENTS,
    ENV,
    FUN,
    LEFT,
    MORPHISMS,
    RIGHT,
    SPHERE_LEFT,
    SPHERE_RIGHT,
    Catalog,
    build_catalog,
    normalize_bindings,
)
from jqsphere.hopf import tensor_normalizer
from jqsphere.ncalg import FreePoly

CAT = build_catalog()
FUNALG = CAT.algebra(FUN)
ENVALG = CAT.algebra(ENV)
A, B, C, D = (FreePoly.gen(FUNALG, n) for n in "abcd")


def dims(system, top):
    out = []
    for n in range(top + 1):
        out.append(sum(1 for w in system.normal_words(n) if len(w) == n))
    return out


def choose3(n):
    return math.comb(n + 3, 3)


# -- completed systems ---------------------------------------------------


def test_function_algebra_dimensions():
    full = CAT.system(FUN)
    assert full.closed
    assert len(full.rules) == 7
    assert dims(full, 4) == [(n + 1) ** 2 for n in range(5)]


def test_six_relation_dimensions_match_free_cubic_grading():
    six = CAT.system(FUN, skip=(DET_LABEL,))
    assert six.closed
    assert len(six.rules) == 6
    assert dims(six, 4) == [choose3(n) for n in range(5)]


def test_enveloping_algebra_dimensions():
    sys = CAT.system(ENV)
    assert sys.closed
    assert len(sys.rules) == 7
    assert dims(sys, 4) == [(n + 1) ** 2 for n in range(5)]


@pytest.mark.parametrize("name", (SPHERE_LEFT, SPHERE_RIGHT))
def test_sphere_dimensions(name):
    sys = CAT.system(name)
    assert sys.closed
    assert len(sys.rules) == 4
    assert dims(sys, 4) == [2 * n + 1 for n in range(5)]


def test_systems_are_cached_per_binding():
    assert CAT.system(FUN) is CAT.system(FUN)
    assert CAT.system(FUN) is not CAT.system(FUN, skip=(DET_LABEL,))


# -- frozen normal forms ---------------------------------------------------


def test_function_algebra_normal_forms():
    full = CAT.system(FUN)
    assert full.normal_form(A * D) == C * B - (C * D).scale(sc.h) + 1
    assert full.normal_form(D * A) == C * B - (C * A).scale(sc.h) + 1
    assert full.normal_form(B * A) == A * B - (A * A).scale(sc.h) + FreePoly.unit(
        FUNALG, sc.h
    )


def test_left_sphere_normal_form_of_middle_square():
    sys = CAT.system(SPHERE_LEFT)
    alg = CAT.algebra(SPHERE_LEFT)
    xp, x0, xm = (FreePoly.gen(alg, n) for n in ("xp", "x0", "xm"))
    want = (
        (xp * xm).scale(sc.ensure_scalar(2))
        - (xp * x0).scale(4 * sc.h)
        - x0.scale(4 * sc.h * sc.k)
        + FreePoly.unit(alg, sc.beta)
    )
    assert sys.normal_form(x0 * x0) == want


def test_right_sphere_normal_form_of_middle_square():
    sys = CAT.system(SPHERE_RIGHT)
    alg = CAT.algebra(SPHERE_RIGHT)
    ym, y0, yp = (FreePoly.gen(alg, n) for n in ("ym", "y0", "yp"))
    want = (
        (ym * yp).scale(sc.ensure_scalar(2))
        - (ym * y0).scale(4 * sc.h)
        + (ym * ym).scale(4 * sc.h**2)
        + y0.scale(4 * sc.h * sc.kprime)
        + FreePoly.unit(alg, sc.betaprime)
    )
    assert sys.normal_form(y0 * y0) == want


# -- the quantum determinant ----------------------------------------------


def det_poly():
    return A * D - B * C - (A * C).scale(sc.h)


def test_determinant_normalizes_to_one():
    assert CAT.system(FUN).normal_form(det_poly()) == FreePoly.unit(FUNALG)


def test_determinant_commutators_vanish_in_the_quotient():
    full = CAT.system(FUN)
    six = CAT.system(FUN, skip=(DET_LABEL,))
    det = det_poly()
    for g in (A, B, C, D):
        strict = six.normal_form(det * g - g * det)
        assert full.reduces_to_zero(strict)
        assert full.normal_form(det * g - g * det).is_zero()


def test_determinant_is_not_strictly_central():
    """Without the determinant relation the commutator with a is a
    multiple of (det - 1), frozen here exactly: strict centrality fails
    and only the unit-determinant quotient restores it."""
    six = CAT.system(FUN, skip=(DET_LABEL,))
    det = det_poly()
    got = six.normal_form(det * A - A * det)
    want = (C * A * D - C * C * B + (C * C * D).scale(sc.h) - C).scale(sc.h)
    assert got == six.normal_form(want)
    assert not got.is_zero()
    assert six.normal_form(det * C - C * det).is_zero()
    factored = (C * (det - 1)).scale(sc.h)
    assert six.normal_form(factored) == got


# -- matrix, coactions, embeddings -----------------------------------------


def test_matrix_entries_are_quadratic_and_grouplike_spot():
    entries = CAT.matrix()
    labels = CAT.matrix_labels
    assert set(entries) == {(r, c) for r in labels for c in labels}
    full = CAT.system(FUN)
    for p in entries.values():
        assert p.degree() <= 2
    # one group-like instance by hand: the p row times the m column
    cop = CAT.hopf(FUN).coproduct
    want = None
    for o in labels:
        t = FreePoly.of(entries[("p", o)], entries[(o, "m")])
        want = t if want is None else want + t
    got = cop(entries[("p", "m")])
    assert tensor_normalizer(full, full)(got - want).is_zero()


@pytest.mark.parametrize(
    "side,axes,sphere",
    (("left", LEFT.axes, SPHERE_LEFT), ("right", RIGHT.axes, SPHERE_RIGHT)),
)
def test_coaction_images_contract_matrix_axes(side, axes, sphere):
    coact = CAT.coaction(LEFT if side == "left" else RIGHT)
    entries = CAT.matrix()
    alg = CAT.algebra(sphere)
    lsys = CAT.system(coact.target[0].id)
    rsys = CAT.system(coact.target[1].id)
    norm = tensor_normalizer(lsys, rsys)
    for label, gname in axes:
        acc = None
        for olabel, oname in axes:
            comp = FreePoly.gen(alg, oname)
            if side == "left":
                t = FreePoly.of(entries[(label, olabel)], comp)
            else:
                t = FreePoly.of(comp, entries[(olabel, label)])
            acc = t if acc is None else acc + t
        assert norm(coact(FreePoly.gen(alg, gname)) - acc).is_zero()


def test_left_embedding_contracts_rows_with_constant_vector():
    emb = CAT.morphism("embed_left")
    entries = CAT.matrix()
    full = CAT.system(FUN)
    weights = {"m": sc.k, "z": sc.rho, "p": -sc.k}
    alg = CAT.algebra(SPHERE_LEFT)
    for label, gname in LEFT.axes:
        combo = FreePoly.zero(FUNALG)
        for col in ("m", "z", "p"):
            combo = combo + entries[(label, col)].scale(weights[col])
        assert emb(FreePoly.gen(alg, gname)) == full.normal_form(combo)


def test_right_embedding_contracts_columns_with_constant_covector():
    emb = CAT.morphism("embed_right")
    entries = CAT.matrix()
    full = CAT.system(FUN)
    weights = {"m": sc.kprime, "z": sc.rhoprime, "p": -sc.kprime}
    alg = CAT.algebra(SPHERE_RIGHT)
    for label, gname in RIGHT.axes:
        combo = FreePoly.zero(FUNALG)
        for row in ("m", "z", "p"):
            combo = combo + entries[(row, label)].scale(weights[row])
        assert emb(FreePoly.gen(alg, gname)) == full.normal_form(combo)


def test_limit_embeddings_pick_the_middle_axis():
    entries = CAT.matrix()
    full = CAT.system(FUN)
    left = CAT.morphism("embed_left_limit")
    lalg = CAT.algebra(SPHERE_LEFT)
    for label, gname in LEFT.axes:
        assert left(FreePoly.gen(lalg, gname)) == full.normal_form(
            entries[(label, "z")]
        )
    right = CAT.morphism("embed_right_limit")
    ralg = CAT.algebra(SPHERE_RIGHT)
    for label, gname in RIGHT.axes:
        assert right(FreePoly.gen(ralg, gname)) == full.normal_form(
            entries[("z", label)]
        )


# -- sphere isomorphism ------------------------------------------------------


def test_iso_roundtrip_is_identity_on_generators():
    iso = CAT.morphism("sphere_iso")
    inv = CAT.morphism("sphere_iso_inverse")
    lalg, ralg = CAT.algebra(SPHERE_LEFT), CAT.algebra(SPHERE_RIGHT)
    lsys, rsys = CAT.system(SPHERE_LEFT), CAT.system(SPHERE_RIGHT)
    for name in lalg.gens:
        p = FreePoly.gen(lalg, name)
        assert lsys.normal_form(inv(iso(p)) - p).is_zero()
    for name in ralg.gens:
        p = FreePoly.gen(ralg, name)
        assert rsys.normal_form(iso(inv(p)) - p).is_zero()


def test_iso_parameter_flip():
    iso = CAT.morphism("sphere_iso")
    assert iso.param_map["k"] == -sc.kprime
    assert iso.param_map["beta"] == sc.betaprime
    alg = CAT.algebra(SPHERE_LEFT)
    p = FreePoly.gen(alg, "xp").scale(sc.k)
    assert iso(p) == FreePoly.gen(CAT.algebra(SPHERE_RIGHT), "ym").scale(-sc.kprime)


# -- bindings and elements -----------------------------------------------------


def test_normalize_bindings():
    from fractions import Fraction

    out = normalize_bindings({"h": 0, "k": Fraction(1, 2)})
    assert out["h"] == sc.ZERO
    assert out["k"] == sc.ensure_scalar(Fraction(1, 2))
    with pytest.raises(ValueError, match="unknown parameter"):
        normalize_bindings({"hbar": 1})


def test_effective_bindings_subsets():
    cat = build_catalog(bindings={"h": 1, "k": 2, "beta": 3})
    assert set(cat.effective()) == {"h", "k", "beta"}
    assert set(cat.effective(without=("k", "beta"))) == {"h"}
    assert cat.describe(cat.effective()) == {"h": "1", "k": "2", "beta": "3"}


def test_bound_systems_specialize():
    cat = build_catalog(bindings={"h": 0})
    a, b = (FreePoly.gen(cat.algebra(FUN), n) for n in "ab")
    full = cat.system(FUN)
    # at h = 0 the function algebra is commutative
    assert full.normal_form(b * a) == a * b
    assert dims(full, 3) == [(n + 1) ** 2 for n in range(4)]


def test_elements_exist_and_clear_variants_scale():
    env_sys = CAT.system(ENV)
    for name in ELEMENTS:
        assert CAT.element(name) is not None
    pl, plc = CAT.element("PL"), CAT.element("PL_cleared")
    assert env_sys.normal_form(plc - pl.scale(2 * sc.h)).is_zero()
    pr, prc = CAT.element("PR"), CAT.element("PR_cleared")
    assert env_sys.normal_form(prc - pr.scale(2 * sc.h)).is_zero()


def test_elements_at_the_classical_point():
    cat = build_catalog(bindings={"h": 0})
    assert cat.element("PL", required=False) is None
    with pytest.raises(DenominatorVanishes):
        cat.element("PL")
    plc = cat.element("PL_cleared")
    want = (
        FreePoly.gen(cat.algebra(ENV), "T") - FreePoly.gen(cat.algebra(ENV), "Tinv")
    ).scale(sc.k / sc.rho)
    assert plc == want


def test_catalog_validation_catches_missing_entries():
    data = build_catalog().data
    import copy

    broken = copy.copy(data)
    broken.morphisms = dict(data.morphisms)
    del broken.morphisms["sphere_iso"]
    with pytest.raises(CatalogParseError, match="missing standard entries"):
        Catalog(broken)
