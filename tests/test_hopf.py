"""Generator morphisms and Hopf axiom checkers, exercised on small
hand-checkable fixtures: a group algebra on one invertible generator and
an enveloping algebra with primitive generators."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.catalog import default_catalog_dir
from jqsphere.checks import run_check
from jqsphere.errors import MissingGeneratorImage
from jqsphere.hopf import (
    GenMorphism,
    HopfStructure,
    check_comodule_axioms,
    check_hopf_axioms,
    check_morphism_respects_relations,
    contract_left,
    contract_right,
    convolve,
    expand_left,
    expand_right,
    tensor_normalizer,
)
from jqsphere.jordanian import ENV, FUN, build_catalog
from jqsphere.ncalg import Algebra, FreePoly, collect
from jqsphere.rewrite import complete

# group algebra of the integers: gi is the inverse of g
G = Algebra("grp", ("g", "gi"))
GG, GI = FreePoly.gen(G, "g"), FreePoly.gen(G, "gi")
G_RELS = [("inv", GG * GI - 1), ("vni", GI * GG - 1)]

# enveloping algebra of sl2, all generators primitive
SL2 = Algebra("sl2", ("E", "F", "H"))
E, F, H = (FreePoly.gen(SL2, n) for n in "EFH")
SL2_RELS = [
    ("HE", H * E - E * H - 2 * E),
    ("HF", H * F - F * H + 2 * F),
    ("EF", E * F - F * E - H),
]


def gsystem():
    return complete(G, [r for _, r in G_RELS], max_degree=6)


def group_hopf(antipode_images=None):
    sys = gsystem()
    tnorm = tensor_normalizer(sys, sys)
    cop = GenMorphism(
        "cop", G, (G, G),
        {"g": FreePoly.of(GG, GG), "gi": FreePoly.of(GI, GI)},
        normalize=tnorm,
    )
    eps = GenMorphism(
        "eps", G, (),
        {"g": FreePoly.scalar(()), "gi": FreePoly.scalar(())},
    )
    anti = GenMorphism(
        "anti", G, (G,),
        antipode_images or {"g": GI, "gi": GG},
        parity="antihom",
        normalize=sys.normal_form,
    )
    return HopfStructure(sys, cop, eps, anti)


def sl2_hopf():
    sys = complete(SL2, [r for _, r in SL2_RELS], max_degree=6)
    tnorm = tensor_normalizer(sys, sys)
    one = FreePoly.unit(SL2)
    prim = lambda p: FreePoly.of(p, one) + FreePoly.of(one, p)
    cop = GenMorphism(
        "cop", SL2, (SL2, SL2),
        {"E": prim(E), "F": prim(F), "H": prim(H)},
        normalize=tnorm,
    )
    eps = GenMorphism(
        "eps", SL2, (),
        {n: FreePoly.zero() for n in "EFH"},
    )
    anti = GenMorphism(
        "anti", SL2, (SL2,),
        {"E": -E, "F": -F, "H": -H},
        parity="antihom",
        normalize=sys.normal_form,
    )
    return HopfStructure(sys, cop, eps, anti)


# -- GenMorphism mechanics ---------------------------------------------


def test_hom_extends_multiplicatively():
    m = GenMorphism("sq", G, (G,), {"g": GG * GG, "gi": GI})
    assert m(GG * GG) == GG * GG * GG * GG
    assert m(GG * GI) == GG * GG * GI
    assert m(FreePoly.unit(G)) == FreePoly.unit(G)


def test_antihom_reverses_words():
    m = GenMorphism("rev", G, (G,), {"g": GG, "gi": GI}, parity="antihom")
    assert m(GG * GI) == GI * GG
    assert m(GG * GG * GI) == GI * GG * GG


def test_parity_validation():
    with pytest.raises(ValueError, match="parity"):
        GenMorphism("bad", G, (G,), {"g": GG, "gi": GI}, parity="both")


def test_param_map_applies_to_coefficients():
    W = Algebra("w", ("x",))
    x = FreePoly.gen(W, "x")
    m = GenMorphism("neg", W, (W,), {"x": x}, param_map={"h": -sc.h})
    assert m(x.scale(sc.h)) == x.scale(-sc.h)
    assert m(x.scale(sc.h**2)) == x.scale(sc.h**2)


def test_missing_image_raises():
    m = GenMorphism("part", G, (G,), {"g": GG})
    with pytest.raises(MissingGeneratorImage, match="gi"):
        m(GI)


def test_normalize_keeps_images_reduced():
    sys = gsystem()
    m = GenMorphism(
        "inv", G, (G,), {"g": GI, "gi": GG}, normalize=sys.normal_form
    )
    img = m(GG * GI * GG)
    assert img == GI
    assert sys.normal_form(img) == img


def test_scalar_valued_morphism():
    eps = group_hopf().counit
    assert eps.scalar(GG * GG) == sc.ONE
    assert eps.scalar(GG - GI) == sc.ZERO


def test_morphism_respects_relations_weyl_flip():
    W = Algebra("weyl", ("x", "y"))
    x, y = FreePoly.gen(W, "x"), FreePoly.gen(W, "y")
    rel = y * x - x * y - sc.h
    sys = complete(W, [rel], max_degree=6)
    swap = GenMorphism(
        "swap", W, (W,), {"x": y, "y": x},
        param_map={"h": -sc.h},
        normalize=sys.normal_form,
    )
    assert check_morphism_respects_relations(swap, [("weyl", rel)]) == []
    # without the parameter flip the relation is not preserved
    bad = GenMorphism(
        "bad", W, (W,), {"x": y, "y": x}, normalize=sys.normal_form
    )
    out = check_morphism_respects_relations(bad, [("weyl", rel)])
    assert [label for label, _ in out] == ["bad:weyl"]


# -- Hopf and comodule axioms ------------------------------------------


def test_group_algebra_is_hopf():
    assert check_hopf_axioms(group_hopf(), max_degree=3, relations=G_RELS) == []


def test_enveloping_sl2_is_hopf():
    assert check_hopf_axioms(sl2_hopf(), max_degree=3, relations=SL2_RELS) == []


def test_wrong_antipode_is_caught():
    broken = group_hopf(antipode_images={"g": GG, "gi": GI})
    out = check_hopf_axioms(broken, max_degree=2, relations=G_RELS)
    labels = {label for label, _ in out}
    assert "antipode-left:g" in labels
    assert "antipode-right:g" in labels
    assert not any(label.startswith("coassoc") for label in labels)


def test_wrong_coproduct_is_caught():
    sys = gsystem()
    hopf = group_hopf()
    skew = GenMorphism(
        "skew", G, (G, G),
        {
            "g": FreePoly.of(GG, GG) + FreePoly.of(FreePoly.unit(G), GG),
            "gi": FreePoly.of(GI, GI),
        },
        normalize=tensor_normalizer(sys, sys),
    )
    broken = HopfStructure(sys, skew, hopf.counit, hopf.antipode)
    labels = {label for label, _ in check_hopf_axioms(broken, max_degree=1)}
    assert "coassoc:g" in labels
    assert "counit-left:g" in labels
    # rendering of 2-slot (relation images) and 3-slot (coassociativity)
    # residuals, pinned verbatim
    assert check_hopf_axioms(broken, max_degree=1, relations=G_RELS) == [
        ("skew:inv", "gi@1"),
        ("skew:vni", "gi@1"),
        ("coassoc:g", "-g@1@g"),
        ("counit-left:g", "g"),
        ("counit-right:g", "1"),
        ("antipode-left:g", "g"),
        ("antipode-right:g", "gi"),
    ]


def test_regular_coaction_is_a_comodule():
    hopf = group_hopf()
    assert check_comodule_axioms(hopf.coproduct, hopf, 1) == []
    assert check_comodule_axioms(hopf.coproduct, hopf, 0) == []


def test_coaction_covariance_reports_verbatim():
    crooked = GenMorphism(
        "crooked", G, (G, G),
        {"g": FreePoly.of(GG, GG), "gi": FreePoly.of(GI, GG)},
    )
    out = check_morphism_respects_relations(crooked, G_RELS)
    assert [label for label, _ in out] == ["crooked:inv", "crooked:vni"]
    assert all(rendered for _, rendered in out)


def test_broken_comodule_is_caught():
    hopf = group_hopf()
    crooked = GenMorphism(
        "crooked", G, (G, G),
        {"g": FreePoly.of(GG, GG), "gi": FreePoly.of(GG, GI)},
    )
    # with the group algebra in slot 0 (a left coaction) the swap is
    # invisible: both sides regroup g (x) g (x) gi
    assert check_comodule_axioms(crooked, hopf, 0) == []
    labels = {label for label, _ in check_comodule_axioms(crooked, hopf, 1)}
    assert "coassoc:gi" in labels
    # rendering of 3-slot and 2-slot residuals, pinned verbatim
    assert check_comodule_axioms(crooked, hopf, 1) == [
        ("coassoc:gi", "g@gi@gi - g@g@gi"),
        ("counit:gi", "-gi + g"),
    ]
    assert check_morphism_respects_relations(crooked, G_RELS) == [
        ("crooked:inv", "g^2@g*gi - 1@1"),
        ("crooked:vni", "g^2@gi*g - 1@1"),
    ]


# -- tensor plumbing ----------------------------------------------------


def test_expand_and_contract_shapes():
    hopf = group_hopf()
    t = FreePoly.of(GG, GI)
    left = expand_left(hopf.coproduct, t)
    right = expand_right(hopf.coproduct, t)
    assert left.slots == (G, G, G) and right.slots == (G, G, G)
    assert left.terms != right.terms
    assert contract_left(hopf.counit, t) == GI
    assert contract_right(hopf.counit, t) == GG


# -- antipode sides by word recursion ---------------------------------


def full_convolution(hopf, w, left):
    """Reference for the antipode sides: nf(sum S(u) v) (left) or
    nf(sum u S(v)) (right) over the word's whole coproduct."""
    alg, anti = hopf.alg, hopf.antipode
    t = hopf.coproduct(FreePoly.from_word(alg, w))
    pieces = (
        (anti.word_image(u) * FreePoly.from_word(alg, v)
         if left else FreePoly.from_word(alg, u) * anti.word_image(v)).scale(c)
        for (u, v), c in t.terms.items()
    )
    return hopf.system.normal_form(FreePoly.combine((alg,), pieces))


def recursive_sides(hopf, max_degree):
    """{word: (L, R)} through convolve, each side from the word one
    letter shorter."""
    sides = {(): (FreePoly.unit(hopf.alg),) * 2}
    split = lambda g: hopf.coproduct.word_image((g,))
    for w in hopf.system.normal_words(max_degree):
        if w:
            sides[w] = (
                convolve(hopf.antipode, split(w[-1]), sides[w[:-1]][0], hopf.system, True),
                convolve(hopf.antipode, split(w[0]), sides[w[1:]][1], hopf.system, False),
            )
    return sides


def reference_hopf_axioms(hopf, max_degree, relations):
    """check_hopf_axioms with both antipode sides from full_convolution."""
    cop, eps = hopf.coproduct, hopf.counit
    out = []
    for m in (cop, eps, hopf.antipode):
        out.extend(check_morphism_respects_relations(m, relations))
    for w in hopf.system.normal_words(max_degree):
        word = hopf.alg.render_word(w)
        p = FreePoly.from_word(hopf.alg, w)
        t = cop(p)
        collect(out, f"coassoc:{word}", expand_left(cop, t), expand_right(cop, t))
        collect(out, f"counit-left:{word}", contract_left(eps, t), p)
        collect(out, f"counit-right:{word}", contract_right(eps, t), p)
        unit_eps = FreePoly.unit(hopf.alg, eps.scalar(p))
        for side, left in (("left", True), ("right", False)):
            collect(out, f"antipode-{side}:{word}", full_convolution(hopf, w, left), unit_eps)
    return out


def test_convolve_places_the_inner_factor_between_the_split():
    hopf = sl2_hopf()
    split = hopf.coproduct.word_image((SL2.index("H"),))
    # S(H) E 1 + S(1) E H = [E, H] and H E S(1) + 1 E S(H) = [H, E]
    assert convolve(hopf.antipode, split, E, hopf.system, True) == (-2 * E)
    assert convolve(hopf.antipode, split, E, hopf.system, False) == 2 * E


def test_convolve_step_collapses_to_counit():
    hopf = group_hopf()
    split = hopf.coproduct.word_image((G.index("g"),))
    one = FreePoly.unit(G)
    assert convolve(hopf.antipode, split, one, hopf.system, True) == one
    assert convolve(hopf.antipode, split, one, hopf.system, False) == one
    # an inner factor other than a side value: S(g) g g = g g S(g) = g
    assert convolve(hopf.antipode, split, GG, hopf.system, True) == GG
    assert convolve(hopf.antipode, split, GG, hopf.system, False) == GG


def shipped_hopf(name):
    return lambda: build_catalog().hopf(name)


@pytest.mark.parametrize(
    "make", [group_hopf, sl2_hopf, shipped_hopf(FUN), shipped_hopf(ENV)],
    ids=["grp", "sl2", FUN, ENV],
)
def test_word_recursion_matches_full_coproduct(make):
    hopf = make()
    sides = recursive_sides(hopf, 3)
    assert len(sides) >= 7
    for w, (left, right) in sides.items():
        assert left == full_convolution(hopf, w, True), hopf.alg.render_word(w)
        assert right == full_convolution(hopf, w, False), hopf.alg.render_word(w)


def mutant_hopf(tmp_path, filename, old, new, name):
    data = tmp_path / "data"
    shutil.copytree(default_catalog_dir(), data)
    f = data / filename
    text = f.read_text()
    assert text.count(old) == 1
    f.write_text(text.replace(old, new))
    cat = build_catalog(paths=[data])
    return cat.hopf(name), cat.relations(name)


@pytest.mark.parametrize(
    "filename, old, new, name, count, ref_count, causes",
    [
        ("funh.cat", "map c -> -c", "map c -> -2*c", FUN, 36, 44, ["ac", "cd", "ad", "det"]),
        ("uh.cat", "map Y -> -(T*Y*Tinv)", "map Y -> -(Y)", ENV, 26, 31, ["HY", "TY", "TinvY"]),
    ],
    ids=[FUN, ENV],
)
def test_antipode_mutant_fails_with_its_relation_rows(
    tmp_path, filename, old, new, name, count, ref_count, causes
):
    """An antipode that breaks the relations changes the antipode lines
    against the full-coproduct formula, but still fails, and the
    antipode's relation rows name the cause."""
    hopf, relations = mutant_hopf(tmp_path, filename, old, new, name)
    got = check_hopf_axioms(hopf, 3, relations)
    ref = reference_hopf_axioms(hopf, 3, relations)
    assert (len(got), len(ref)) == (count, ref_count)
    assert got != ref
    rest = lambda rows: [r for r in rows if not r[0].startswith("antipode-")]
    assert rest(got) == rest(ref)
    assert [label for label, _ in got if label.startswith(f"{name}_antipode:")] == [
        f"{name}_antipode:{c}" for c in causes
    ]


def test_coproduct_mutant_reports_as_the_full_coproduct_formula(tmp_path):
    hopf, relations = mutant_hopf(
        tmp_path, "funh.cat", "map b -> a@b + b@d", "map b -> a@b + 2*b@d", FUN
    )
    got = check_hopf_axioms(hopf, 3, relations)
    assert len(got) == 67
    assert got == reference_hopf_axioms(hopf, 3, relations)


def test_hopf_statuses_at_low_completion_degree():
    # the recursion reduces only within the completed degree, so funh
    # passes at degree 2; uh still needs degree 4
    two, one = build_catalog(max_degree=2), build_catalog(max_degree=1)
    assert run_check(two, "hopf-funh").status == "pass"
    for cat, check_id in ((two, "hopf-uh"), (one, "hopf-funh"), (one, "hopf-uh")):
        report = run_check(cat, check_id)
        assert report.status == "error"
        assert "not closed" in report.residuals[0][1]


WORD = st.lists(st.sampled_from(["g", "gi"]), min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(WORD)
def test_counit_laws_on_random_words(letters):
    hopf = group_hopf()
    p = FreePoly.from_word(G, tuple(G.index(n) for n in letters))
    t = hopf.coproduct(p)
    assert contract_left(hopf.counit, t) == hopf.system.normal_form(p)
    assert contract_right(hopf.counit, t) == hopf.system.normal_form(p)
