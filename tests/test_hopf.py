"""Generator morphisms and Hopf axiom checkers, exercised on small
hand-checkable fixtures: a group algebra on one invertible generator and
an enveloping algebra with primitive generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
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
    identity_morphism,
    tensor_normalizer,
)
from jqsphere.ncalg import Algebra, FreePoly
from jqsphere.rewrite import complete, deglex

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
    return complete(deglex(G), [r for _, r in G_RELS], max_degree=6)


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
    sys = complete(deglex(SL2), [r for _, r in SL2_RELS], max_degree=6)
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


def test_identity_morphism():
    ident = identity_morphism(G)
    p = GG * GI + GG.scale(sc.rational(2, 3))
    assert ident(p) == p


def test_scalar_valued_morphism():
    eps = group_hopf().counit
    assert eps.scalar(GG * GG) == sc.ONE
    assert eps.scalar(GG - GI) == sc.ZERO


def test_morphism_respects_relations_weyl_flip():
    W = Algebra("weyl", ("x", "y"))
    x, y = FreePoly.gen(W, "x"), FreePoly.gen(W, "y")
    rel = y * x - x * y - sc.h
    sys = complete(deglex(W), [rel], max_degree=6)
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


def test_convolution_with_antipode_collapses_to_counit():
    hopf = group_hopf()
    ident = identity_morphism(G, normalize=hopf.system.normal_form)
    p = GG * GG
    t = hopf.coproduct(p)
    out = convolve(hopf.antipode, ident, t, hopf.system)
    assert out == FreePoly.unit(G)


WORD = st.lists(st.sampled_from(["g", "gi"]), min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(WORD)
def test_counit_laws_on_random_words(letters):
    hopf = group_hopf()
    p = FreePoly.from_word(G, tuple(G.index(n) for n in letters))
    t = hopf.coproduct(p)
    assert contract_left(hopf.counit, t) == hopf.system.normal_form(p)
    assert contract_right(hopf.counit, t) == hopf.system.normal_form(p)
