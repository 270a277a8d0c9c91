"""Named verification checks over a bound catalog.

Each check computes a family of residuals that must all vanish (or, for
the two existence statements, must not).  A check reports (label, value)
pairs for everything that failed, never a bare boolean, so a broken
identity shows the offending polynomial verbatim.  The registry at the
bottom fixes the canonical ordering used by the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import scalars as sc
from .errors import JQSphereError, UnknownCheckId
from .hopf import (
    GenMorphism,
    check_comodule_axioms,
    check_hopf_axioms,
    check_morphism_respects_relations,
)
from .jordanian import (
    ALGEBRAS,
    DET_LABEL,
    EMBED_LEFT,
    EMBED_LEFT_LIMIT,
    EMBED_RIGHT,
    EMBED_RIGHT_LIMIT,
    ENV,
    FUN,
    LEFT_AXES,
    RIGHT_AXES,
    SPHERE_ISO,
    SPHERE_ISO_INVERSE,
    SPHERE_LEFT,
    SPHERE_RIGHT,
)
from .ncalg import FreePoly, substitute_poly
from .pairing import (
    SPLIT_ENV,
    SPLIT_FUN,
    check_invariance,
    check_pairing_annihilates,
    check_pairing_axioms,
    check_twisted_primitive,
)


@dataclass
class CheckReport:
    check_id: str
    status: str  # pass | fail | error
    residuals: list = field(default_factory=list)  # (label, rendered value)
    elapsed_ms: int = 0
    parameters: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "check_id": self.check_id,
            "status": self.status,
            "residuals": [[label, value] for label, value in self.residuals],
            "elapsed_ms": self.elapsed_ms,
            "parameters": dict(self.parameters),
        }


def _expected_dimension(name, degree):
    if name in (SPHERE_LEFT, SPHERE_RIGHT):
        return 2 * degree + 1
    return (degree + 1) ** 2


def _count_by_degree(system, max_degree):
    counts = [0] * (max_degree + 1)
    for w in system.normal_words(max_degree):
        counts[len(w)] += 1
    return counts


def check_confluence_catalog(cat):
    """All four presentations complete, with verified ambiguity
    certificates and the expected normal-word counts per degree."""
    residuals = []
    for name in ALGEBRAS:
        system = cat.system(name)
        if not system.closed:
            residuals.append((f"closed:{name}", "completion hit the degree cap"))
            continue
        if not system.verify_certificate():
            residuals.append((f"certificate:{name}", "ambiguity re-check failed"))
        counts = _count_by_degree(system, 4)
        for degree, got in enumerate(counts):
            want = _expected_dimension(name, degree)
            if got != want:
                residuals.append(
                    (f"dimension:{name}:{degree}", f"{got} normal words, expected {want}")
                )
    return residuals, cat.describe(cat.bindings)


def check_pbw_funh(cat):
    """The six commutation rules alone are already confluent: completion
    adds nothing and ordered monomials give the full-size basis."""
    residuals = []
    system = cat.system(FUN, skip=(DET_LABEL,))
    if len(system.rules) != 6:
        residuals.append(("rules", f"{len(system.rules)} rules after completion, expected 6"))
    if not system.closed:
        residuals.append(("closed", "completion hit the degree cap"))
    elif not system.verify_certificate():
        residuals.append(("certificate", "ambiguity re-check failed"))
    for degree, got in enumerate(_count_by_degree(system, 4)):
        want = (degree + 1) * (degree + 2) * (degree + 3) // 6
        if got != want:
            residuals.append((f"dimension:{degree}", f"{got} normal words, expected {want}"))
    return residuals, cat.describe(cat.bindings)


def check_determinant(cat):
    """The quantum determinant normalizes to 1 and commutes with all
    four generators in the unit-determinant quotient.  Its commutators
    in the six-relation algebra are exact multiples of the determinant
    relation itself, never anything outside that ideal."""
    residuals = []
    full = cat.system(FUN)
    six = cat.system(FUN, skip=(DET_LABEL,))
    det_rel = dict(cat.relations(FUN))[DET_LABEL]
    alg = cat.algebra(FUN)
    det = det_rel + FreePoly.unit(alg)
    for gname in alg.gens:
        g = FreePoly.gen(alg, gname)
        r = full.normal_form(det * g - g * det)
        if not r.is_zero():
            residuals.append((f"central:{gname}", r.render()))
        # strict commutator, then its membership in the determinant ideal
        strict = six.normal_form(det * g - g * det)
        if not full.reduces_to_zero(strict):
            residuals.append((f"central-ideal:{gname}", strict.render()))
    r = full.normal_form(det) - FreePoly.unit(alg)
    if not r.is_zero():
        residuals.append(("normalized", r.render()))
    return residuals, cat.describe(cat.bindings)


def _check_hopf(cat, name):
    residuals = check_hopf_axioms(
        cat.hopf(name), max_degree=3, relations=cat.relations(name)
    )
    return residuals, cat.describe(cat.bindings)


def check_hopf_funh(cat):
    """Hopf axioms for the function algebra on normal words of degree
    up to 3, plus preservation of its defining relations."""
    return _check_hopf(cat, FUN)


def check_hopf_uh(cat):
    """Hopf axioms for the enveloping algebra on normal words of degree
    up to 3, plus preservation of its defining relations."""
    return _check_hopf(cat, ENV)


def check_grouplike_j1(cat):
    """The monodromy matrix is group-like entry by entry and its counit
    is the identity matrix."""
    residuals = []
    labels = cat.matrix_labels
    entries = cat.matrix()
    cop = cat.morphism(f"{FUN}_coproduct")
    eps = cat.morphism(f"{FUN}_counit")
    nf = cat.system(FUN).normal_form
    for r in labels:
        for c in labels:
            lhs = cop(entries[(r, c)])
            rhs = None
            for m in labels:
                term = FreePoly.of(nf(entries[(r, m)]), nf(entries[(m, c)]))
                rhs = term if rhs is None else rhs + term
            diff = lhs - rhs
            if not diff.is_zero():
                residuals.append((f"coproduct:{r}{c}", diff.render()))
            val = eps.scalar(entries[(r, c)])
            want = sc.ONE if r == c else sc.ZERO
            if val != want:
                residuals.append((f"counit:{r}{c}", sc.render(val)))
    return residuals, cat.describe(cat.bindings)


def _check_comodule(cat, side):
    residuals = check_comodule_axioms(cat.coaction(side), cat.hopf(FUN), side)
    return residuals, cat.describe(cat.bindings)


def check_comodule_left(cat):
    """Coassociativity and counit laws for the left sphere coaction."""
    return _check_comodule(cat, "left")


def check_comodule_right(cat):
    """Coassociativity and counit laws for the right sphere coaction."""
    return _check_comodule(cat, "right")


def _check_coaction(cat, side, sphere):
    residuals = check_morphism_respects_relations(cat.coaction(side), cat.relations(sphere))
    return residuals, cat.describe(cat.bindings)


def check_coaction_left(cat):
    """The left coaction preserves all four left sphere relations; any
    nonzero residual is reported verbatim."""
    return _check_coaction(cat, "left", SPHERE_LEFT)


def check_coaction_right(cat):
    """The right coaction preserves all four right sphere relations; any
    nonzero residual is reported verbatim."""
    return _check_coaction(cat, "right", SPHERE_RIGHT)


def _check_scaling(cat, sphere, kname, bname):
    eff = cat.effective(without=(kname, bname, "s"))
    alg = cat.algebra(sphere)
    s = sc.PARAMS["s"]
    shrink = GenMorphism(
        "shrink",
        alg,
        (alg,),
        {g: FreePoly.gen(alg, g).scale(sc.ONE / s) for g in alg.gens},
    )
    rescale = {kname: s * sc.PARAMS[kname], bname: s * s * sc.PARAMS[bname]}
    residuals = []
    for label, rel in cat.relations(sphere, eff):
        lhs = shrink(rel).scale(s * s)
        rhs = substitute_poly(rel, rescale)
        if lhs != rhs:
            residuals.append((label, (lhs - rhs).render()))
    return residuals, cat.describe(eff)


def check_scaling_left(cat):
    """Shrinking the left sphere generators by s turns its relations
    into the relations at shift s*k and radius s^2*beta, exactly."""
    return _check_scaling(cat, SPHERE_LEFT, "k", "beta")


def check_scaling_right(cat):
    """Shrinking the right sphere generators by s turns its relations
    into the relations at shift s*kprime and radius s^2*betaprime."""
    return _check_scaling(cat, SPHERE_RIGHT, "kprime", "betaprime")


def _beta_constraint(side):
    if side == "left":
        return sc.PARAMS["rho"] ** 2 + 2 * sc.PARAMS["k"] ** 2
    return (
        sc.PARAMS["rhoprime"] ** 2
        + 2 * (sc.ONE - 2 * sc.PARAMS["h"] ** 2) * sc.PARAMS["kprime"] ** 2
    )


def _check_embedding_beta(cat, side, sphere, emb_name, bname):
    eff = cat.effective(without=(bname,))
    emb = cat.morphism(emb_name, eff)
    fun = cat.algebra(FUN)
    constraint = sc.substitute(_beta_constraint(side), eff)
    residuals = []
    for label, rel in cat.relations(sphere, eff):
        res = emb(rel)
        if label == "casimir":
            want = FreePoly.unit(fun, constraint - sc.PARAMS[bname])
            if res != want:
                residuals.append((f"iff:{label}", (res - want).render()))
        elif not res.is_zero():
            residuals.append((f"iff:{label}", res.render()))
    bound = dict(eff)
    bound[bname] = constraint
    for label, rel in cat.relations(sphere, bound):
        res = emb(rel)
        if not res.is_zero():
            residuals.append((f"bound:{label}", res.render()))
    return residuals, cat.describe(eff)


def check_embedding_left_beta(cat):
    """The left embedding satisfies the sphere relations exactly when
    the radius equals rho^2 + 2 k^2: the casimir residual is that
    constraint and every other residual vanishes."""
    return _check_embedding_beta(cat, "left", SPHERE_LEFT, EMBED_LEFT, "beta")


def check_embedding_right_beta(cat):
    """The right embedding satisfies the sphere relations exactly when
    the radius equals rhoprime^2 + 2 (1 - 2 h^2) kprime^2."""
    return _check_embedding_beta(cat, "right", SPHERE_RIGHT, EMBED_RIGHT, "betaprime")


def _check_embedding_limit(cat, sphere, emb_name, kname, bname):
    eff = cat.effective(without=(kname, bname))
    eff.update({kname: sc.ZERO, bname: sc.ONE})
    emb = cat.morphism(emb_name, cat.effective(without=(kname, bname)))
    residuals = []
    for label, rel in cat.relations(sphere, eff):
        res = emb(rel)
        if not res.is_zero():
            residuals.append((label, res.render()))
    return residuals, cat.describe(eff)


def check_embedding_limit_left(cat):
    """The scale-free left embedding satisfies the left sphere at shift
    zero and radius one."""
    return _check_embedding_limit(cat, SPHERE_LEFT, EMBED_LEFT_LIMIT, "k", "beta")


def check_embedding_limit_right(cat):
    """The scale-free right embedding satisfies the right sphere at
    shift zero and radius one."""
    return _check_embedding_limit(cat, SPHERE_RIGHT, EMBED_RIGHT_LIMIT, "kprime", "betaprime")


def check_embedding_matrix_form(cat):
    """Embeddings written out longhand agree with contracting the
    monodromy matrix against constant vectors, and the scale-free
    variants are its middle column and row."""
    residuals = []
    entries = cat.matrix()
    fun = cat.algebra(FUN)
    nf = cat.system(FUN).normal_form
    vec = {"m": sc.PARAMS["k"], "z": sc.PARAMS["rho"], "p": -sc.PARAMS["k"]}
    covec = {"m": sc.PARAMS["kprime"], "z": sc.PARAMS["rhoprime"], "p": -sc.PARAMS["kprime"]}
    cases = (
        ("left", LEFT_AXES, SPHERE_LEFT, EMBED_LEFT, EMBED_LEFT_LIMIT, vec, True),
        ("right", RIGHT_AXES, SPHERE_RIGHT, EMBED_RIGHT, EMBED_RIGHT_LIMIT, covec, False),
    )
    for side, axes, sphere_name, emb_name, limit_name, weights, by_rows in cases:
        sphere = cat.algebra(sphere_name)
        emb = cat.morphism(emb_name)
        limit = cat.morphism(limit_name)
        for label, gname in axes:
            acc = FreePoly.zero(fun)
            for olabel, _ in axes:
                entry = entries[(label, olabel)] if by_rows else entries[(olabel, label)]
                acc = acc + entry.scale(sc.substitute(weights[olabel], cat.bindings))
            diff = emb(FreePoly.gen(sphere, gname)) - nf(acc)
            if not diff.is_zero():
                residuals.append((f"{side}:{gname}", diff.render()))
            middle = entries[(label, "z")] if by_rows else entries[("z", label)]
            diff = limit(FreePoly.gen(sphere, gname)) - nf(middle)
            if not diff.is_zero():
                residuals.append((f"{side}-limit:{gname}", diff.render()))
    return residuals, cat.describe(cat.bindings)


def _check_containment(cat, side, axes, sphere_name, emb_name):
    residuals = []
    entries = cat.matrix()
    sphere = cat.algebra(sphere_name)
    emb = cat.morphism(emb_name)
    cop = cat.morphism(f"{FUN}_coproduct")
    nf = cat.system(FUN).normal_form
    for label, gname in axes:
        lhs = cop(emb(FreePoly.gen(sphere, gname)))
        rhs = None
        for olabel, oname in axes:
            image = emb(FreePoly.gen(sphere, oname))
            if side == "left":
                term = FreePoly.of(nf(entries[(label, olabel)]), image)
            else:
                term = FreePoly.of(image, nf(entries[(olabel, label)]))
            rhs = term if rhs is None else rhs + term
        diff = lhs - rhs
        if not diff.is_zero():
            residuals.append((gname, diff.render()))
    return residuals, cat.describe(cat.bindings)


def check_containment_left(cat):
    """Coproducts of embedded left sphere components stay inside
    funh (x) sphere: matrix row tensor embedded components."""
    return _check_containment(cat, "left", LEFT_AXES, SPHERE_LEFT, EMBED_LEFT)


def check_containment_right(cat):
    """Coproducts of embedded right sphere components stay inside
    sphere (x) funh: embedded components tensor matrix column."""
    return _check_containment(cat, "right", RIGHT_AXES, SPHERE_RIGHT, EMBED_RIGHT)


def check_pi_isomorphism(cat):
    """The generator substitution between the two sphere families kills
    every relation in both directions and composes to the identity."""
    eff = cat.effective(without=("k", "beta", "kprime", "betaprime"))
    pi = cat.morphism(SPHERE_ISO, eff)
    sigma = cat.morphism(SPHERE_ISO_INVERSE, eff)
    left = cat.algebra(SPHERE_LEFT)
    right = cat.algebra(SPHERE_RIGHT)
    residuals = []
    for label, rel in cat.relations(SPHERE_LEFT, eff):
        res = pi(rel)
        if not res.is_zero():
            residuals.append((f"forward:{label}", res.render()))
    for label, rel in cat.relations(SPHERE_RIGHT, eff):
        res = sigma(rel)
        if not res.is_zero():
            residuals.append((f"backward:{label}", res.render()))
    nf_left = cat.system(SPHERE_LEFT, eff).normal_form
    nf_right = cat.system(SPHERE_RIGHT, eff).normal_form
    for gname in left.gens:
        x = FreePoly.gen(left, gname)
        diff = sigma(pi(x)) - nf_left(x)
        if not diff.is_zero():
            residuals.append((f"roundtrip-left:{gname}", diff.render()))
    for gname in right.gens:
        y = FreePoly.gen(right, gname)
        diff = pi(sigma(y)) - nf_right(y)
        if not diff.is_zero():
            residuals.append((f"roundtrip-right:{gname}", diff.render()))
    return residuals, cat.describe(eff)


def check_duality_axioms(cat):
    """Bialgebra compatibility of the pairing on normal words, plus
    agreement of the two recursion strategies on every word pair up to
    degree 3 on both sides."""
    dp = cat.pairing()
    env_words = list(cat.system(ENV).normal_words(3))
    fun_words = list(cat.system(FUN).normal_words(3))
    residuals = check_pairing_axioms(
        dp,
        [w for w in env_words if len(w) <= 2],
        [w for w in fun_words if len(w) <= 2],
    )
    for uw in env_words:
        for aw in fun_words:
            one = dp.pair_words(uw, aw, SPLIT_FUN)
            two = dp.pair_words(uw, aw, SPLIT_ENV)
            if one != two:
                label = f"strategy:{dp.env.alg.render_word(uw)};{dp.fun.alg.render_word(aw)}"
                residuals.append((label, sc.render(one - two)))
    return residuals, cat.describe(cat.bindings)


def check_duality_welldefined(cat):
    """Defining relations of either factor pair to zero against all
    normal words of the other factor up to degree 3."""
    dp = cat.pairing()
    env_words = list(cat.system(ENV).normal_words(3))
    fun_words = list(cat.system(FUN).normal_words(3))
    residuals = [
        (f"fun-relation:{label}", value)
        for label, value in check_pairing_annihilates(
            dp, cat.relations(FUN), "fun", env_words
        )
    ]
    residuals += [
        (f"env-relation:{label}", value)
        for label, value in check_pairing_annihilates(
            dp, cat.relations(ENV), "env", fun_words
        )
    ]
    return residuals, cat.describe(cat.bindings)


def _check_primitive(cat, name):
    dp = cat.pairing()
    env = cat.algebra(ENV)
    grouplike = FreePoly.gen(env, "T")
    cleared = cat.element(f"{name}_cleared")
    residuals = list(check_twisted_primitive(dp, cleared, grouplike))
    verbatim = cat.element(name, required=False)
    if verbatim is not None:
        hpar = sc.substitute(sc.PARAMS["h"], cat.bindings)
        diff = cleared - verbatim.scale(2 * hpar)
        if not diff.is_zero():
            residuals.append(("cleared-matches-verbatim", diff.render()))
        residuals += [
            (f"verbatim:{label}", value)
            for label, value in check_twisted_primitive(dp, verbatim, grouplike)
        ]
    return residuals, cat.describe(cat.bindings)


def check_primitive_PL(cat):
    """The left invariance element is twisted primitive for T, in both
    its verbatim and denominator-cleared forms."""
    return _check_primitive(cat, "PL")


def check_primitive_PR(cat):
    """The right invariance element is twisted primitive for T, in both
    its verbatim and denominator-cleared forms."""
    return _check_primitive(cat, "PR")


def _embedded_generators(cat, axes, sphere_name, emb_name):
    sphere = cat.algebra(sphere_name)
    emb = cat.morphism(emb_name)
    return [(gname, emb(FreePoly.gen(sphere, gname))) for _, gname in axes]


def check_invariance_PL(cat):
    """The cleared left element annihilates every embedded left sphere
    component under the left action."""
    dp = cat.pairing()
    element = cat.element("PL_cleared")
    residuals = []
    for label, x in _embedded_generators(cat, LEFT_AXES, SPHERE_LEFT, EMBED_LEFT):
        r = dp.left_action(element, x)
        if not r.is_zero():
            residuals.append((label, r.render()))
    return residuals, cat.describe(cat.bindings)


def check_invariance_PR(cat):
    """The cleared right element annihilates every embedded right sphere
    component under the right action."""
    dp = cat.pairing()
    element = cat.element("PR_cleared")
    residuals = []
    for label, y in _embedded_generators(cat, RIGHT_AXES, SPHERE_RIGHT, EMBED_RIGHT):
        r = dp.right_action(y, element)
        if not r.is_zero():
            residuals.append((label, r.render()))
    return residuals, cat.describe(cat.bindings)


def check_invariance_products(cat):
    """Invariance extends to all pairwise products of embedded
    components, computed both directly and through the coproduct
    splitting of the invariance element."""
    dp = cat.pairing()
    residuals = [
        (f"left:{label}", value)
        for label, value in check_invariance(
            dp,
            cat.element("PL_cleared"),
            _embedded_generators(cat, LEFT_AXES, SPHERE_LEFT, EMBED_LEFT),
            "left",
        )
    ]
    residuals += [
        (f"right:{label}", value)
        for label, value in check_invariance(
            dp,
            cat.element("PR_cleared"),
            _embedded_generators(cat, RIGHT_AXES, SPHERE_RIGHT, EMBED_RIGHT),
            "right",
        )
    ]
    return residuals, cat.describe(cat.bindings)


def check_limit_primitives(cat):
    """At shift zero both cleared elements collapse to -2h H, and H
    annihilates the scale-free embeddings on the matching side."""
    eff = cat.effective(without=("k", "kprime"))
    env = cat.algebra(ENV)
    hpar = sc.substitute(sc.PARAMS["h"], eff)
    expected = FreePoly.gen(env, "H").scale(-2 * hpar)
    residuals = []
    for name, kname, label in (("PL", "k", "limit-left"), ("PR", "kprime", "limit-right")):
        cleared = cat.element(f"{name}_cleared", eff)
        diff = substitute_poly(cleared, {kname: sc.ZERO}) - expected
        if not diff.is_zero():
            residuals.append((label, diff.render()))
    dp = cat.pairing()
    H = FreePoly.gen(env, "H")
    for label, x in _embedded_generators(cat, LEFT_AXES, SPHERE_LEFT, EMBED_LEFT_LIMIT):
        r = dp.left_action(H, x)
        if not r.is_zero():
            residuals.append((f"H-left:{label}", r.render()))
    for label, y in _embedded_generators(cat, RIGHT_AXES, SPHERE_RIGHT, EMBED_RIGHT_LIMIT):
        r = dp.right_action(y, H)
        if not r.is_zero():
            residuals.append((f"H-right:{label}", r.render()))
    return residuals, cat.describe(eff)


def check_primitive_distinctness(cat):
    """The two cleared elements differ generically and coincide once
    both shifts are set to zero."""
    eff = cat.effective(without=("k", "kprime"))
    diff = cat.element("PL_cleared", eff) - cat.element("PR_cleared", eff)
    residuals = []
    if diff.is_zero():
        residuals.append(("distinct", "0 (the two elements coincide generically)"))
    collapsed = substitute_poly(diff, {"k": sc.ZERO, "kprime": sc.ZERO})
    if not collapsed.is_zero():
        residuals.append(("collapse", collapsed.render()))
    return residuals, cat.describe(eff)


CHECKS = {
    "confluence-catalog": check_confluence_catalog,
    "pbw-funh": check_pbw_funh,
    "determinant": check_determinant,
    "hopf-funh": check_hopf_funh,
    "hopf-uh": check_hopf_uh,
    "grouplike-j1": check_grouplike_j1,
    "comodule-left": check_comodule_left,
    "comodule-right": check_comodule_right,
    "coaction-left": check_coaction_left,
    "coaction-right": check_coaction_right,
    "scaling-left": check_scaling_left,
    "scaling-right": check_scaling_right,
    "embedding-left-beta": check_embedding_left_beta,
    "embedding-right-beta": check_embedding_right_beta,
    "embedding-limit-left": check_embedding_limit_left,
    "embedding-limit-right": check_embedding_limit_right,
    "embedding-matrix-form": check_embedding_matrix_form,
    "containment-left": check_containment_left,
    "containment-right": check_containment_right,
    "pi-isomorphism": check_pi_isomorphism,
    "duality-axioms": check_duality_axioms,
    "duality-welldefined": check_duality_welldefined,
    "primitive-PL": check_primitive_PL,
    "primitive-PR": check_primitive_PR,
    "invariance-PL": check_invariance_PL,
    "invariance-PR": check_invariance_PR,
    "invariance-products": check_invariance_products,
    "limit-primitives": check_limit_primitives,
    "primitive-distinctness": check_primitive_distinctness,
}


def check_ids():
    return tuple(CHECKS)


def describe_checks():
    """(check id, first docstring line) pairs in canonical order."""
    out = []
    for name, fn in CHECKS.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        summary = " ".join(line.strip() for line in doc) if doc else ""
        out.append((name, summary))
    return out


def resolve_ids(requested):
    """Validate and order requested ids; 'all' or empty means everything."""
    if not requested or requested == "all" or list(requested) == ["all"]:
        return list(CHECKS)
    unknown = [name for name in requested if name not in CHECKS]
    if unknown:
        raise UnknownCheckId(
            "unknown check id(s): " + ", ".join(sorted(set(unknown)))
        )
    wanted = set(requested)
    return [name for name in CHECKS if name in wanted]


def run_check(cat, check_id):
    fn = CHECKS.get(check_id)
    if fn is None:
        raise UnknownCheckId(f"unknown check id: {check_id}")
    start = time.monotonic()
    try:
        residuals, parameters = fn(cat)
        status = "pass" if not residuals else "fail"
    except Exception as exc:
        # a check is a boundary: one that crashes on a user catalog must
        # not abort the checks after it
        if isinstance(exc, JQSphereError):
            residuals = [("error", str(exc))]
        else:
            residuals = [("error", f"{type(exc).__name__}: {exc}")]
        parameters = cat.describe(cat.bindings)
        status = "error"
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return CheckReport(
        check_id=check_id,
        status=status,
        residuals=[(label, value) for label, value in residuals],
        elapsed_ms=elapsed_ms,
        parameters=parameters,
    )


def run_checks(cat, requested="all"):
    """Run the requested checks in canonical order, yielding reports."""
    for check_id in resolve_ids(requested):
        yield run_check(cat, check_id)
