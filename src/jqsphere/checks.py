"""Named verification checks over a bound catalog.

Each check computes a family of residuals that must all vanish (or, for
the two existence statements, must not).  A check reports (label, value)
pairs for everything that failed, never a bare boolean, so a broken
identity shows the offending polynomial verbatim.

The registry at the bottom, CHECKS, is one table of rows
id -> (run, summary): run(cat) returns (residuals, parameters) and
summary is the line that ``jqsphere --list`` prints.  Its order is the
canonical order used by the command line.  A check stated once for each
of the two mirror sphere families is one function taking a
jordanian.Side, with one row per side binding it through
functools.partial (check_hopf likewise takes the algebra name).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

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
    ENV,
    FUN,
    LEFT,
    RIGHT,
    SIDES,
    SPHERE_ISO,
    SPHERE_ISO_INVERSE,
    SPHERE_LEFT,
    SPHERE_RIGHT,
)
from .ncalg import FreePoly, clear_denominators, collect, collect_cleared, substitute_poly
from .pairing import (
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


def _count_by_degree(system, max_degree):
    counts = [0] * (max_degree + 1)
    for w in system.normal_words(max_degree):
        counts[len(w)] += 1
    return counts


def check_confluence_catalog(cat):
    residuals = []
    for name in ALGEBRAS:
        system = cat.system(name)
        if not system.closed:
            residuals.append((f"closed:{name}", "completion hit the degree cap"))
            continue
        if not system.verify_certificate():
            residuals.append((f"certificate:{name}", "ambiguity re-check failed"))
        sphere = name in (SPHERE_LEFT, SPHERE_RIGHT)
        for degree, got in enumerate(_count_by_degree(system, 4)):
            want = 2 * degree + 1 if sphere else (degree + 1) ** 2
            if got != want:
                residuals.append(
                    (f"dimension:{name}:{degree}", f"{got} normal words, expected {want}")
                )
    return residuals, cat.describe(cat.bindings)


def check_pbw_funh(cat):
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
    residuals = []
    full = cat.system(FUN)
    six = cat.system(FUN, skip=(DET_LABEL,))
    det_rel = dict(cat.relations(FUN))[DET_LABEL]
    alg = cat.algebra(FUN)
    det = det_rel + FreePoly.unit(alg)
    for gname in alg.gens:
        g = FreePoly.gen(alg, gname)
        collect(residuals, f"central:{gname}", full.normal_form(det * g - g * det))
        # strict commutator, then its membership in the determinant ideal
        strict = six.normal_form(det * g - g * det)
        if not full.reduces_to_zero(strict):
            residuals.append((f"central-ideal:{gname}", strict.render()))
    collect(residuals, "normalized", full.normal_form(det), FreePoly.unit(alg))
    return residuals, cat.describe(cat.bindings)


def check_hopf(cat, name):
    residuals = check_hopf_axioms(cat.hopf(name), max_degree=3, relations=cat.relations(name))
    return residuals, cat.describe(cat.bindings)


def check_grouplike_j1(cat):
    residuals = []
    labels = cat.matrix_labels
    entries = cat.matrix()
    cop = cat.morphism(f"{FUN}_coproduct")
    eps = cat.morphism(f"{FUN}_counit")
    nf = cat.system(FUN).normal_form
    for r in labels:
        for c in labels:
            lhs = cop(entries[(r, c)])
            rhs = FreePoly.combine(
                lhs.slots, (FreePoly.of(nf(entries[(r, m)]), nf(entries[(m, c)])) for m in labels)
            )
            collect(residuals, f"coproduct:{r}{c}", lhs, rhs)
            # the counit residual is the value itself, not its distance to want
            val = eps.scalar(entries[(r, c)])
            want = sc.ONE if r == c else sc.ZERO
            if val != want:
                residuals.append((f"counit:{r}{c}", sc.render(val)))
    return residuals, cat.describe(cat.bindings)


def check_comodule(cat, side):
    residuals = check_comodule_axioms(cat.coaction(side), cat.hopf(FUN), side.fun_slot)
    return residuals, cat.describe(cat.bindings)


def check_coaction(cat, side):
    residuals = check_morphism_respects_relations(
        cat.coaction(side), cat.relations(side.sphere)
    )
    return residuals, cat.describe(cat.bindings)


def check_scaling(cat, side):
    kname, bname = side.shift, side.radius
    eff = cat.effective(without=(kname, bname, "s"))
    alg = cat.algebra(side.sphere)
    s = sc.PARAMS["s"]
    shrink = GenMorphism(
        "shrink",
        alg,
        (alg,),
        {g: FreePoly.gen(alg, g).scale(sc.ONE / s) for g in alg.gens},
    )
    rescale = {kname: s * sc.PARAMS[kname], bname: s * s * sc.PARAMS[bname]}
    residuals = []
    for label, rel in cat.relations(side.sphere, eff):
        collect(residuals, label, shrink(rel).scale(s * s), substitute_poly(rel, rescale))
    return residuals, cat.describe(eff)


def check_embedding_beta(cat, side):
    bname = side.radius
    eff = cat.effective(without=(bname,))
    emb = cat.morphism(side.embed, eff)
    shift, scale = sc.PARAMS[side.shift], sc.PARAMS[side.scale]
    constraint = sc.substitute(scale ** 2 + 2 * side.twist * shift ** 2, eff)
    casimir = FreePoly.unit(cat.algebra(FUN), constraint - sc.PARAMS[bname])
    residuals = []
    for label, rel in cat.relations(side.sphere, eff):
        collect(residuals, f"iff:{label}", emb(rel), casimir if label == "casimir" else None)
    bound = dict(eff)
    bound[bname] = constraint
    for label, rel in cat.relations(side.sphere, bound):
        collect(residuals, f"bound:{label}", emb(rel))
    return residuals, cat.describe(eff)


def check_embedding_limit(cat, side):
    symbolic = (side.shift, side.radius)
    eff = cat.effective(without=symbolic)
    eff.update({side.shift: sc.ZERO, side.radius: sc.ONE})
    emb = cat.morphism(side.limit, cat.effective(without=symbolic))
    residuals = []
    for label, rel in cat.relations(side.sphere, eff):
        collect(residuals, label, emb(rel))
    return residuals, cat.describe(eff)


def check_embedding_matrix_form(cat):
    residuals = []
    entries = cat.matrix()
    fun = cat.algebra(FUN)
    nf = cat.system(FUN).normal_form
    for side in SIDES:
        shift, scale = (
            sc.substitute(sc.PARAMS[n], cat.bindings) for n in (side.shift, side.scale)
        )
        weights = {"m": shift, "z": scale, "p": -shift}
        sphere = cat.algebra(side.sphere)
        emb = cat.morphism(side.embed)
        limit = cat.morphism(side.limit)
        for label, gname in side.axes:
            acc = FreePoly.combine(
                (fun,), (side.entry(entries, label, o).scale(weights[o]) for o, _ in side.axes)
            )
            x = FreePoly.gen(sphere, gname)
            collect(residuals, f"{side.name}:{gname}", emb(x), nf(acc))
            middle = side.entry(entries, label, "z")
            collect(residuals, f"{side.name}-limit:{gname}", limit(x), nf(middle))
    return residuals, cat.describe(cat.bindings)


def check_containment(cat, side):
    residuals = []
    entries = cat.matrix()
    cop = cat.morphism(f"{FUN}_coproduct")
    nf = cat.system(FUN).normal_form
    images = _embedded_generators(cat, side, side.embed)
    for (label, _), (gname, x) in zip(side.axes, images):
        lhs = cop(x)
        rhs = FreePoly.combine(
            lhs.slots,
            (
                side.tensor(nf(side.entry(entries, label, olabel)), image)
                for (olabel, _), (_, image) in zip(side.axes, images)
            ),
        )
        collect(residuals, gname, lhs, rhs)
    return residuals, cat.describe(cat.bindings)


def check_pi_isomorphism(cat):
    eff = cat.effective(without=("k", "beta", "kprime", "betaprime"))
    pi = cat.morphism(SPHERE_ISO, eff)
    sigma = cat.morphism(SPHERE_ISO_INVERSE, eff)
    left = cat.algebra(SPHERE_LEFT)
    right = cat.algebra(SPHERE_RIGHT)
    residuals = []
    for label, rel in cat.relations(SPHERE_LEFT, eff):
        collect(residuals, f"forward:{label}", pi(rel))
    for label, rel in cat.relations(SPHERE_RIGHT, eff):
        collect(residuals, f"backward:{label}", sigma(rel))
    nf_left = cat.system(SPHERE_LEFT, eff).normal_form
    nf_right = cat.system(SPHERE_RIGHT, eff).normal_form
    for gname in left.gens:
        x = FreePoly.gen(left, gname)
        collect(residuals, f"roundtrip-left:{gname}", sigma(pi(x)), nf_left(x))
    for gname in right.gens:
        y = FreePoly.gen(right, gname)
        collect(residuals, f"roundtrip-right:{gname}", pi(sigma(y)), nf_right(y))
    return residuals, cat.describe(eff)


def check_duality_axioms(cat):
    dp = cat.pairing()
    env_words = list(cat.system(ENV).normal_words(3))
    fun_words = list(cat.system(FUN).normal_words(3))
    residuals = check_pairing_axioms(
        dp,
        [w for w in env_words if len(w) <= 2],
        [w for w in fun_words if len(w) <= 2],
    )
    fun_labels = {aw: dp.fun.alg.render_word(aw) for aw in fun_words}
    # dp peels function-side letters first, contracting uh coproducts; its
    # transpose peels enveloping-side letters, contracting funh coproducts.
    # Each direction keeps its own memos, so these rows compare two
    # independent recursions.
    for uw in env_words:
        prefix = f"transpose:{dp.env.alg.render_word(uw)};"
        for aw in fun_words:
            one = dp.pair_words(uw, aw)
            collect(residuals, prefix + fun_labels[aw], one, dp.T.pair_words(aw, uw))
    return residuals, cat.describe(cat.bindings)


def check_duality_welldefined(cat):
    dp = cat.pairing()
    env_words = list(cat.system(ENV).normal_words(3))
    fun_words = list(cat.system(FUN).normal_words(3))
    residuals = [
        (f"fun-relation:{label}", value)
        for label, value in check_pairing_annihilates(dp, cat.relations(FUN), env_words)
    ]
    residuals += [
        (f"env-relation:{label}", value)
        for label, value in check_pairing_annihilates(dp.T, cat.relations(ENV), fun_words)
    ]
    return residuals, cat.describe(cat.bindings)


def check_primitive(cat, side):
    dp = cat.pairing()
    env = cat.algebra(ENV)
    grouplike = FreePoly.gen(env, "T")
    cleared = cat.element(f"{side.element}_cleared")
    residuals = list(check_twisted_primitive(dp, cleared, grouplike))
    verbatim = cat.element(side.element, required=False)
    if verbatim is not None:
        hpar = sc.substitute(sc.PARAMS["h"], cat.bindings)
        collect(residuals, "cleared-matches-verbatim", cleared, verbatim.scale(2 * hpar))
        residuals += [
            (f"verbatim:{label}", value)
            for label, value in check_twisted_primitive(dp, verbatim, grouplike)
        ]
    return residuals, cat.describe(cat.bindings)


def _embedded_generators(cat, side, emb_name):
    sphere = cat.algebra(side.sphere)
    emb = cat.morphism(emb_name)
    return [(gname, emb(FreePoly.gen(sphere, gname))) for _, gname in side.axes]


def check_invariance_components(cat, side):
    act = side.action(cat.pairing())
    element, den = clear_denominators(cat.element(f"{side.element}_cleared"))
    residuals = []
    for label, x in _embedded_generators(cat, side, side.embed):
        collect_cleared(residuals, label, den, act(element, x))
    return residuals, cat.describe(cat.bindings)


def check_invariance_products(cat):
    dp = cat.pairing()
    residuals = []
    for side in SIDES:
        residuals += [
            (f"{side.name}:{label}", value)
            for label, value in check_invariance(
                dp,
                cat.element(f"{side.element}_cleared"),
                _embedded_generators(cat, side, side.embed),
                side.action(dp),
            )
        ]
    return residuals, cat.describe(cat.bindings)


def check_limit_primitives(cat):
    eff = cat.effective(without=("k", "kprime"))
    env = cat.algebra(ENV)
    hpar = sc.substitute(sc.PARAMS["h"], eff)
    expected = FreePoly.gen(env, "H").scale(-2 * hpar)
    residuals = []
    for side in SIDES:
        cleared = cat.element(f"{side.element}_cleared", eff)
        at_zero = substitute_poly(cleared, {side.shift: sc.ZERO})
        collect(residuals, f"limit-{side.name}", at_zero, expected)
    dp = cat.pairing()
    H = FreePoly.gen(env, "H")
    for side in SIDES:
        act = side.action(dp)
        for label, x in _embedded_generators(cat, side, side.limit):
            collect(residuals, f"H-{side.name}:{label}", act(H, x))
    return residuals, cat.describe(eff)


def check_primitive_distinctness(cat):
    eff = cat.effective(without=("k", "kprime"))
    diff = cat.element("PL_cleared", eff) - cat.element("PR_cleared", eff)
    residuals = []
    if diff.is_zero():
        residuals.append(("distinct", "0 (the two elements coincide generically)"))
    collect(residuals, "collapse", substitute_poly(diff, {"k": sc.ZERO, "kprime": sc.ZERO}))
    return residuals, cat.describe(eff)


CHECKS = {
    "confluence-catalog": (
        check_confluence_catalog,
        "All four presentations complete, with verified ambiguity certificates and the "
        "expected normal-word counts per degree.",
    ),
    "pbw-funh": (
        check_pbw_funh,
        "The six commutation rules alone are already confluent: completion adds nothing and "
        "ordered monomials give the full-size basis.",
    ),
    "determinant": (
        check_determinant,
        "The quantum determinant normalizes to 1 and commutes with all four generators in the "
        "unit-determinant quotient.  Its commutators in the six-relation algebra are exact "
        "multiples of the determinant relation itself, never anything outside that ideal.",
    ),
    "hopf-funh": (
        partial(check_hopf, name=FUN),
        "Hopf axioms for the function algebra on normal words of degree up to 3, plus "
        "preservation of its defining relations.",
    ),
    "hopf-uh": (
        partial(check_hopf, name=ENV),
        "Hopf axioms for the enveloping algebra on normal words of degree up to 3, plus "
        "preservation of its defining relations.",
    ),
    "grouplike-j1": (
        check_grouplike_j1,
        "The monodromy matrix is group-like entry by entry and its counit is the identity "
        "matrix.",
    ),
    "comodule-left": (
        partial(check_comodule, side=LEFT),
        "Coassociativity and counit laws for the left sphere coaction.",
    ),
    "comodule-right": (
        partial(check_comodule, side=RIGHT),
        "Coassociativity and counit laws for the right sphere coaction.",
    ),
    "coaction-left": (
        partial(check_coaction, side=LEFT),
        "The left coaction preserves all four left sphere relations; any nonzero residual is "
        "reported verbatim.",
    ),
    "coaction-right": (
        partial(check_coaction, side=RIGHT),
        "The right coaction preserves all four right sphere relations; any nonzero residual "
        "is reported verbatim.",
    ),
    "scaling-left": (
        partial(check_scaling, side=LEFT),
        "Shrinking the left sphere generators by s turns its relations into the relations at "
        "shift s*k and radius s^2*beta, exactly.",
    ),
    "scaling-right": (
        partial(check_scaling, side=RIGHT),
        "Shrinking the right sphere generators by s turns its relations into the relations at "
        "shift s*kprime and radius s^2*betaprime.",
    ),
    "embedding-left-beta": (
        partial(check_embedding_beta, side=LEFT),
        "The left embedding satisfies the sphere relations exactly when the radius equals "
        "rho^2 + 2 k^2: the casimir residual is that constraint and every other residual "
        "vanishes.",
    ),
    "embedding-right-beta": (
        partial(check_embedding_beta, side=RIGHT),
        "The right embedding satisfies the sphere relations exactly when the radius equals "
        "rhoprime^2 + 2 (1 - 2 h^2) kprime^2.",
    ),
    "embedding-limit-left": (
        partial(check_embedding_limit, side=LEFT),
        "The scale-free left embedding satisfies the left sphere at shift zero and radius "
        "one.",
    ),
    "embedding-limit-right": (
        partial(check_embedding_limit, side=RIGHT),
        "The scale-free right embedding satisfies the right sphere at shift zero and radius "
        "one.",
    ),
    "embedding-matrix-form": (
        check_embedding_matrix_form,
        "Embeddings written out longhand agree with contracting the monodromy matrix against "
        "constant vectors, and the scale-free variants are its middle column and row.",
    ),
    "containment-left": (
        partial(check_containment, side=LEFT),
        "Coproducts of embedded left sphere components stay inside funh (x) sphere: matrix "
        "row tensor embedded components.",
    ),
    "containment-right": (
        partial(check_containment, side=RIGHT),
        "Coproducts of embedded right sphere components stay inside sphere (x) funh: "
        "embedded components tensor matrix column.",
    ),
    "pi-isomorphism": (
        check_pi_isomorphism,
        "The generator substitution between the two sphere families kills every relation in "
        "both directions and composes to the identity.",
    ),
    "duality-axioms": (
        check_duality_axioms,
        "Bialgebra compatibility of the pairing on normal words, plus agreement of the pairing "
        "and its transpose on every word pair up to degree 3 on both sides.",
    ),
    "duality-welldefined": (
        check_duality_welldefined,
        "Defining relations of either factor pair to zero against all normal words of the "
        "other factor up to degree 3.",
    ),
    "primitive-PL": (
        partial(check_primitive, side=LEFT),
        "The left invariance element is twisted primitive for T, in both its verbatim and "
        "denominator-cleared forms.",
    ),
    "primitive-PR": (
        partial(check_primitive, side=RIGHT),
        "The right invariance element is twisted primitive for T, in both its verbatim and "
        "denominator-cleared forms.",
    ),
    "invariance-PL": (
        partial(check_invariance_components, side=LEFT),
        "The cleared left element annihilates every embedded left sphere component under the "
        "left action.",
    ),
    "invariance-PR": (
        partial(check_invariance_components, side=RIGHT),
        "The cleared right element annihilates every embedded right sphere component under "
        "the right action.",
    ),
    "invariance-products": (
        check_invariance_products,
        "Invariance extends to all pairwise products of embedded components, computed both "
        "directly and through the coproduct splitting of the invariance element.",
    ),
    "limit-primitives": (
        check_limit_primitives,
        "At shift zero both cleared elements collapse to -2h H, and H annihilates the "
        "scale-free embeddings on the matching side.",
    ),
    "primitive-distinctness": (
        check_primitive_distinctness,
        "The two cleared elements differ generically and coincide once both shifts are set to "
        "zero.",
    ),
}


def check_ids():
    return tuple(CHECKS)


def describe_checks():
    """(check id, summary) pairs in canonical order."""
    return [(name, summary) for name, (_, summary) in CHECKS.items()]


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
    row = CHECKS.get(check_id)
    if row is None:
        raise UnknownCheckId(f"unknown check id: {check_id}")
    run, _ = row
    start = time.monotonic()
    try:
        residuals, parameters = run(cat)
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

