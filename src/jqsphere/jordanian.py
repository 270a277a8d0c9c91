"""Bound instances of the standard catalog.

The loader in :mod:`jqsphere.catalog` only parses; this module applies a
set of parameter bindings uniformly and hands out the derived objects:
completed rewrite systems, Hopf structure, matrix entries, coactions,
embeddings, the dual pairing and the distinguished elements.  Rewrite
systems and morphisms are cached per binding set, since verification
checks routinely need the same algebra both fully bound and with a few
parameters kept symbolic; the coactions and the pairing take the base
bindings only and are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars as sc
from .catalog import load_catalog, default_catalog_dir
from .errors import CatalogParseError, DenominatorVanishes
from .hopf import GenMorphism, HopfStructure, tensor_normalizer
from .ncalg import FreePoly, substitute_poly
from .pairing import DualPairing
from .rewrite import complete

FUN = "funh"
ENV = "uh"
SPHERE_LEFT = "sphere_left"
SPHERE_RIGHT = "sphere_right"
ALGEBRAS = (FUN, ENV, SPHERE_LEFT, SPHERE_RIGHT)

MATRIX = "monodromy"
PAIRING = "jordanian_duality"
SPHERE_ISO = "sphere_iso"
SPHERE_ISO_INVERSE = "sphere_iso_inverse"
ELEMENTS = ("PL", "PR", "PL_cleared", "PR_cleared")
DET_LABEL = "det"


@dataclass(frozen=True)
class Side:
    """One of the two mirror-image sphere families and its catalog names.

    axes pairs each matrix label with the sphere generator of the same
    index (-1, 0, +1).  fun_slot is the slot of funh in the coaction's
    tensor: 0 for the left family (funh (x) sphere, corotating by matrix
    rows), 1 for the right one (sphere (x) funh, by columns).  It is also
    the tensor leg that the uh action keeps.  Everything that differs
    between the mirrors beyond names is derived from it here, except
    twist: the radius at which the embedding lands on the sphere is
    scale^2 + 2 twist shift^2, with twist 1 on the left and 1 - 2 h^2
    on the right.
    """

    name: str
    sphere: str
    axes: tuple
    embed: str
    limit: str
    shift: str
    radius: str
    scale: str
    element: str
    fun_slot: int
    twist: sc.Scalar

    def order(self, fun_part, other):
        """The pair in coaction order: fun_part goes to slot fun_slot."""
        return (other, fun_part) if self.fun_slot else (fun_part, other)

    def tensor(self, fun_part, other):
        """fun_part (x) other, fun_part in slot fun_slot."""
        return FreePoly.of(*self.order(fun_part, other))

    def entry(self, entries, label, other):
        """Matrix entry of the coaction of axis label on axis other:
        row label for the left family, column label for the right."""
        return entries[self.order(label, other)]

    def action(self, dp):
        """The uh action on funh that this family is invariant under, as
        act(u, a)."""
        if self.fun_slot:
            return lambda u, a: dp.right_action(a, u)
        return dp.left_action


LEFT = Side(
    "left", SPHERE_LEFT, (("m", "xm"), ("z", "x0"), ("p", "xp")),
    "embed_left", "embed_left_limit", "k", "beta", "rho", "PL", 0, sc.ONE,
)
RIGHT = Side(
    "right", SPHERE_RIGHT, (("m", "ym"), ("z", "y0"), ("p", "yp")),
    "embed_right", "embed_right_limit", "kprime", "betaprime", "rhoprime", "PR", 1,
    sc.ONE - 2 * sc.PARAMS["h"] ** 2,
)
SIDES = (LEFT, RIGHT)

MORPHISMS = (
    f"{FUN}_coproduct",
    f"{FUN}_counit",
    f"{FUN}_antipode",
    f"{ENV}_coproduct",
    f"{ENV}_counit",
    f"{ENV}_antipode",
    *(side.embed for side in SIDES),
    *(side.limit for side in SIDES),
    SPHERE_ISO,
    SPHERE_ISO_INVERSE,
)


def _bkey(bindings):
    return tuple(sorted((name, sc.render(v)) for name, v in bindings.items()))


def normalize_bindings(bindings):
    """Validate binding names and coerce values to field elements."""
    out = {}
    for name, value in (bindings or {}).items():
        if name not in sc.PARAMS:
            raise ValueError(
                f"unknown parameter {name!r} (have: {', '.join(sc.PARAM_NAMES)})"
            )
        out[name] = sc.ensure_scalar(value)
    return out


class Catalog:
    """Parsed catalog data plus a base binding set and derivation caches."""

    def __init__(self, data, bindings=None, max_degree=6):
        self.data = data
        self.bindings = normalize_bindings(bindings)
        self.max_degree = max_degree
        self._systems = {}
        self._morphisms = {}
        self._coactions = {}
        self._pairing = None
        self._validate()

    def _validate(self):
        missing = [n for n in ALGEBRAS if n not in self.data.presentations]
        missing += [n for n in MORPHISMS if n not in self.data.morphisms]
        if MATRIX not in self.data.matrices:
            missing.append(MATRIX)
        if PAIRING not in self.data.pairings:
            missing.append(PAIRING)
        missing += [n for n in ELEMENTS if n not in self.data.elements]
        if missing:
            raise CatalogParseError(
                "catalog is missing standard entries: " + ", ".join(missing)
            )
        # each error below points at the header of the block at fault
        fun = self.algebra(FUN)
        funh = self.data.presentations[FUN]
        if DET_LABEL not in {label for label, _ in funh.relations}:
            funh.fail(f"algebra {FUN} has no relation labelled {DET_LABEL!r}")
        matrix = self.data.matrices[MATRIX]
        for side in SIDES:
            gens = self.algebra(side.sphere).gens
            for label, gname in side.axes:
                if label not in matrix.labels or gname not in gens:
                    matrix.fail(f"matrix label {label!r} / generator {gname!r} not found")
        if matrix.algebra is not fun:
            matrix.fail(f"matrix {MATRIX} must live over {FUN}")
        pairing = self.data.pairings[PAIRING]
        if pairing.env is not self.algebra(ENV) or pairing.fun is not fun:
            pairing.fail(f"pairing {PAIRING} must pair env {ENV} with fun {FUN}")
        # (source, target slots) of each standard morphism
        types = {}
        for a in (fun, self.algebra(ENV)):
            types[f"{a.id}_coproduct"] = (a, (a, a))
            types[f"{a.id}_counit"] = (a, ())
            types[f"{a.id}_antipode"] = (a, (a,))
        for side in SIDES:
            types[side.embed] = types[side.limit] = (self.algebra(side.sphere), (fun,))
        left, right = self.algebra(SPHERE_LEFT), self.algebra(SPHERE_RIGHT)
        types[SPHERE_ISO] = (left, (right,))
        types[SPHERE_ISO_INVERSE] = (right, (left,))
        for name in MORPHISMS:
            spec = self.data.morphisms[name]
            source, target = types[name]
            if spec.source is not source or spec.target != target:
                spec.fail(
                    f"morphism {name} must map {source.id} to "
                    + (" @ ".join(a.id for a in target) or "scalar")
                )

    # -- binding plumbing ------------------------------------------------

    def effective(self, without=()):
        """Base bindings with the given names kept symbolic."""
        return {n: v for n, v in self.bindings.items() if n not in without}

    def describe(self, bindings):
        return {name: sc.render(v) for name, v in sorted(bindings.items())}

    def _bound(self, bindings):
        return self.bindings if bindings is None else bindings

    # -- algebra level -----------------------------------------------------

    def algebra(self, name):
        pres = self.data.presentations.get(name)
        if pres is None:
            raise CatalogParseError(f"unknown algebra {name!r}")
        return pres.algebra

    def relations(self, name, bindings=None, skip=()):
        """Defining relations as (label, polynomial), bindings applied."""
        b = self._bound(bindings)
        out = []
        for label, poly in self.data.presentations[name].relations:
            if label in skip:
                continue
            out.append((label, substitute_poly(poly, b) if b else poly))
        return out

    def system(self, name, bindings=None, skip=()):
        b = self._bound(bindings)
        key = (name, skip, _bkey(b))
        if key not in self._systems:
            rels = [p for _, p in self.relations(name, b, skip)]
            self._systems[key] = complete(self.algebra(name), rels, max_degree=self.max_degree)
        return self._systems[key]

    # -- morphisms ---------------------------------------------------------

    def _normalizer(self, target, bindings):
        return tensor_normalizer(*(self.system(alg.id, bindings) for alg in target))

    def morphism(self, name, bindings=None):
        b = self._bound(bindings)
        key = (name, _bkey(b))
        if key not in self._morphisms:
            spec = self.data.morphisms[name]
            images = {g: substitute_poly(img, b) for g, img in spec.images.items()}
            pmap = {n: sc.substitute(v, b) if b else v for n, v in spec.param_map.items()}
            self._morphisms[key] = GenMorphism(
                name,
                spec.source,
                spec.target,
                images,
                parity=spec.parity,
                param_map=pmap or None,
                normalize=self._normalizer(spec.target, b),
            )
        return self._morphisms[key]

    def hopf(self, name):
        return HopfStructure(
            self.system(name),
            self.morphism(f"{name}_coproduct"),
            self.morphism(f"{name}_counit"),
            self.morphism(f"{name}_antipode"),
        )

    # -- matrix and coactions ----------------------------------------------

    def matrix(self):
        """Monodromy entries keyed by (row label, column label)."""
        b = self.bindings
        spec = self.data.matrices[MATRIX]
        if not b:
            return dict(spec.entries)
        return {rc: substitute_poly(p, b) for rc, p in spec.entries.items()}

    @property
    def matrix_labels(self):
        return self.data.matrices[MATRIX].labels

    def coaction(self, side):
        """Tensor-valued morphism turning a side's sphere into a funh
        comodule: each component goes to the matrix entries of its axis
        (see Side) tensor the components, with funh in slot side.fun_slot.
        """
        if side.name in self._coactions:
            return self._coactions[side.name]
        sphere = self.algebra(side.sphere)
        target = side.order(self.algebra(FUN), sphere)
        entries = self.matrix()
        comps = [(olabel, FreePoly.gen(sphere, oname)) for olabel, oname in side.axes]
        images = {}
        for label, gname in side.axes:
            terms = (side.tensor(side.entry(entries, label, o), x) for o, x in comps)
            images[gname] = FreePoly.combine(target, terms)
        morph = GenMorphism(
            f"coaction_{side.name}",
            sphere,
            target,
            images,
            normalize=self._normalizer(target, self.bindings),
        )
        self._coactions[side.name] = morph
        return morph

    # -- pairing and elements ------------------------------------------------

    def pairing(self):
        if self._pairing is None:
            b = self.bindings
            spec = self.data.pairings[PAIRING]
            table = {
                pair: sc.substitute(v, b) if b else v for pair, v in spec.table.items()
            }
            self._pairing = DualPairing(self.hopf(ENV), self.hopf(FUN), table)
        return self._pairing

    def element(self, name, bindings=None, required=True):
        """A named element with bindings applied.

        Returns None when a binding makes the element ill defined (a
        vanishing denominator) and required is False.
        """
        b = self._bound(bindings)
        spec = self.data.elements[name]
        try:
            return substitute_poly(spec.poly, b) if b else spec.poly
        except DenominatorVanishes:
            if required:
                raise
            return None


def build_catalog(bindings=None, max_degree=6, paths=None):
    """Load catalog files (the packaged set by default) and bind them."""
    if paths is None:
        paths = [default_catalog_dir()]
    return Catalog(load_catalog(paths), bindings=bindings, max_degree=max_degree)
