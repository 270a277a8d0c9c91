"""The benchmark's workloads: what a pass runs and the answer it must give.

A workload object is built in two steps.  prepare() is set-up: it gets
the imported jqsphere modules and the seed, and generates every input of
the workload.  run_pass() is one pass of a closed loop with a single
client: it issues one check or reduction at a time and returns a list of
Verdicts, each already compared with its known answer.

registry-generic and registry-classical have no random inputs: they are
the CLI's default run of all checks, at the generic point and at h=0.
The seed only drives catalog-variants.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# the checks a catalog variant runs: the rewrite-system group, scaling,
# the embeddings and pi-isomorphism; none of them touches the pairing
CHEAP_CHECKS = (
    "confluence-catalog",
    "pbw-funh",
    "determinant",
    "scaling-left",
    "scaling-right",
    "embedding-left-beta",
    "embedding-right-beta",
    "embedding-limit-left",
    "embedding-limit-right",
    "embedding-matrix-form",
    "pi-isomorphism",
)

# each ideal element is a sum of this many terms c * u * rel * v, with
# words u and v of this total length
TERMS_PER_IDEAL_ELEMENT = 2
FACTOR_LENGTH = 2

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Verdict:
    label: str
    seconds: float
    wrong: bool
    check: str = None  # the registry check it came from, if any


def report_digest(reports):
    """sha256 of the JSON reports with their timing field left out."""
    rows = []
    for r in reports:
        row = r.to_dict()
        row.pop("elapsed_ms", None)
        rows.append(row)
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def parse_settings(jq, settings):
    """--set strings to bindings, through the CLI's scalar parser."""
    return {
        name: jq.exprparse.parse_scalar(value, path="<--set>") for name, value in settings
    }


class Registry:
    """All registry checks on a freshly built packaged catalog."""

    def __init__(self, name, settings):
        self.name = name
        self.settings = settings
        self.reports = []

    def prepare(self, jq, seed, workdir):
        self.jq = jq
        self.expected_digest = load_expected()["registry_digests"][self.name]
        data = jq.catalog.load_catalog([jq.catalog.default_catalog_dir()])
        self.catalog = jq.jordanian.Catalog(data, bindings=parse_settings(jq, self.settings))

    def run_pass(self):
        cat = self.catalog
        verdicts = []
        self.reports = []
        for check_id in self.jq.checks.check_ids():
            start = perf_counter()
            report = self.jq.checks.run_check(cat, check_id)
            seconds = perf_counter() - start
            self.reports.append(report)
            verdicts.append(Verdict(check_id, seconds, report.status != "pass", check_id))
        return verdicts


# Each rational point keeps its magnitudes and the seed picks the signs:
# the cost of exact arithmetic follows the heights of the numbers, so
# this keeps the work of a pass the same from seed to seed.
POINTS = (
    (("h", "1/2"), ("k", "2/3"), ("rho", "3/2"), ("kprime", "1/3"), ("rhoprime", "2")),
    (("h", "2"), ("k", "1/2"), ("rho", "3"), ("kprime", "3/2"), ("rhoprime", "1/3")),
)


def _signed(rng, value):
    return value if rng.random() < 0.5 else f"-{value}"


def _point_settings(rng, point):
    """A rational point: every deformation and shift parameter bound, the
    two radii kept symbolic."""
    return [(name, _signed(rng, value)) for name, value in point]


def _denominator_settings(rng):
    """Shifts bound to rational functions of the symbolic radius
    parameters, so coefficients get true denominators, and the radii
    bound to the expressions that make the embeddings exact."""
    return [
        ("h", _signed(rng, "1/2")),
        ("k", f"({_signed(rng, '1')})/rho"),
        ("beta", "rho^2+2*k^2"),
        ("kprime", f"({_signed(rng, '2')})/rhoprime"),
        ("betaprime", "rhoprime^2+2*(1-2*h^2)*kprime^2"),
    ]


@dataclass
class Variant:
    label: str
    settings: list  # (parameter, value text) as given to --set
    directory: Path  # holds the variant's .cat files
    fails: frozenset  # checks that must fail; every other one must pass
    ideal: list  # [(algebra, [(coeff, left word, relation index, right word)])]


class CatalogVariants:
    """Seeded catalog variants through the CLI's own input path."""

    # no recorded digest: it depends on the seed
    expected_digest = None

    def prepare(self, jq, seed, workdir):
        self.jq = jq
        rng = random.Random(seed)
        source_dir = jq.catalog.default_catalog_dir()
        texts = {p.name: p.read_text() for p in sorted(source_dir.glob("*.cat"))}
        # the packaged catalog, loaded and validated, fixes the generator
        # and relation counts the ideal elements are drawn from
        packaged = jq.jordanian.Catalog(jq.catalog.load_catalog([source_dir]))
        shape = {
            name: (len(packaged.algebra(name).gens), len(packaged.relations(name)))
            for name in jq.jordanian.ALGEBRAS
        }
        plan = [("point", _point_settings(rng, point), None) for point in POINTS]
        plan.append(("denominator", _denominator_settings(rng), None))
        # mutants stay at the generic point, where no residual can vanish
        # by a coincidence of the numbers
        plan += [(m["name"], [], m) for m in load_expected()["mutants"]]
        self.variants = []
        for i, (kind, settings, mutant) in enumerate(plan):
            directory = Path(workdir) / f"v{i:02d}"
            directory.mkdir()
            for fname, text in texts.items():
                if mutant is not None and fname == mutant["file"]:
                    if text.count(mutant["old"]) != 1:
                        raise ValueError(
                            f"mutant {mutant['name']}: {mutant['old']!r} does not "
                            f"occur exactly once in {fname}"
                        )
                    text = text.replace(mutant["old"], mutant["new"])
                (directory / fname).write_text(text)
            fails = frozenset(mutant["fails"]) if mutant else frozenset()
            ideal = [_ideal_element(rng, alg, shape[alg]) for alg in jq.jordanian.ALGEBRAS]
            self.variants.append(Variant(f"{i:02d}-{kind}", settings, directory, fails, ideal))
        self.reports = []

    def run_pass(self):
        jq = self.jq
        verdicts = []
        self.reports = []
        for v in self.variants:
            cat = jq.jordanian.Catalog(
                jq.catalog.load_catalog([v.directory]),
                bindings=parse_settings(jq, v.settings),
            )
            for check_id in CHEAP_CHECKS:
                start = perf_counter()
                report = jq.checks.run_check(cat, check_id)
                seconds = perf_counter() - start
                self.reports.append(report)
                want = "fail" if check_id in v.fails else "pass"
                verdicts.append(
                    Verdict(f"{v.label}:{check_id}", seconds, report.status != want, check_id)
                )
            for n, (alg, terms) in enumerate(v.ideal):
                start = perf_counter()
                zero = self._reduce(cat, alg, terms)
                seconds = perf_counter() - start
                verdicts.append(Verdict(f"{v.label}:ideal{n}:{alg}", seconds, not zero))
        return verdicts

    def _reduce(self, cat, alg, terms):
        """Build sum(c * u * rel * v) and reduce it; True when it is zero."""
        FreePoly = self.jq.ncalg.FreePoly
        algebra = cat.algebra(alg)
        relations = [poly for _, poly in cat.relations(alg)]
        element = FreePoly.zero(algebra)
        for coeff, left, index, right in terms:
            element = element + (
                FreePoly.from_word(algebra, left)
                * relations[index]
                * FreePoly.from_word(algebra, right)
            ).scale(coeff)
        return cat.system(alg).normal_form(element).is_zero()


def _ideal_element(rng, alg, shape):
    gens, relations = shape

    def word(length):
        return tuple(rng.randrange(gens) for _ in range(length))

    terms = []
    for _ in range(TERMS_PER_IDEAL_ELEMENT):
        left = rng.randint(0, FACTOR_LENGTH)
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        terms.append(
            (coeff, word(left), rng.randrange(relations), word(FACTOR_LENGTH - left))
        )
    return alg, terms


WORKLOADS = {
    "registry-generic": lambda: Registry("registry-generic", []),
    "registry-classical": lambda: Registry("registry-classical", [("h", "0")]),
    "catalog-variants": CatalogVariants,
}


def make(name):
    return WORKLOADS[name]()
