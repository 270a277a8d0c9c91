"""Loader for the declarative catalog files.

A catalog is a set of plain-text files made of blocks.  A block starts
with a header line `KIND NAME` and runs until the next header.  '#'
starts a comment, blank lines separate nothing, and every other line is
an item: a keyword, then its text.  The kinds and their items are

    algebra NAME                presentation
      params P ...              parameters the relations may use
      generators G ...          required; distinct names, lowest precedence first
      relation [LABEL:] EXPR    repeats; unlabelled ones are r1, r2, ...
    morphism NAME               generator images
      source ALG                required
      target ALG | ALG @ ALG | scalar     required
      parity hom | antihom      default hom
      param P -> EXPR           repeats; the scalar a parameter maps to
      map G -> EXPR             repeats; one image per source generator
    matrix NAME                 labelled square matrix of polynomials
      over ALG                  required
      rows L ...                required; distinct row and column labels
      entry ROW COL : EXPR      repeats; every ROW COL pair is needed
    element NAME                a single named polynomial
      over ALG                  required, before poly
      poly EXPR                 required
    pairing NAME                base table of a dual pairing
      env ALG                   required; the first factor
      fun ALG                   required; the second factor
      pair UGEN AGEN -> EXPR    repeats; a scalar, pairs not listed are 0

A keyword that does not repeat may appear once in its block; a second
line with it is refused.  A repeating keyword may not repeat its key:
a second param line for one parameter, map line for one generator,
entry line for one ROW COL or pair line for one UGEN AGEN is refused at
that line, as "duplicate param for P", "duplicate image for G",
"duplicate entry ROW COL" or "duplicate pair for UGEN AGEN".  Nor may
two relations of one algebra share a label, counting the automatic rN
labels: the second is refused as "duplicate relation label LABEL".

EXPR is the syntax of jqsphere.exprparse; '@' builds tensors and is
allowed only in the images of a morphism with an ALG @ ALG target.
Items are read in file order, but relation, map, entry and pair lines
only after the rest of their block; algebra blocks are built first, so
any block can refer to an algebra in any file.  The generator order is
what the rewrite systems downstream use.  All expressions stay fully
symbolic here; parameter bindings are applied by whoever builds
structures out of the parsed data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import scalars as sc
from .errors import CatalogParseError
from .exprparse import gen_map, parse_value
from .ncalg import Algebra, FreePoly

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class _Spec:
    """A parsed block, which keeps the path and header line of its block
    so that a consistency check made later can point at it."""

    def fail(self, message):
        raise CatalogParseError(message, self.path, self.line, 1)


@dataclass
class Presentation(_Spec):
    name: str
    algebra: Algebra
    params: tuple
    relations: list  # (label, FreePoly)
    path: str
    line: int


@dataclass
class MorphismSpec(_Spec):
    name: str
    source: Algebra
    target: tuple  # algebra slots: () scalar, (A,) or (A, B)
    parity: str
    param_map: dict  # name -> Scalar
    images: dict  # generator name -> FreePoly over target
    path: str
    line: int


@dataclass
class MatrixSpec(_Spec):
    name: str
    algebra: Algebra
    labels: tuple
    entries: dict  # (row label, col label) -> FreePoly
    path: str
    line: int


@dataclass
class ElementSpec(_Spec):
    name: str
    algebra: Algebra
    poly: FreePoly
    path: str
    line: int


@dataclass
class PairingSpec(_Spec):
    name: str
    env: Algebra
    fun: Algebra
    table: dict  # (env gen name, fun gen name) -> Scalar
    path: str
    line: int


@dataclass
class CatalogData:
    presentations: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)
    pairings: dict = field(default_factory=dict)

    def algebra(self, name, path="<catalog>", line=0):
        pres = self.presentations.get(name)
        if pres is None:
            raise CatalogParseError(f"unknown algebra {name!r}", path, line, 1)
        return pres.algebra


@dataclass(slots=True)
class _Item:
    """One item line: its keyword, the text after it, and where that
    text sits in the file."""

    keyword: str
    rest: str
    col: int  # 0-based offset of rest within the line
    line: int
    path: str

    def fail(self, message, col=None):
        """Raise at this line: at column col, by default where rest starts."""
        col = self.col + 1 if col is None else col
        raise CatalogParseError(message, self.path, self.line, col)

    def split(self, sep, form=None):
        """(the stripped text before sep, an item for the text after it).
        Without sep: an error that the keyword needs form, or (None, self)
        when no form is given."""
        idx = self.rest.find(sep)
        if idx < 0:
            if form:
                self.fail(f"{self.keyword} needs {form}")
            return None, self
        end = idx + len(sep)
        tail = _Item(self.keyword, self.rest[end:], self.col + end, self.line, self.path)
        return self.rest[:idx].strip(), tail

    def names(self, what):
        """The words of rest, which must be distinct."""
        names = tuple(self.rest.split())
        if len(set(names)) != len(names):
            self.fail(f"duplicate {what}")
        return names

    def param_names(self, names):
        for n in names:
            if n not in sc.PARAMS:
                self.fail(f"unknown parameter {n!r} (have: {', '.join(sc.PARAM_NAMES)})")
        return tuple(names)

    def gen(self, algebra, name):
        if name not in algebra.gens:
            self.fail(f"{algebra.id} has no generator {name!r}")
        return name

    def parse(self, params=sc.PARAMS, gens=None, tensor_slots=None):
        """The value of rest; with no gens, always a scalar."""
        return parse_value(self.rest, params, gens, tensor_slots, self.path, self.line, self.col)

    def element(self, algebra, gens, what, params=sc.PARAMS):
        """The value of rest in algebra: scalars promote, tensors are refused."""
        value = self.parse(params, gens)
        if isinstance(value, sc.Scalar):
            return FreePoly.unit(algebra, value)
        if len(value.slots) > 1:
            self.fail(f"{what} cannot be tensors")
        return value


@dataclass(slots=True)
class _Block:
    kind: str
    name: str
    path: str
    line: int
    items: list = field(default_factory=list)

    def fail(self, message):
        raise CatalogParseError(message, self.path, self.line, 1)

    def read(self, readers, repeated=(), required=()):
        """Read the items in file order into fields, one per keyword.

        Each item goes to the reader of its keyword, called as
        reader(item, fields) with the fields read so far; a reader of
        None keeps the item itself.  A keyword in repeated collects a
        list; any other may appear once and keeps its value, None when
        absent, and each keyword in required must be present.
        """
        fields = {key: [] if key in repeated else None for key in readers}
        seen = set()
        for item in self.items:
            if item.keyword not in readers:
                item.fail(f"unknown item {item.keyword!r} in {self.kind} block", 1)
            if item.keyword in seen:
                item.fail(f"second {item.keyword!r} in {self.kind} {self.name}", 1)
            if item.keyword not in repeated:
                seen.add(item.keyword)
            reader = readers[item.keyword]
            value = item if reader is None else reader(item, fields)
            if item.keyword in repeated:
                fields[item.keyword].append(value)
            else:
                fields[item.keyword] = value
        for key in required:
            if fields[key] is None:
                self.fail(f"{self.kind} {self.name} is missing '{key}'")
        return fields


def _scan_blocks(text, path):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        m = re.match(r"\s*(\S+)\s*", body)
        keyword = m.group(1)
        rest = body[m.end() :].strip()
        item = _Item(keyword, rest, m.end(), lineno, path)
        if keyword in _KINDS:
            if not rest or not _NAME_RE.match(rest):
                item.fail(f"{keyword} needs a single identifier name")
            current = _Block(keyword, rest, path, lineno)
            blocks.append(current)
        elif current is None:
            item.fail(f"{keyword!r} before any block header", 1)
        else:
            current.items.append(item)
    return blocks


def _lookup(data):
    """A reader of an algebra name."""
    return lambda item, _: data.algebra(item.rest, item.path, item.line)


def _read_generators(item, _):
    gens = item.names("generator names")
    if not gens:
        item.fail("generators line is empty")
    return gens


def _read_parity(item, _):
    if item.rest not in ("hom", "antihom"):
        item.fail("parity must be hom or antihom")
    return item.rest


def _read_param(item, fields):
    name, value = item.split("->", "'->'")
    item.param_names((name,))
    if name in dict(fields["param"]):
        item.fail(f"duplicate param for {name}")
    return name, value.parse()


def _build_algebra(block, data):
    fields = block.read(
        {
            "params": lambda item, _: item.param_names(item.rest.split()),
            "generators": _read_generators,
            "relation": None,
        },
        repeated=("relation",),
    )
    if fields["generators"] is None:
        block.fail(f"algebra {block.name} has no generators line")
    params = fields["params"] or ()
    algebra = Algebra(block.name, fields["generators"])
    gmap = gen_map(algebra)
    pmap = {n: sc.PARAMS[n] for n in params}
    relations = []
    counter = 0
    for item in fields["relation"]:
        label, expr = item.split(":")
        if label is None:
            counter += 1
            label = f"r{counter}"
        if label in dict(relations):
            item.fail(f"duplicate relation label {label}")
        relations.append((label, expr.element(algebra, gmap, "relations", pmap)))
    return Presentation(block.name, algebra, params, relations, block.path, block.line)


def _resolve_target(item, data):
    parts = [p.strip() for p in item.rest.split("@")]
    if parts == ["scalar"]:
        return ()
    if len(parts) > 2:
        item.fail("target must be ALG, ALG @ ALG, or scalar")
    return tuple(data.algebra(part, item.path, item.line) for part in parts)


def _build_morphism(block, data):
    fields = block.read(
        {
            "source": _lookup(data),
            "target": lambda item, _: _resolve_target(item, data),
            "parity": _read_parity,
            "param": _read_param,
            "map": None,
        },
        repeated=("param", "map"),
        required=("source", "target"),
    )
    source, target = fields["source"], fields["target"]
    gens = {}
    for alg in target:
        for name, poly in gen_map(alg).items():
            if name in gens and gens[name].alg is not alg:
                block.fail(f"generator name {name!r} is ambiguous between tensor slots")
            gens[name] = poly
    images = {}
    for item in fields["map"]:
        gen_name, rhs = item.split("->", "'->'")
        item.gen(source, gen_name)
        value = rhs.parse(gens=gens, tensor_slots=target if len(target) == 2 else None)
        if isinstance(value, sc.Scalar):
            value = FreePoly.scalar(target, value)
        elif value.slots != target:
            rhs.fail(
                "image of a tensor-valued morphism needs '@'"
                if len(target) == 2
                else "image of an algebra-valued morphism cannot be a tensor"
            )
        if gen_name in images:
            item.fail(f"duplicate image for {gen_name}")
        images[gen_name] = value
    missing = [g for g in source.gens if g not in images]
    if missing:
        block.fail(f"morphism {block.name} missing images for: {', '.join(missing)}")
    parity = fields["parity"] or "hom"
    return MorphismSpec(
        block.name, source, target, parity, dict(fields["param"]), images, block.path, block.line
    )


def _build_matrix(block, data):
    fields = block.read(
        {
            "over": _lookup(data),
            "rows": lambda item, _: item.names("row labels"),
            "entry": None,
        },
        repeated=("entry",),
        required=("over", "rows"),
    )
    algebra, labels = fields["over"], fields["rows"]
    gmap = gen_map(algebra)
    entries = {}
    for item in fields["entry"]:
        head, expr = item.split(":", "'ROW COL : expr'")
        rc = tuple(head.split())
        if len(rc) != 2 or rc[0] not in labels or rc[1] not in labels:
            item.fail("entry needs a valid 'ROW COL' pair")
        if rc in entries:
            item.fail(f"duplicate entry {rc[0]} {rc[1]}")
        entries[rc] = expr.element(algebra, gmap, "matrix entries")
    for r in labels:
        for c in labels:
            if (r, c) not in entries:
                block.fail(f"matrix {block.name} is missing entry {r} {c}")
    return MatrixSpec(block.name, algebra, labels, entries, block.path, block.line)


def _read_poly(item, fields):
    algebra = fields["over"]
    if algebra is None:
        item.fail("poly must come after the over line", 1)
    return item.element(algebra, gen_map(algebra), "elements")


def _build_element(block, data):
    fields = block.read(
        {"over": _lookup(data), "poly": _read_poly}, required=("over", "poly")
    )
    return ElementSpec(block.name, fields["over"], fields["poly"], block.path, block.line)


def _build_pairing(block, data):
    fields = block.read(
        {"env": _lookup(data), "fun": _lookup(data), "pair": None},
        repeated=("pair",),
        required=("env", "fun"),
    )
    env, fun = fields["env"], fields["fun"]
    table = {}
    for item in fields["pair"]:
        lhs, rhs = item.split("->", "'->'")
        names = lhs.split()
        if len(names) != 2:
            item.fail("pair needs 'UGEN AGEN -> value'")
        key = (item.gen(env, names[0]), item.gen(fun, names[1]))
        if key in table:
            item.fail(f"duplicate pair for {key[0]} {key[1]}")
        table[key] = rhs.parse()
    return PairingSpec(block.name, env, fun, table, block.path, block.line)


# block kind -> (builder, the CatalogData table it fills)
_KINDS = {
    "algebra": (_build_algebra, "presentations"),
    "morphism": (_build_morphism, "morphisms"),
    "matrix": (_build_matrix, "matrices"),
    "element": (_build_element, "elements"),
    "pairing": (_build_pairing, "pairings"),
}


def load_catalog(paths) -> CatalogData:
    """Parse catalog files into symbolic data.

    paths may be files or directories; directories contribute their
    *.cat files in sorted order.  Algebra blocks are resolved first so
    later blocks can reference them across files.
    """
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.glob("*.cat")))
        else:
            files.append(p)
    if not files:
        raise CatalogParseError("no catalog files found", str(paths), 0, 0)
    blocks = []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CatalogParseError(f"cannot read: {exc}", str(f), 0, 0) from None
        blocks.extend(_scan_blocks(text, str(f)))
    data = CatalogData()
    # a stable sort: algebras first, every kind in file order
    for block in sorted(blocks, key=lambda block: block.kind != "algebra"):
        build, name = _KINDS[block.kind]
        spec = build(block, data)
        table = getattr(data, name)
        if block.name in table:
            block.fail(f"duplicate {block.kind} {block.name!r}")
        table[block.name] = spec
    return data


def default_catalog_dir() -> Path:
    return Path(__file__).resolve().parent / "data"
