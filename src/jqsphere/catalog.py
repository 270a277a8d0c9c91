"""Loader for the declarative catalog files.

A catalog is a set of plain-text files made of blocks.  A block starts
with one of

    algebra NAME      presentation: params, generators, relations
    morphism NAME     generator images, parity, optional parameter map
    matrix NAME       labelled square matrix of polynomials
    element NAME      a single named polynomial
    pairing NAME      base table of a dual pairing

and runs until the next block header.  '#' starts a comment, blank lines
separate nothing.  Generators are listed lowest precedence first; that
order is what the rewrite systems downstream use.  All expressions stay
fully symbolic here; parameter bindings are applied by whoever builds
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

BLOCK_KINDS = ("algebra", "morphism", "matrix", "element", "pairing")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class Presentation:
    name: str
    algebra: Algebra
    params: tuple
    relations: list  # (label, FreePoly)


@dataclass
class MorphismSpec:
    name: str
    source: Algebra
    target: tuple  # algebra slots: () scalar, (A,) or (A, B)
    parity: str
    param_map: dict  # name -> Scalar
    images: dict  # generator name -> FreePoly over target


@dataclass
class MatrixSpec:
    name: str
    algebra: Algebra
    labels: tuple
    entries: dict  # (row label, col label) -> FreePoly


@dataclass
class ElementSpec:
    name: str
    algebra: Algebra
    poly: FreePoly


@dataclass
class PairingSpec:
    name: str
    env: Algebra
    fun: Algebra
    table: dict  # (env gen name, fun gen name) -> Scalar


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


class _Item:
    __slots__ = ("keyword", "rest", "rest_col", "line")

    def __init__(self, keyword, rest, rest_col, line):
        self.keyword = keyword
        self.rest = rest
        self.rest_col = rest_col  # 0-based offset of rest within the line
        self.line = line


class _Block:
    __slots__ = ("kind", "name", "path", "line", "items")

    def __init__(self, kind, name, path, line):
        self.kind = kind
        self.name = name
        self.path = path
        self.line = line
        self.items = []


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
        rest_col = m.end()
        if keyword in BLOCK_KINDS:
            if not rest or not _NAME_RE.match(rest):
                raise CatalogParseError(
                    f"{keyword} needs a single identifier name", path, lineno, rest_col + 1
                )
            current = _Block(keyword, rest, path, lineno)
            blocks.append(current)
        else:
            if current is None:
                raise CatalogParseError(
                    f"{keyword!r} before any block header", path, lineno, 1
                )
            current.items.append(_Item(keyword, rest, rest_col, lineno))
    return blocks


def _split_arrow(item, block):
    idx = item.rest.find("->")
    if idx < 0:
        raise CatalogParseError(
            f"{item.keyword} needs '->'", block.path, item.line, item.rest_col + 1
        )
    lhs = item.rest[:idx].strip()
    rhs = item.rest[idx + 2 :]
    rhs_col = item.rest_col + idx + 2
    return lhs, rhs, rhs_col


def _split_colon(item, block):
    idx = item.rest.find(":")
    if idx < 0:
        return None, item.rest, item.rest_col
    label = item.rest[:idx].strip()
    return label, item.rest[idx + 1 :], item.rest_col + idx + 1


def _expect_fields(block, fields, required):
    for name in required:
        if fields.get(name) is None:
            raise CatalogParseError(
                f"{block.kind} {block.name} is missing '{name}'",
                block.path,
                block.line,
                1,
            )


def _param_scalars(names):
    return {n: sc.PARAMS[n] for n in names}


def _check_params(names, block, item):
    for n in names:
        if n not in sc.PARAMS:
            raise CatalogParseError(
                f"unknown parameter {n!r} (have: {', '.join(sc.PARAM_NAMES)})",
                block.path,
                item.line,
                item.rest_col + 1,
            )


def _one_slot(value, algebra, what, path, line, col):
    """value as an element of algebra: scalars promote, tensors are refused."""
    if isinstance(value, sc.Scalar):
        return FreePoly.unit(algebra, value)
    if len(value.slots) > 1:
        raise CatalogParseError(f"{what} cannot be tensors", path, line, col)
    return value


def _build_algebra(block):
    params = ()
    gens = None
    relation_items = []
    for item in block.items:
        if item.keyword == "params":
            params = tuple(item.rest.split())
            _check_params(params, block, item)
        elif item.keyword == "generators":
            gens = tuple(item.rest.split())
            if not gens:
                raise CatalogParseError(
                    "generators line is empty", block.path, item.line, item.rest_col + 1
                )
        elif item.keyword == "relation":
            relation_items.append(item)
        else:
            raise CatalogParseError(
                f"unknown item {item.keyword!r} in algebra block",
                block.path,
                item.line,
                1,
            )
    if gens is None:
        raise CatalogParseError(
            f"algebra {block.name} has no generators line", block.path, block.line, 1
        )
    algebra = Algebra(block.name, gens)
    gmap = gen_map(algebra)
    pmap = _param_scalars(params)
    relations = []
    counter = 0
    for item in relation_items:
        label, expr, col = _split_colon(item, block)
        if label is None:
            counter += 1
            label = f"r{counter}"
        value = parse_value(
            expr, params=pmap, gens=gmap, path=block.path, line=item.line, col_offset=col
        )
        value = _one_slot(value, algebra, "relations", block.path, item.line, col + 1)
        relations.append((label, value))
    return Presentation(block.name, algebra, params, relations)


def _resolve_target(text, data, block, item):
    parts = [p.strip() for p in text.split("@")]
    if parts == ["scalar"]:
        return ()
    if len(parts) <= 2:
        return tuple(data.algebra(part, block.path, item.line) for part in parts)
    raise CatalogParseError(
        "target must be ALG, ALG @ ALG, or scalar", block.path, item.line, item.rest_col + 1
    )


def _build_morphism(block, data):
    source = target = None
    parity = "hom"
    param_map = {}
    image_items = []
    for item in block.items:
        if item.keyword == "source":
            source = data.algebra(item.rest, block.path, item.line)
        elif item.keyword == "target":
            target = _resolve_target(item.rest, data, block, item)
        elif item.keyword == "parity":
            if item.rest not in ("hom", "antihom"):
                raise CatalogParseError(
                    "parity must be hom or antihom", block.path, item.line, item.rest_col + 1
                )
            parity = item.rest
        elif item.keyword == "param":
            name, rhs, col = _split_arrow(item, block)
            _check_params((name,), block, item)
            value = parse_value(
                rhs, params=dict(sc.PARAMS), path=block.path, line=item.line, col_offset=col
            )
            if not isinstance(value, sc.Scalar):
                raise CatalogParseError(
                    "parameter images must be scalars", block.path, item.line, col + 1
                )
            param_map[name] = value
        elif item.keyword == "map":
            image_items.append(item)
        else:
            raise CatalogParseError(
                f"unknown item {item.keyword!r} in morphism block",
                block.path,
                item.line,
                1,
            )
    fields = {"source": source, "target": target}
    _expect_fields(block, fields, ("source", "target"))
    gens = {}
    for alg in target:
        for name, poly in gen_map(alg).items():
            if name in gens and gens[name].alg is not alg:
                raise CatalogParseError(
                    f"generator name {name!r} is ambiguous between tensor slots",
                    block.path,
                    block.line,
                    1,
                )
            gens[name] = poly
    pmap = dict(sc.PARAMS)
    images = {}
    for item in image_items:
        gen_name, rhs, col = _split_arrow(item, block)
        if gen_name not in source.gens:
            raise CatalogParseError(
                f"{source.id} has no generator {gen_name!r}",
                block.path,
                item.line,
                item.rest_col + 1,
            )
        value = parse_value(
            rhs,
            params=pmap,
            gens=gens,
            tensor_slots=target if len(target) == 2 else None,
            path=block.path,
            line=item.line,
            col_offset=col,
        )
        if isinstance(value, sc.Scalar):
            value = FreePoly.scalar(target, value)
        elif value.slots != target:
            raise CatalogParseError(
                "image of a tensor-valued morphism needs '@'"
                if len(target) == 2
                else "image of an algebra-valued morphism cannot be a tensor",
                block.path,
                item.line,
                col + 1,
            )
        if gen_name in images:
            raise CatalogParseError(
                f"duplicate image for {gen_name}", block.path, item.line, item.rest_col + 1
            )
        images[gen_name] = value
    missing = [g for g in source.gens if g not in images]
    if missing:
        raise CatalogParseError(
            f"morphism {block.name} missing images for: {', '.join(missing)}",
            block.path,
            block.line,
            1,
        )
    return MorphismSpec(block.name, source, target, parity, param_map, images)


def _build_matrix(block, data):
    algebra = None
    labels = None
    entry_items = []
    for item in block.items:
        if item.keyword == "over":
            algebra = data.algebra(item.rest, block.path, item.line)
        elif item.keyword == "rows":
            labels = tuple(item.rest.split())
            if len(set(labels)) != len(labels):
                raise CatalogParseError(
                    "duplicate row labels", block.path, item.line, item.rest_col + 1
                )
        elif item.keyword == "entry":
            entry_items.append(item)
        else:
            raise CatalogParseError(
                f"unknown item {item.keyword!r} in matrix block", block.path, item.line, 1
            )
    _expect_fields(block, {"over": algebra, "rows": labels}, ("over", "rows"))
    gmap = gen_map(algebra)
    pmap = dict(sc.PARAMS)
    entries = {}
    for item in entry_items:
        head, expr, col = _split_colon(item, block)
        if head is None:
            raise CatalogParseError(
                "entry needs 'ROW COL : expr'", block.path, item.line, item.rest_col + 1
            )
        rc = head.split()
        if len(rc) != 2 or rc[0] not in labels or rc[1] not in labels:
            raise CatalogParseError(
                "entry needs a valid 'ROW COL' pair", block.path, item.line, item.rest_col + 1
            )
        value = parse_value(
            expr, params=pmap, gens=gmap, path=block.path, line=item.line, col_offset=col
        )
        entries[(rc[0], rc[1])] = _one_slot(
            value, algebra, "matrix entries", block.path, item.line, col + 1
        )
    for r in labels:
        for c in labels:
            if (r, c) not in entries:
                raise CatalogParseError(
                    f"matrix {block.name} is missing entry {r} {c}",
                    block.path,
                    block.line,
                    1,
                )
    return MatrixSpec(block.name, algebra, labels, entries)


def _build_element(block, data):
    algebra = None
    poly = None
    for item in block.items:
        if item.keyword == "over":
            algebra = data.algebra(item.rest, block.path, item.line)
        elif item.keyword == "poly":
            if algebra is None:
                raise CatalogParseError(
                    "poly must come after the over line", block.path, item.line, 1
                )
            value = parse_value(
                item.rest,
                params=dict(sc.PARAMS),
                gens=gen_map(algebra),
                path=block.path,
                line=item.line,
                col_offset=item.rest_col,
            )
            poly = _one_slot(
                value, algebra, "elements", block.path, item.line, item.rest_col + 1
            )
        else:
            raise CatalogParseError(
                f"unknown item {item.keyword!r} in element block", block.path, item.line, 1
            )
    _expect_fields(block, {"over": algebra, "poly": poly}, ("over", "poly"))
    return ElementSpec(block.name, algebra, poly)


def _build_pairing(block, data):
    env = fun = None
    pair_items = []
    for item in block.items:
        if item.keyword == "env":
            env = data.algebra(item.rest, block.path, item.line)
        elif item.keyword == "fun":
            fun = data.algebra(item.rest, block.path, item.line)
        elif item.keyword == "pair":
            pair_items.append(item)
        else:
            raise CatalogParseError(
                f"unknown item {item.keyword!r} in pairing block", block.path, item.line, 1
            )
    _expect_fields(block, {"env": env, "fun": fun}, ("env", "fun"))
    table = {}
    for item in pair_items:
        lhs, rhs, col = _split_arrow(item, block)
        names = lhs.split()
        if len(names) != 2:
            raise CatalogParseError(
                "pair needs 'UGEN AGEN -> value'", block.path, item.line, item.rest_col + 1
            )
        ug, ag = names
        if ug not in env.gens:
            raise CatalogParseError(
                f"{env.id} has no generator {ug!r}", block.path, item.line, item.rest_col + 1
            )
        if ag not in fun.gens:
            raise CatalogParseError(
                f"{fun.id} has no generator {ag!r}", block.path, item.line, item.rest_col + 1
            )
        value = parse_value(
            rhs, params=dict(sc.PARAMS), path=block.path, line=item.line, col_offset=col
        )
        if not isinstance(value, sc.Scalar):
            raise CatalogParseError(
                "pairing values must be scalars", block.path, item.line, col + 1
            )
        table[(ug, ag)] = value
    return PairingSpec(block.name, env, fun, table)


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
    all_blocks = []
    for f in files:
        try:
            text = f.read_text()
        except OSError as exc:
            raise CatalogParseError(f"cannot read: {exc}", str(f), 0, 0) from None
        all_blocks.extend(_scan_blocks(text, str(f)))
    data = CatalogData()

    def register(table, key, value, block):
        if key in table:
            raise CatalogParseError(
                f"duplicate {block.kind} {key!r}", block.path, block.line, 1
            )
        table[key] = value

    for block in all_blocks:
        if block.kind == "algebra":
            register(data.presentations, block.name, _build_algebra(block), block)
    for block in all_blocks:
        if block.kind == "morphism":
            register(data.morphisms, block.name, _build_morphism(block, data), block)
        elif block.kind == "matrix":
            register(data.matrices, block.name, _build_matrix(block, data), block)
        elif block.kind == "element":
            register(data.elements, block.name, _build_element(block, data), block)
        elif block.kind == "pairing":
            register(data.pairings, block.name, _build_pairing(block, data), block)
    return data


def default_catalog_dir() -> Path:
    return Path(__file__).resolve().parent / "data"
