"""Catalog file loading: block scanning, builders, cross references and
the packaged data files."""

import json
from pathlib import Path

import pytest

from jqsphere import scalars as sc
from jqsphere.catalog import default_catalog_dir, load_catalog
from jqsphere.errors import CatalogParseError
from jqsphere.exprparse import gen_map
from jqsphere.ncalg import FreePoly

MINI = """\
# a tiny quadratic algebra with one parameter
algebra mini
  params h
  generators x y
  relation swap: y*x - x*y - h*x^2
  relation x^2 - 1        # auto label
"""


def load_text(tmp_path, text, name="t.cat"):
    f = tmp_path / name
    f.write_text(text)
    return load_catalog([f])


def load_err(tmp_path, text):
    with pytest.raises(CatalogParseError) as info:
        load_text(tmp_path, text)
    return info.value


def test_algebra_round_trip(tmp_path):
    data = load_text(tmp_path, MINI)
    pres = data.presentations["mini"]
    assert pres.algebra.gens == ("x", "y")
    assert pres.params == ("h",)
    labels = [lab for lab, _ in pres.relations]
    assert labels == ["swap", "r1"]
    gm = gen_map(pres.algebra)
    x, y = gm["x"], gm["y"]
    assert pres.relations[0][1] == y * x - x * y - (x * x).scale(sc.h)
    assert pres.relations[1][1] == x * x - FreePoly.unit(pres.algebra)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    spaced = "\n\n# head\n" + MINI.replace("generators", "\n  # mid\n  generators")
    data = load_text(tmp_path, spaced)
    assert "mini" in data.presentations


def test_scalar_relation_promotes_to_constant_poly(tmp_path):
    data = load_text(tmp_path, "algebra triv\n params h\n generators x\n relation c: h - h + 2\n")
    (_, rel), = data.presentations["triv"].relations
    assert rel == FreePoly.unit(data.algebra("triv"), sc.ensure_scalar(2))


def test_error_positions_point_at_the_expression(tmp_path):
    e = load_err(tmp_path, "algebra a\n generators x\n relation x*zz\n")
    assert "unknown name 'zz'" in e.message
    assert e.line == 3
    assert "t.cat:3:" in str(e)


def test_unknown_parameter_is_rejected(tmp_path):
    e = load_err(tmp_path, "algebra a\n params q\n generators x\n")
    assert "unknown parameter 'q'" in e.message
    assert e.line == 2


def test_items_before_any_header(tmp_path):
    e = load_err(tmp_path, "generators x\nalgebra a\n")
    assert "before any block header" in e.message
    assert e.line == 1


def test_block_header_needs_one_identifier(tmp_path):
    e = load_err(tmp_path, "algebra two words\n")
    assert "single identifier" in e.message


def test_duplicate_block_names(tmp_path):
    e = load_err(tmp_path, MINI + "algebra mini\n generators z\n")
    assert "duplicate algebra 'mini'" in e.message


def test_unknown_item_keyword(tmp_path):
    e = load_err(tmp_path, "algebra a\n generators x\n ralation x\n")
    assert "unknown item 'ralation'" in e.message


def test_repeated_generator_is_a_positioned_error(tmp_path):
    e = load_err(tmp_path, "algebra funh\n generators c a d a\n")
    assert str(e).endswith("t.cat:2:13: duplicate generator names")


def test_missing_generators_line(tmp_path):
    e = load_err(tmp_path, "algebra a\n params h\n")
    assert "no generators line" in e.message


# -- morphisms ---------------------------------------------------------

MORPH = MINI + """\
morphism copy
  source mini
  target mini @ mini
  map x -> x@x
  map y -> y@x + 1@y

morphism flip
  source mini
  target mini
  parity antihom
  param h -> -h
  map x -> x
  map y -> y - h*x
"""


def test_morphism_round_trip(tmp_path):
    data = load_text(tmp_path, MORPH)
    copy = data.morphisms["copy"]
    alg = data.algebra("mini")
    gm = gen_map(alg)
    assert copy.target == (alg, alg)
    assert copy.parity == "hom"
    assert copy.images["x"] == FreePoly.of(gm["x"], gm["x"])
    flip = data.morphisms["flip"]
    assert flip.parity == "antihom"
    assert flip.param_map == {"h": -sc.h}
    assert flip.images["y"] == gm["y"] - gm["x"].scale(sc.h)


def test_morphism_scalar_target(tmp_path):
    text = MINI + "morphism eps\n source mini\n target scalar\n map x -> 1\n map y -> 0\n"
    data = load_text(tmp_path, text)
    eps = data.morphisms["eps"]
    assert eps.images["x"].scalar_value() == sc.ONE
    assert eps.images["y"].is_zero()


def test_morphism_missing_image(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n map x -> x\n")
    assert "missing images for: y" in e.message


def test_morphism_duplicate_image(tmp_path):
    text = MINI + "morphism m\n source mini\n target mini\n map x -> x\n map x -> y\n map y -> y\n"
    e = load_err(tmp_path, text)
    assert "duplicate image for x" in e.message


def test_morphism_image_shape_must_match_target(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n map x -> x@x\n map y -> y\n")
    assert "cannot be a tensor" in e.message
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini @ mini\n map x -> x\n map y -> y\n")
    assert "needs '@'" in e.message


def test_morphism_bad_parity_and_unknown_generator(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n parity flip\n")
    assert "parity must be hom or antihom" in e.message
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n map z -> x\n map x -> x\n map y -> y\n")
    assert "has no generator 'z'" in e.message


def test_morphism_param_image_must_be_scalar(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n param h -> k*\n map x -> x\n map y -> y\n")
    assert "expected a value" in e.message


def test_morphism_requires_arrow(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini\n map x = x\n")
    assert "needs '->'" in e.message


def test_target_shapes(tmp_path):
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target mini @ mini @ mini\n")
    assert "target must be" in e.message
    e = load_err(tmp_path, MINI + "morphism m\n source mini\n target ghost\n map x -> x\n map y -> y\n")
    assert "unknown algebra 'ghost'" in e.message


# -- matrices, elements, pairings --------------------------------------

MATRIX = MINI + """\
matrix M
  over mini
  rows p q
  entry p p: x
  entry p q: 1
  entry q p: 0
  entry q q: y^2
"""


def test_matrix_round_trip(tmp_path):
    data = load_text(tmp_path, MATRIX)
    m = data.matrices["M"]
    gm = gen_map(data.algebra("mini"))
    assert m.labels == ("p", "q")
    assert m.entries[("p", "p")] == gm["x"]
    assert m.entries[("p", "q")] == FreePoly.unit(m.algebra)
    assert m.entries[("q", "q")] == gm["y"] * gm["y"]


def test_matrix_missing_entry(tmp_path):
    e = load_err(tmp_path, MATRIX.replace("  entry q q: y^2\n", ""))
    assert "missing entry q q" in e.message


def test_matrix_entry_needs_valid_pair(tmp_path):
    e = load_err(tmp_path, MATRIX + "  entry p z: x\n")
    assert "valid 'ROW COL' pair" in e.message


def test_matrix_duplicate_row_labels(tmp_path):
    e = load_err(tmp_path, MINI + "matrix M\n over mini\n rows p p\n")
    assert "duplicate row labels" in e.message


def test_matrix_requires_over_and_rows(tmp_path):
    e = load_err(tmp_path, MINI + "matrix M\n rows p\n entry p p: x\n")
    assert "missing 'over'" in e.message


def test_element_round_trip_and_order(tmp_path):
    data = load_text(tmp_path, MINI + "element e\n over mini\n poly x*y - h\n")
    gm = gen_map(data.algebra("mini"))
    assert data.elements["e"].poly == gm["x"] * gm["y"] - FreePoly.unit(
        data.algebra("mini"), sc.h
    )
    e = load_err(tmp_path, MINI + "element e\n poly x\n over mini\n")
    assert "poly must come after the over line" in e.message


def test_pairing_round_trip(tmp_path):
    text = MINI + "pairing pr\n env mini\n fun mini\n pair x x -> 1\n pair x y -> h\n"
    data = load_text(tmp_path, text)
    pr = data.pairings["pr"]
    assert pr.table[("x", "x")] == sc.ONE
    assert pr.table[("x", "y")] == sc.h
    assert ("y", "x") not in pr.table


def test_pairing_value_must_be_scalar(tmp_path):
    e = load_err(tmp_path, MINI + "pairing pr\n env mini\n fun mini\n pair x x -> x\n")
    assert "unknown name 'x'" in e.message


def test_pairing_unknown_generator(tmp_path):
    e = load_err(tmp_path, MINI + "pairing pr\n env mini\n fun mini\n pair z x -> 1\n")
    assert "has no generator 'z'" in e.message


# -- files and directories ---------------------------------------------


def test_cross_file_references(tmp_path):
    (tmp_path / "b_morph.cat").write_text(
        "morphism id\n source mini\n target mini\n map x -> x\n map y -> y\n"
    )
    (tmp_path / "a_alg.cat").write_text(MINI)
    data = load_catalog([tmp_path])
    assert data.morphisms["id"].source is data.algebra("mini")


def test_missing_file(tmp_path):
    with pytest.raises(CatalogParseError, match="cannot read"):
        load_catalog([tmp_path / "nope.cat"])


def test_undecodable_file(tmp_path):
    f = tmp_path / "t.cat"
    f.write_bytes(b"algebra caf\xe9\n generators x\n")
    with pytest.raises(CatalogParseError) as info:
        load_catalog([f])
    assert str(info.value).startswith(f"{f}:0:0: cannot read: 'utf-8' codec can't decode")


def test_empty_directory(tmp_path):
    with pytest.raises(CatalogParseError, match="no catalog files"):
        load_catalog([tmp_path])


# one faulty catalog per error the loader can raise, with its message and
# position; a few hold two faults and pin which one is reported first
GOLDEN_ERRORS = json.loads(
    (Path(__file__).parent / "data" / "catalog_errors_golden.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN_ERRORS, ids=lambda case: case["case"])
def test_golden_errors(tmp_path, case):
    e = load_err(tmp_path, case["text"])
    assert str(e).replace(str(tmp_path), "<tmp>") == case["error"]


def test_packaged_data_loads():
    data = load_catalog([default_catalog_dir()])
    assert set(data.presentations) == {"funh", "uh", "sphere_left", "sphere_right"}
    assert "monodromy" in data.matrices
    assert "jordanian_duality" in data.pairings
    for name in ("PL", "PR", "PL_cleared", "PR_cleared"):
        assert name in data.elements
    for name in (
        "funh_coproduct", "funh_counit", "funh_antipode",
        "uh_coproduct", "uh_counit", "uh_antipode",
        "embed_left", "embed_right", "embed_left_limit", "embed_right_limit",
        "sphere_iso", "sphere_iso_inverse",
    ):
        assert name in data.morphisms


# -- a repeated key is refused at its second line ------------------------

def exits_2_at(tmp_path, capsys, text, position, message, name="t.cat"):
    """The CLI refuses the catalog text with exit 2 at LINE:COL."""
    from jqsphere.cli import main

    bad = tmp_path / name
    bad.write_text(text)
    assert main(["--catalog", str(bad), "determinant"]) == 2
    out = capsys.readouterr()
    assert not out.out
    assert out.err == f"error: {bad}:{position}: {message}\n"


def test_second_pair_for_one_generator_pair_exits_2(tmp_path, capsys):
    text = MINI + "pairing pr\n env mini\n fun mini\n pair x y -> h\n pair y x -> 1\n pair x y -> 2*h\n"
    exits_2_at(tmp_path, capsys, text, "12:7", "duplicate pair for x y")


def test_second_entry_for_one_row_and_column_exits_2(tmp_path, capsys):
    exits_2_at(tmp_path, capsys, MATRIX + "  entry p q: x\n", "14:9", "duplicate entry p q")


def test_second_param_image_exits_2(tmp_path, capsys):
    text = MINI + (
        "morphism m\n source mini\n target mini\n param h -> 2*h\n param h -> h\n"
        " map x -> x\n map y -> y\n"
    )
    exits_2_at(tmp_path, capsys, text, "11:8", "duplicate param for h")


def test_second_relation_label_exits_2(tmp_path, capsys):
    # with two det relations, skipping det would drop both from funh
    text = (default_catalog_dir() / "funh.cat").read_text()
    assert text.count("relation ab :") == 1
    text = text.replace("relation ab :", "relation det :")
    exits_2_at(
        tmp_path, capsys, text, "16:10", "duplicate relation label det", name="funh.cat"
    )
