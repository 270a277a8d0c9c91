"""Check registry and command line behaviour: exit codes, report formats,
parameter binding and catalog overrides."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jqsphere.catalog import default_catalog_dir
from jqsphere.checks import (
    CHECKS,
    CheckReport,
    check_ids,
    describe_checks,
    resolve_ids,
    run_check,
)
from jqsphere.cli import main
from jqsphere.errors import UnknownCheckId
from jqsphere.exprparse import max_digits
from jqsphere.jordanian import ENV, FUN, LEFT, RIGHT, build_catalog

FAST = ["pbw-funh", "determinant", "grouplike-j1", "scaling-left"]

ROOT = Path(__file__).resolve().parents[1]

# `jqsphere --list`, captured before the registry became a table of rows;
# only the duality-axioms summary has changed since
LIST_FIXTURE = ROOT / "tests" / "data" / "list_golden.txt"

# one faulty catalog per loader error, from tests/test_catalog.py
ERRORS_FIXTURE = ROOT / "tests" / "data" / "catalog_errors_golden.json"

# each mirror pair of rows: (first id, second id, keyword, its two values)
SIDED_PAIRS = [
    ("hopf-funh", "hopf-uh", "name", (FUN, ENV)),
    ("comodule-left", "comodule-right", "side", (LEFT, RIGHT)),
    ("coaction-left", "coaction-right", "side", (LEFT, RIGHT)),
    ("scaling-left", "scaling-right", "side", (LEFT, RIGHT)),
    ("embedding-left-beta", "embedding-right-beta", "side", (LEFT, RIGHT)),
    ("embedding-limit-left", "embedding-limit-right", "side", (LEFT, RIGHT)),
    ("containment-left", "containment-right", "side", (LEFT, RIGHT)),
    ("primitive-PL", "primitive-PR", "side", (LEFT, RIGHT)),
    ("invariance-PL", "invariance-PR", "side", (LEFT, RIGHT)),
]


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


# -- registry ------------------------------------------------------------


def test_registry_shape():
    ids = check_ids()
    assert len(ids) == len(set(ids)) == 29
    for name, (run, summary) in CHECKS.items():
        assert name == name.strip()
        assert callable(run), name
        assert isinstance(summary, str) and summary.strip(), f"{name} has no summary"
        assert summary == summary.strip() and "\n" not in summary, name
    assert describe_checks() == [(name, summary) for name, (_, summary) in CHECKS.items()]


def test_sided_rows_share_one_check():
    for first, second, keyword, values in SIDED_PAIRS:
        one, two = CHECKS[first][0], CHECKS[second][0]
        assert one.func is two.func, (first, second)
        assert one.args == two.args == ()
        assert (one.keywords, two.keywords) == ({keyword: values[0]}, {keyword: values[1]})
    paired = {cid for first, second, _, _ in SIDED_PAIRS for cid in (first, second)}
    assert len(paired) == 18
    # every other row runs its check function directly
    assert all(not hasattr(run, "func") for cid, (run, _) in CHECKS.items() if cid not in paired)


def test_resolve_ids_canonical_order():
    assert resolve_ids([]) == list(check_ids())
    assert resolve_ids("all") == list(check_ids())
    assert resolve_ids(["all"]) == list(check_ids())
    picked = resolve_ids(["determinant", "pbw-funh", "determinant"])
    assert picked == ["pbw-funh", "determinant"]
    with pytest.raises(UnknownCheckId, match="no-such"):
        resolve_ids(["determinant", "no-such"])


def test_run_check_pass(cat):
    report = run_check(cat, "determinant")
    assert isinstance(report, CheckReport)
    assert report.status == "pass"
    assert report.residuals == []
    assert report.elapsed_ms >= 0
    d = report.to_dict()
    assert set(d) == {"check_id", "status", "residuals", "elapsed_ms", "parameters"}


def test_run_check_unknown_id(cat):
    with pytest.raises(UnknownCheckId):
        run_check(cat, "nope")


def test_run_check_turns_engine_errors_into_reports():
    bad = build_catalog(bindings={"rho": 0})
    report = run_check(bad, "primitive-PL")
    assert report.status == "error"
    assert report.residuals and report.residuals[0][0] == "error"
    assert "vanishes" in report.residuals[0][1]


def test_run_check_reports_any_exception_and_the_run_goes_on(cat, monkeypatch):
    def crashes(cat):
        raise KeyError("no such entry")

    monkeypatch.setitem(CHECKS, "determinant", (crashes, CHECKS["determinant"][1]))
    reports = [run_check(cat, check_id) for check_id in resolve_ids(FAST[:3])]
    assert [r.check_id for r in reports] == FAST[:3]
    pbw, det, grouplike = reports
    assert det.status == "error"
    assert det.residuals == [("error", "KeyError: 'no such entry'")]
    assert det.parameters == cat.describe(cat.bindings)
    assert pbw.status == grouplike.status == "pass"


def test_run_checks_streams_in_order(cat):
    ids = [run_check(cat, check_id).check_id for check_id in resolve_ids(FAST[1::-1])]
    assert ids == ["pbw-funh", "determinant"]


# -- command line ---------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_flag(capsys):
    code, out, err = run_cli(capsys, "--list")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert len(lines) == 29
    listed = [line.split()[0] for line in lines]
    assert listed == list(check_ids())
    assert out == LIST_FIXTURE.read_text()


def test_text_run_passes(capsys):
    code, out, err = run_cli(capsys, *FAST)
    assert code == 0 and not err
    for cid in FAST:
        assert f"{cid}: pass" in out


def test_requested_order_is_ignored(capsys):
    code, out, _ = run_cli(capsys, "determinant", "pbw-funh")
    assert code == 0
    assert out.index("pbw-funh: pass") < out.index("determinant: pass")


def test_unknown_check_exits_2(capsys):
    code, out, err = run_cli(capsys, "no-such-check")
    assert code == 2 and not out
    assert "unknown check id(s): no-such-check" in err


def test_bad_set_value_exits_2(capsys):
    code, _, err = run_cli(capsys, "determinant", "--set", "h=1/0")
    assert code == 2
    assert "division by zero" in err
    code, _, err = run_cli(capsys, "determinant", "--set", "wat")
    assert code == 2 and "param=value" in err
    code, _, err = run_cli(capsys, "determinant", "--set", "zeta=1")
    assert code == 2 and "unknown parameter" in err


def test_set_without_a_value_is_a_set_error(capsys):
    code, out, err = run_cli(capsys, "determinant", "--set", "h")
    assert code == 2 and not out
    assert err == "error: <--set>:1:1: --set wants param=value, got 'h'\n"


def test_set_of_an_unknown_parameter_has_a_position(capsys):
    code, out, err = run_cli(capsys, "determinant", "--set", "q=1")
    assert code == 2 and not out
    assert err.startswith("error: <--set>:1:1: unknown parameter 'q' (have: h, k, ")


def test_oversized_numbers_exit_2_with_a_position(capsys):
    for value in ("10^5000", "10^3000*10^3000", "1" * 5000):
        code, out, err = run_cli(capsys, "determinant", "--set", f"h={value}")
        assert code == 2 and not out
        assert err.startswith("error: <--set>:1:1: ") and "digits" in err
        assert "Traceback" not in err


def test_set_accepts_expressions(capsys):
    code, out, _ = run_cli(
        capsys, "determinant", "--set", "beta=rho^2 + 2*k^2", "--set", "h=1"
    )
    assert code == 0
    assert "determinant: pass" in out
    assert "beta=2*k^2 + rho^2" in out and "h=1" in out


def test_zero_to_the_zero_is_one(capsys):
    # 0^0 is 1, as for Python numbers, so h=0^0 binds h exactly as h=1
    reports = []
    for value in ("0^0", "1"):
        code, out, err = run_cli(capsys, "--format", "json", "--set", f"h={value}", "determinant")
        assert code == 0 and not err
        (report,) = json.loads(out)
        del report["elapsed_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["status"] == "pass"


def test_iff_checks_keep_their_pivot_symbolic(capsys):
    # the embedding check unbinds beta on purpose: it proves the residual
    # is exactly the beta constraint, so a user binding would hide the iff
    code, out, _ = run_cli(
        capsys, "embedding-left-beta", "--set", "beta=7", "--set", "h=1"
    )
    assert code == 0
    assert "embedding-left-beta: pass" in out
    assert "beta" not in out.split("parameters:")[1]


def test_bound_parameters_are_echoed(capsys):
    code, out, _ = run_cli(capsys, "determinant", "--set", "h=3/2")
    assert code == 0
    assert "parameters: h=3/2" in out


def test_json_format_and_canonical_order(capsys):
    code, out, err = run_cli(capsys, "--format", "json", *reversed(FAST))
    assert code == 0 and not err
    reports = json.loads(out)
    assert [r["check_id"] for r in reports] == FAST
    for r in reports:
        assert set(r) == {"check_id", "status", "residuals", "elapsed_ms", "parameters"}
        assert r["status"] == "pass"
        assert r["residuals"] == []


def test_json_is_deterministic_modulo_timing(capsys):
    def snap():
        code, out, _ = run_cli(capsys, "--format", "json", "--set", "k=2", *FAST)
        assert code == 0
        reports = json.loads(out)
        for r in reports:
            r["elapsed_ms"] = 0
        return json.dumps(reports, sort_keys=True)

    assert snap() == snap()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--out", str(target), "determinant"
    )
    assert code == 0 and not out
    reports = json.loads(target.read_text())
    assert reports[0]["check_id"] == "determinant"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(capsys, "--out", str(target), "determinant")
    assert code == 2 and not out
    assert err.startswith("error: ") and "no-such-dir" in err
    assert "Traceback" not in err


def test_max_degree_below_one_is_a_usage_error(capsys):
    for degree in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            main(["--max-degree", degree, "pbw-funh"])
        assert info.value.code == 2
        assert "--max-degree: must be at least 1" in capsys.readouterr().err


def test_catalog_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("algebra broken\n generators x\n relation x*?\n")
    code, _, err = run_cli(capsys, "--catalog", str(bad), "determinant")
    assert code == 2
    assert "bad.cat:3:" in err


def test_every_catalog_fault_exits_2_with_a_position(tmp_path, capsys):
    bad = tmp_path / "t.cat"
    position = re.compile(f"error: {re.escape(str(bad))}:[0-9]+:[0-9]+: ")
    for case in json.loads(ERRORS_FIXTURE.read_text()):
        bad.write_text(case["text"])
        code, out, err = run_cli(capsys, "--catalog", str(bad), "determinant")
        assert code == 2 and not out, case["case"]
        assert position.match(err), case["case"]
        assert err == f"error: {case['error'].replace('<tmp>', str(tmp_path))}\n"
        assert "Traceback" not in err, case["case"]


def test_oversized_power_in_a_catalog_exits_2_before_it_is_computed(tmp_path, capsys):
    # the middle coefficient alone puts the power past the digit limit
    bad = tmp_path / "t.cat"
    bad.write_text("algebra A\n generators x\n relation r : (x^2 + 10^4000*x + 1)^40\n")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "--catalog", str(bad), "determinant")
    assert time.perf_counter() - started < 1
    assert code == 2 and not out
    assert err == f"error: {bad}:3:15: number of more than {max_digits()} digits\n"


def test_oversized_products_exit_2_before_they_run(tmp_path, capsys):
    # each ran for seconds, or would build millions of keys, before the
    # parser guarded every product
    limit = max_digits()
    pairs = f"product of more than {limit} term pairs"
    bad = tmp_path / "t.cat"
    head = "algebra A\n params h k rho s\n generators x y\n"
    for text, position in (
        (head + " relation r : ((h+k)*x + rho + s)^32\n", "4:15"),
        (
            head + "element e\n over A\n poly (h+k+rho+s)^20*(kprime+rhoprime+beta+betaprime)^20\n",
            "6:7",
        ),
        (head + "morphism m\n source A\n target A @ A\n map x -> (x+y)^12 @ (x+y)^12\n", "7:20"),
    ):
        bad.write_text(text)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "--catalog", str(bad), "determinant")
        assert time.perf_counter() - started < 1, text
        assert code == 2 and not out
        assert err == f"error: {bad}:{position}: {pairs}\n"
    for value in (
        "(h+k+rho+s)^20*(kprime+rhoprime+beta+betaprime)^20",
        "((h + k)/(2 + rho))^99999999",
    ):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "determinant", "--set", f"h={value}")
        assert time.perf_counter() - started < 1, value
        assert code == 2 and not out
        assert err == f"error: <--set>:1:1: {pairs}\n"


def test_repeated_keyword_exits_2_at_the_second_item(tmp_path, capsys):
    # a second 'over' would otherwise leave a polynomial over A in an
    # element of B
    bad = tmp_path / "t.cat"
    bad.write_text(
        "algebra A\n generators x\nalgebra B\n generators y\n"
        "element e\n over A\n poly x\n over B\n"
    )
    code, out, err = run_cli(capsys, "--catalog", str(bad), "determinant")
    assert code == 2 and not out
    assert err == f"error: {bad}:8:1: second 'over' in element e\n"
    bad.write_text("algebra A\n generators x\n  generators y\n")
    code, out, err = run_cli(capsys, "--catalog", str(bad), "determinant")
    assert code == 2 and not out
    assert err == f"error: {bad}:3:1: second 'generators' in algebra A\n"


def test_missing_catalog_path_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--catalog", str(tmp_path / "ghost.cat"), "determinant")
    assert code == 2 and "cannot read" in err


def perturbed_data_dir(tmp_path, needle, replacement, filename):
    data = tmp_path / "data"
    shutil.copytree(default_catalog_dir(), data)
    f = data / filename
    text = f.read_text()
    assert needle in text
    f.write_text(text.replace(needle, replacement))
    return data


def header_line(path, header):
    """The 1-based number of the line of path that reads header."""
    return path.read_text().splitlines().index(header) + 1


def test_failing_check_exits_1(tmp_path, capsys):
    # halving one matrix entry breaks the group-like property, nothing else
    data = perturbed_data_dir(
        tmp_path, "entry p m : (1/2)*c^2", "entry p m : c^2", "maps.cat"
    )
    code, out, err = run_cli(
        capsys, "--catalog", str(data), "--format", "json", "grouplike-j1"
    )
    assert code == 1 and not err
    (report,) = json.loads(out)
    assert report["status"] == "fail"
    labels = [label for label, _ in report["residuals"]]
    assert labels and all(label.startswith("coproduct:") for label in labels)
    values = [value for _, value in report["residuals"]]
    assert all(value != "0" for value in values)


def test_catalog_without_det_relation_exits_2(tmp_path, capsys):
    data = perturbed_data_dir(tmp_path, "relation det :", "relation qdet :", "funh.cat")
    code, out, err = run_cli(capsys, "--catalog", str(data), "determinant", "scaling-left")
    assert code == 2 and not out
    assert "error: " in err and "no relation labelled 'det'" in err
    # the error points at the header of the funh algebra block
    assert f"{data / 'funh.cat'}:{header_line(data / 'funh.cat', 'algebra funh')}:1:" in err


def test_matrix_with_unknown_label_exits_2(tmp_path, capsys):
    # renaming the row label p to q keeps the matrix well-formed, but the
    # sphere axes name the row p
    data = perturbed_data_dir(tmp_path, "rows m z p\n", "rows m z q\n", "maps.cat")
    maps = data / "maps.cat"
    renamed, count = re.subn(
        r"^entry (\S) (\S) :",
        lambda m: "entry " + " ".join("q" if x == "p" else x for x in m.groups()) + " :",
        maps.read_text(),
        flags=re.M,
    )
    assert count == 9
    maps.write_text(renamed)
    code, out, err = run_cli(capsys, "--catalog", str(data), "determinant")
    assert code == 2 and not out
    assert err.startswith(f"error: {maps}:{header_line(maps, 'matrix monodromy')}:1: ")
    assert err.endswith("matrix label 'p' / generator 'xp' not found\n")


def test_pairing_with_swapped_factors_exits_2(tmp_path, capsys):
    # env funh / fun uh with every pair swapped to match is a well-formed
    # block, but the checks pair uh (env) with funh (fun)
    data = perturbed_data_dir(
        tmp_path, "env uh\nfun funh\n", "env funh\nfun uh\n", "maps.cat"
    )
    maps = data / "maps.cat"
    swapped, count = re.subn(
        r"^pair (\S+) (\S+) ->", r"pair \2 \1 ->", maps.read_text(), flags=re.M
    )
    assert count == 16
    maps.write_text(swapped)
    code, out, err = run_cli(capsys, "--catalog", str(data), "duality-axioms")
    assert code == 2 and not out
    assert err.startswith(f"error: {maps}:{header_line(maps, 'pairing jordanian_duality')}:1: ")
    assert err.endswith("pairing jordanian_duality must pair env uh with fun funh\n")


def test_standard_morphism_with_the_wrong_target_exits_2(tmp_path, capsys):
    # a counit into uh is a well-formed morphism block, but the Hopf
    # checks need uh_counit to map uh to the scalars
    data = perturbed_data_dir(
        tmp_path, "source uh\ntarget scalar\n", "source uh\ntarget uh\n", "uh.cat"
    )
    uh = data / "uh.cat"
    code, out, err = run_cli(capsys, "--catalog", str(data), "hopf-uh")
    assert code == 2 and not out
    assert err.startswith(f"error: {uh}:{header_line(uh, 'morphism uh_counit')}:1: ")
    assert err.endswith("morphism uh_counit must map uh to scalar\n")


def test_inconsistent_catalog_reports_an_error(tmp_path, capsys):
    # shifting the determinant constant collapses the whole presentation:
    # the cross relations already force that constant, so completion
    # derives a nonzero scalar and the check must say so, not crash
    data = perturbed_data_dir(
        tmp_path,
        "relation det : a*d - b*c - h*a*c - 1",
        "relation det : a*d - b*c - h*a*c - 2",
        "funh.cat",
    )
    code, out, err = run_cli(
        capsys, "--catalog", str(data), "--format", "json", "determinant"
    )
    assert code == 1 and not err
    (report,) = json.loads(out)
    assert report["status"] == "error"
    assert "inconsistent" in report["residuals"][0][1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jqsphere", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "determinant" in proc.stdout
