import json
import re
from pathlib import Path

import pytest

import oracle
from abelweb import (
    ConstantWeb, DegenerateWebError, InternalContradictionError, Matrix, MomentWebSpec,
    ProjectivePoint, abelian, grassmann, h_cutoff, moment_web, poly_space_dim,
)
from abelweb.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "-r", "1", "-n", "2", "-d", "5")
    assert code == 0
    assert out.strip() == "6"


def test_bound_per_degree(capsys):
    code, out, _ = run(capsys, "bound", "-r", "2", "-n", "2", "-d", "5", "--per-degree")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h\tbound"
    assert lines[-1] == "total\t4"


@pytest.mark.parametrize("d", ["-3", "0"])
@pytest.mark.parametrize("extra", [[], ["--per-degree"]])
def test_bound_rejects_d_below_1(capsys, d, extra):
    code, out, err = run(capsys, "bound", "-r", "2", "-n", "2", "-d", d, *extra)
    assert code == 1
    assert out == ""
    assert "d >= 1" in err and f"d = {d}" in err


def test_moment_then_rank(tmp_path, capsys):
    path = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4", "-o", str(path)
    )
    assert code == 0
    # round trip: the emitted file re-parses to the same web
    on_disk = ConstantWeb.from_json(json.loads(path.read_text()))
    assert on_disk == moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3, 4]))

    code, out, _ = run(capsys, "rank", "--web", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["total_rank"] == 4
    assert all(item["saturated"] for item in report["per_degree"])

    code, out, _ = run(capsys, "rank", "--web", str(path), "--tsv", "--paranoid")
    assert code == 0
    assert out.splitlines()[0] == "h\tdim\tbound\tsaturated"


def test_rank_deterministic(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4,5", "-o", str(path))
    _, first, _ = run(capsys, "rank", "--web", str(path))
    _, second, _ = run(capsys, "rank", "--web", str(path))
    assert first == second


def test_allow_degenerate_never_exits_3(tmp_path, capsys):
    # five copies of one foliation: far from general position, and the
    # relation space of degree 0 alone exceeds rho
    web = {"r": 1, "n": 2, "foliations": [[["1", "1"]]] * 5}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(web))
    code, _, err = run(capsys, "rank", "--web", str(path))
    assert code == 2
    code, out, _ = run(capsys, "rank", "--web", str(path), "--allow-degenerate")
    assert code == 0
    report = json.loads(out)
    assert report["pg"] is False
    assert report["total_rank"] > report["rho"]
    assert "semi_extremal" not in report and "maximal_rank" not in report
    code, out, _ = run(capsys, "rank", "--web", str(path), "--allow-degenerate", "--tsv")
    assert code == 0
    assert out.splitlines()[-1].endswith("pg=false")
    # dim R(cutoff) = 0 is a theorem about PG webs, so --paranoid skips it here
    code, out, _ = run(
        capsys, "rank", "--web", str(path), "--allow-degenerate", "--paranoid"
    )
    assert code == 0
    assert json.loads(out) == report


def test_pg_and_degenerate_exit(tmp_path, capsys):
    bad = {"r": 1, "n": 2, "foliations": [[["1", "0"]], [["2", "0"]], [["0", "1"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "pg", "--web", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"pg": False, "failing": [1, 2]}
    code, _, err = run(capsys, "rank", "--web", str(path))
    assert code == 2
    assert "general position" in err


def test_taus_accept_rationals(capsys):
    code, out, _ = run(capsys, "moment", "-r", "1", "-n", "2", "--taus", "1/2,-3,0")
    assert code == 0
    web = ConstantWeb.from_json(json.loads(out))
    assert web.d == 3


def test_recover_round_trip(tmp_path, capsys):
    web_path = tmp_path / "w.json"
    out_path = tmp_path / "rec.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4,5", "-o", str(web_path))
    code, _, _ = run(capsys, "recover", "--web", str(web_path), "-o", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["points"]) == 6
    assert Matrix.from_json(data["basis"]).is_invertible()


def test_recover_degenerate_exit(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3", "-o", str(path))
    code, _, err = run(capsys, "recover", "--web", str(path))
    assert code == 1  # too few foliations is an input error
    code, _, err = run(capsys, "rank", "--web", "no-such-file.json")
    assert code == 1


def test_recover_foliation_not_of_the_form_F_p_exits_2(tmp_path, capsys):
    data = moment_web(MomentWebSpec(2, 2, list(range(7)))).to_json()
    data["foliations"][6] = [["1", "2", "0", "3"], ["0", "1", "5", "-1"]]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "recover", "--web", str(path))
    assert code == 2
    assert "foliation 7 is not of the form F(p)" in err


def test_akivis(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "1", "-n", "2", "--taus", "0,1,2", "-o", str(path))
    code, out, _ = run(capsys, "akivis", "--web", str(path))
    assert code == 0
    basis = Matrix.from_json(json.loads(out)["basis"])
    assert basis.is_invertible()


def test_singular_bases_that_general_position_rules_out_exit_3(tmp_path, capsys, monkeypatch):
    """Each faked branch is proven unreachable on PG input (see the
    ``_recover_basis``, ``_point_from_block_matrix`` and ``akivis_structure``
    docstrings), so it reads as an internal contradiction, not as bad input
    or a degenerate web."""
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4,5", "-o", str(path))

    def singular(self):
        raise ValueError("matrix is singular")

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "inverse", singular)
        code, _, err = run(capsys, "recover", "--web", str(path))
    assert code == 3
    assert "recovered covector basis is singular" in err
    product = Matrix.__mul__

    def first_column_zero(self, other):
        # C = kappa_3 J^-1 with column 1 zeroed: the block C_1 is singular
        c = product(self, other)
        return Matrix._from_ints([[0, *row[1:]] for row in c.ints], c.den)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__mul__", first_column_zero)
        code, _, err = run(capsys, "akivis", "--web", str(path))
    assert code == 3
    assert "block decomposition is singular" in err
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "inverse", singular)
        code, _, err = run(capsys, "akivis", "--web", str(path))
    assert code == 3
    assert "joint basis of the first n is singular" in err

    recover_basis = grassmann._recover_basis
    with monkeypatch.context() as patch:
        # the recovered basis with the columns of its inverse all zero
        patch.setattr(grassmann, "_recover_basis",
                      lambda web: (recover_basis(web)[0], [[0] * 4] * 4))
        code, _, err = run(capsys, "recover", "--web", str(path))
    assert code == 3
    assert "foliation 1 vanishes in the recovered coordinates" in err


def test_akivis_needs_n_plus_1_foliations(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1", "-o", str(path))
    code, out, err = run(capsys, "akivis", "--web", str(path))
    assert (code, out, err) == (1, "", "error: need at least n+1 = 3 foliations\n")


def test_canonical(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"r": 2, "n": 2, "taus": ["0", "1", "2", "3", "4"]}))
    code, out, _ = run(capsys, "canonical", "--moment", str(spec_path))
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 3
    assert data["q"] == 1


def test_fit_rnc_success_and_failure(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps([["1", str(t), str(t * t)] for t in range(6)]))
    code, out, _ = run(capsys, "fit-rnc", "--points", str(good))
    assert code == 0
    assert json.loads(out)["parameters"][1] == "0"

    bad = tmp_path / "bad.json"
    points = [["1", str(t), str(t * t)] for t in range(5)] + [["1", "1", "7"]]
    bad.write_text(json.dumps(points))
    code, _, err = run(capsys, "fit-rnc", "--points", str(bad))
    assert code == 2
    assert "not on a common RNC" in err

    # points n+2 and n+3 coincide; the error carries one "degenerate:" prefix
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps([[1, 0], [0, 1], [1, 1], [1, 2], [1, 2], [1, 3]]))
    code, out, err = run(capsys, "fit-rnc", "--points", str(repeated))
    assert (code, out, err) == (2, "", "degenerate: coincident points on the candidate curve\n")


def test_fit_rnc_on_a_frame_point_exits_2(tmp_path, capsys):
    # the last point is the frame point [0 : 1], so one entry of its W is 0
    points = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [0, 1]]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out, err = run(capsys, "fit-rnc", "--points", str(path))
    assert (code, out, err) == (2, "", "degenerate: not on a common RNC\n")
    with pytest.raises(DegenerateWebError, match="^not on a common RNC$"):
        oracle.fit_rnc([ProjectivePoint(p) for p in points])


def test_fit_rnc_on_dependent_frame_points_exits_2(tmp_path, capsys):
    # the first n = 2 points coincide, so the frame the fit inverts is singular
    points = [[1, 0], [1, 0], [1, 1], [1, 2], [1, 3]]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out, err = run(capsys, "fit-rnc", "--points", str(path))
    assert (code, out, err) == (2, "", "degenerate: first n points are not in general position\n")
    with pytest.raises(DegenerateWebError, match="^first n points are not in general position$"):
        oracle.fit_rnc([ProjectivePoint(p) for p in points])


def test_json_booleans_are_not_rationals(tmp_path, capsys):
    web = {"r": 1, "n": 2, "foliations": [[[True, False]], [[False, True]], [[True, True]]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(web))
    code, _, err = run(capsys, "pg", "--web", str(path))
    assert code == 1
    assert "foliation 1 row 1 entry 1 must be an integer" in err and "got true" in err


@pytest.mark.parametrize("extra", [["5"], None])
def test_fit_rnc_mixed_lengths_is_bad_input(tmp_path, capsys, extra):
    points = [["1", str(t), str(t * t)] for t in range(6)]
    # one of the first n points is one coordinate longer, or shorter
    points[1] = points[1] + extra if extra else points[1][:2]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, _, err = run(capsys, "fit-rnc", "--points", str(path))
    assert code == 1
    assert "point 2" in err


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "bound", "-r", "1", "-n", "2")
    assert code == 1
    assert "error" in err


def test_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    # the parser is built once and shared by every call of main
    path = tmp_path / "web.json"
    path.write_text(json.dumps(moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3, 4])).to_json()))
    expected = run(capsys, "rank", "--web", str(path), "--tsv")
    assert expected[0] == 0
    for bad in (["rank", "--tsv"], ["rank", "--web", str(path), "--bogus"], ["nope"]):
        assert run(capsys, *bad)[0] == 1
        assert run(capsys, "rank", "--web", str(path), "--tsv") == expected
    assert _build_parser() is _build_parser()


def _document(command):
    """A valid (r, n) = (1, 2) input of the command, its option, and its JSON."""
    taus = ["0", "1", "2", "3", "4"]
    if command == "canonical":
        return "--moment", {"r": 1, "n": 2, "taus": taus}
    if command == "incidence":
        return "--arrangement", {"r": 1, "n": 2, "planes": [[["1", t, "-1"]] for t in taus]}
    return "--web", moment_web(MomentWebSpec(1, 2, taus)).to_json()


# a document that is not a JSON object, or an object without one of its
# fields, exits 1 naming the document and the field; nothing raises out
# of cli.main
@pytest.mark.parametrize("bad", [[], None, 3, "r", "n", "body"],
                         ids=["array", "null", "number", "no-r", "no-n", "no-body"])
@pytest.mark.parametrize("command", ["rank", "recover", "akivis", "canonical", "incidence"])
def test_documents_must_be_objects_with_their_fields(tmp_path, capsys, command, bad):
    option, data = _document(command)
    name = {"--web": "web", "--moment": "moment web", "--arrangement": "arrangement"}[option]
    if isinstance(bad, str):
        key = list(data)[2] if bad == "body" else bad  # foliations, taus or planes
        del data[key]
        message = f"{name} has no field {key!r}"
    else:
        data, message = bad, f"{name} must be a JSON object, got {json.dumps(bad)}"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, option, str(path))
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("field, value", [("r", True), ("r", 1.5), ("n", 2.5), ("n", 2.0)])
@pytest.mark.parametrize("command", ["rank", "pg", "canonical", "incidence"])
def test_web_type_must_be_an_integer(tmp_path, capsys, command, field, value):
    option, data = _document(command)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert run(capsys, command, option, str(path))[0] == 0
    path.write_text(json.dumps({**data, field: value}))
    code, _, err = run(capsys, command, option, str(path))
    assert code == 1
    assert f"integer {field} >= " in err and f"got {json.dumps(value)}" in err


@pytest.mark.parametrize("command", ["rank", "pg"])
def test_negative_r_is_reported_as_r(tmp_path, capsys, command):
    option, data = _document(command)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**data, "r": -1}))
    code, _, err = run(capsys, command, option, str(path))
    assert code == 1
    assert "r >= 1" in err


# a string where an array belongs would be read character by character:
# each of these exits 0 if it is
@pytest.mark.parametrize("argv, option, data, field", [
    (["rank"], "--web", {"r": 1, "n": 2, "foliations": [["10"], ["01"], ["11"], ["12"]]},
     "foliation 1 row 1"),
    (["fit-rnc"], "--points", [["1", "0"], ["0", "1"], ["1", "1"], ["1", "2"], "13"],
     "point 5"),
    (["canonical"], "--moment", {"r": 1, "n": 2, "taus": "01234"}, "taus"),
    (["canonical"], "--moment",
     {"r": 1, "n": 2, "taus": ["0", "1", "2", "3", "4"], "base_change": ["10", "01"]},
     "base_change row 1"),
    (["moment", "-r", "1", "-n", "2", "--taus", "0,1,2"], "--base", ["10", "01"],
     "base change row 1"),
], ids=["rank-row", "fit-rnc-point", "canonical-taus", "canonical-base_change", "moment-base"])
def test_json_strings_are_not_arrays(tmp_path, capsys, argv, option, data, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, *argv, option, str(path))
    assert code == 1
    assert f"{field} must be a JSON array" in err


# a valid first foliation of type (2, 2), and a valid first plane of type (1, 3)
_FOLIATION = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
_PLANE = [["1", "0", "0", "1"], ["0", "1", "0", "1"]]


# each shape or rank error names the foliation, plane or matrix field at fault
@pytest.mark.parametrize("argv, option, data, code, message", [
    (["rank"], "--web", {"r": 1, "n": 2, "foliations": [[["1", "0"]], [["0", "1", "1"]]]},
     1, "foliation 2: expected a 1x2 coefficient matrix"),
    (["rank"], "--web",
     {"r": 2, "n": 2, "foliations": [_FOLIATION, [["0", "0", "1", "0"], ["1"]]]},
     1, "ragged rows in foliation 2: row 2 has 1 entries, row 1 has 4"),
    (["pg"], "--web", {"r": 1, "n": 2, "foliations": [[["1", "0"]], [["0", "0"]]]},
     2, "foliation 2: not a foliation: coefficient matrix is rank deficient"),
    (["incidence"], "--arrangement",
     {"r": 1, "n": 3, "planes": [_PLANE, [["1", "0", "0", "2"], ["0", "1"]]]},
     1, "ragged rows in plane 2: row 2 has 2 entries, row 1 has 4"),
    (["incidence"], "--arrangement", {"r": 1, "n": 2, "planes": [[["1", "0", "1"]], [["1", "0"]]]},
     1, "plane 2 needs a 1x3 form matrix"),
    (["incidence"], "--arrangement",
     {"r": 1, "n": 3, "planes": [_PLANE, [["1", "0", "0", "2"], ["2", "0", "0", "4"]]]},
     1, "plane 2 forms are not independent"),
    (["canonical"], "--moment",
     {"r": 1, "n": 2, "taus": ["0", "1", "2", "3", "4"], "base_change": [["1", "0"], ["1"]]},
     1, "ragged rows in base_change: row 2 has 1 entries, row 1 has 2"),
    (["moment", "-r", "1", "-n", "2", "--taus", "0,1,2"], "--base", [["1", "0"], ["1"]],
     1, "ragged rows in base change: row 2 has 1 entries, row 1 has 2"),
    (["fit-rnc"], "--points", [["1", "0"], ["0", "0"], ["1", "1"], ["1", "2"], ["1", "3"]],
     1, "point 2: projective point needs a nonzero coordinate"),
    # an empty array is named, not reported as d = 0
    (["rank"], "--web", {"r": 2, "n": 2, "foliations": []},
     1, "error: foliations must hold at least one foliation, got []"),
    (["pg"], "--web", {"r": 2, "n": 2, "foliations": []},
     1, "error: foliations must hold at least one foliation, got []"),
    (["recover"], "--web", {"r": 2, "n": 2, "foliations": []},
     1, "error: foliations must hold at least one foliation, got []"),
    (["incidence"], "--arrangement", {"r": 2, "n": 2, "planes": []},
     1, "error: planes must hold at least one plane, got []"),
], ids=["foliation-shape", "foliation-ragged", "foliation-rank", "plane-ragged",
        "plane-shape", "plane-rank", "canonical-base_change-ragged", "moment-base-ragged",
        "point-zero", "foliations-empty-rank", "foliations-empty-pg",
        "foliations-empty-recover", "planes-empty"])
def test_shape_errors_name_their_field(tmp_path, capsys, argv, option, data, code, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    got, out, err = run(capsys, *argv, option, str(path))
    assert (got, out) == (code, "")
    assert message in err


# a bad value exits 1 naming its entry and printing the value as JSON
@pytest.mark.parametrize("argv, option, data, message", [
    (["rank"], "--web", {"r": 1, "n": 2, "foliations": [[["1", "1.5"]], [["0", "1"]]]},
     'foliation 1 row 1 entry 2 must be an integer or a "p/q" string with q != 0, got "1.5"'),
    (["pg"], "--web", {"r": 1, "n": 2, "foliations": [[["1", "0"]], [[{"x": 1}, "1"]]]},
     'foliation 2 row 1 entry 1 must be an integer or a "p/q" string with q != 0, '
     'got {"x": 1}'),
    (["fit-rnc"], "--points", [["1", "0"], ["0", "1"], ["1", None], ["1", "2"]],
     'point 3 entry 2 must be an integer or a "p/q" string with q != 0, got null'),
    (["canonical"], "--moment", {"r": 1, "n": 2, "taus": ["0", "1", "1/0", "3", "4"]},
     'taus entry 3 must be an integer or a "p/q" string with q != 0, got "1/0"'),
    (["canonical"], "--moment",
     {"r": 1, "n": 2, "taus": ["0", "1", "2", "3", "4"],
      "base_change": [["1", "0"], [2.5, "1"]]},
     'base_change row 2 entry 1 must be an integer or a "p/q" string with q != 0, got 2.5'),
], ids=["web-string", "web-object", "point-null", "taus-zero-denominator", "base_change-float"])
def test_bad_values_name_their_field(tmp_path, capsys, argv, option, data, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, option, str(path))
    assert (code, out) == (1, "")
    assert message in err


def test_a_relation_space_above_its_bound_exits_3(tmp_path, capsys, monkeypatch):
    """A kernel with one vector too many on a PG web contradicts the proven
    per-degree bound, so ``rank`` refuses it as a bug: exit 3."""
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4,5", "-o", str(path))
    real = abelian.certified_kernel

    def one_too_many(rows, ncols):
        reduced, basis = real(rows, ncols)
        return reduced, basis + [(1, {0: 1})]

    monkeypatch.setattr(abelian, "certified_kernel", one_too_many)
    code, out, err = run(capsys, "rank", "--web", str(path))
    assert (code, out) == (3, "")
    assert ("dim R(0) = 4 exceeds the proven bound 3 for a general-position web "
            "of type (2,2), d=6") in err


def test_a_relation_at_the_cutoff_exits_3_under_paranoid(tmp_path, capsys, monkeypatch):
    """The bound at the cutoff is 0, so a kernel vector there is refused by
    the per-degree bound guard: ``total_rank(paranoid=True)`` raises and
    ``rank --paranoid`` exits 3, while ``rank`` never computes that degree."""
    path = tmp_path / "w.json"
    run(capsys, "moment", "-r", "2", "-n", "2", "--taus", "0,1,2,3,4,5", "-o", str(path))
    cutoff = h_cutoff(2, 2, 6)
    real = abelian.certified_kernel
    at_cutoff = 6 * poly_space_dim(2, cutoff)
    def one_at_the_cutoff(rows, ncols):
        reduced, basis = real(rows, ncols)
        return reduced, basis + ([(1, {0: 1})] if ncols == at_cutoff else [])

    monkeypatch.setattr(abelian, "certified_kernel", one_at_the_cutoff)
    message = (f"dim R({cutoff}) = 1 exceeds the proven bound 0 for a general-position web "
               "of type (2,2), d=6")
    web = ConstantWeb.from_json(json.loads(path.read_text()))
    with pytest.raises(InternalContradictionError, match=re.escape(message)):
        abelian.total_rank(web, paranoid=True)
    assert run(capsys, "rank", "--web", str(path))[0] == 0
    code, out, err = run(capsys, "rank", "--web", str(path), "--paranoid")
    assert (code, out) == (3, "")
    assert message in err


def test_bad_taus_option_names_its_entry(capsys):
    code, out, err = run(capsys, "moment", "-r", "1", "-n", "2", "--taus", "1,x,3")
    assert (code, out) == (1, "")
    assert 'taus entry 2 must be an integer or a "p/q" string with q != 0, got "x"' in err


@pytest.mark.parametrize("taus, entry", [("0,,1", 2), ("0,1,", 3), ("", 1)],
                         ids=["inner", "trailing", "only"])
def test_an_empty_taus_entry_is_bad_input(capsys, taus, entry):
    code, out, err = run(capsys, "moment", "-r", "1", "-n", "2", "--taus", taus)
    assert (code, out) == (1, "")
    assert f'taus entry {entry} must be an integer or a "p/q" string with q != 0, got ""' in err


def test_key_error_is_a_bug_not_bad_input(monkeypatch, capsys):
    # missing JSON fields are reported as ValueError (exit 1), so a KeyError
    # can only come from the code and must not be hidden behind exit 1
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr("abelweb.cli.rho_bound", broken)
    with pytest.raises(KeyError):
        main(["bound", "-r", "1", "-n", "2", "-d", "5"])


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    lines = [line for line in lines if line.startswith("abelweb ")]
    assert len(lines) >= 9
    parser = _build_parser()
    for line in lines:
        # each bracketed optional flag is tried on its own
        optional = re.findall(r"\[([^]]*)\]", line)
        required = re.sub(r"\[[^]]*\]", "", line).split()[1:]
        for extra in [""] + optional:
            args = parser.parse_args(required + extra.split())
            assert args.command == required[0]
