import argparse
import hashlib
import io
import json
import pathlib
import re

import pytest

import flagposet as fp
from flagposet.cli import build_parser, main
from conftest import rp2_flag_poset


def run(argv):
    out = io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    assert code == 0, text
    return json.loads(text)


def test_classify_pentagon():
    report = run_json(["classify", "--example", "pentagon"])
    assert report["graded"] is False
    assert report["unmixed"] is None
    assert report["cm"] is None


def test_classify_example_3_4():
    report = run_json(["classify", "--example", "3.4"])
    assert report["unmixed"] == {"structural": False, "oracle": False}
    assert [layer["unmixed"] for layer in report["layers"]] == [True, True]


def test_classify_example_4_9():
    report = run_json(["classify", "--example", "4.9"])
    assert report["generators"] == 17
    assert report["cm"] == {"structural": True, "oracle": True}


def test_classify_file_and_text_format(tmp_path):
    path = tmp_path / "p.poset"
    path.write_text(fp.poset_to_text(fp.chain(3)))
    report = run_json(["classify", str(path)])
    assert report["bi_cm"] is True
    code, text = run(["classify", str(path), "--format", "text"])
    assert code == 0 and "bi_cm: True" in text


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.poset", tmp_path / "b.poset"
    for target in (a, b):
        code, _ = run(["generate", "--widths", "3,2", "--edge-prob", "0.5",
                       "--seed", "9", "-o", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    parsed = fp.parse_poset_text(a.read_text())
    assert len(parsed) == 5


def test_betti_table_csv():
    code, text = run(["betti", "--example", "hom:2,2", "--format", "csv"])
    assert code == 0
    assert text.splitlines()[0] == "j,|A|,A,beta"
    assert "0,2,a1_1;a2_1,1" in text


def test_betti_single_multidegree_verify():
    payload = run_json(["betti", "--example", "3.4",
                        "--multidegree", "a1,a2,a3", "--verify"])
    assert payload["betti_polynomial"] == {"3": 1}
    assert payload["verified"] is True


def test_betti_fast_flag():
    payload = run_json(["betti", "--example", "hom:2,2",
                        "--multidegree", "a1_1,a1_2,a2_2", "--fast"])
    assert payload["betti_polynomial"] == {"2": 1}


def test_betti_full_table_verify():
    payload = run_json(["betti", "--example", "3.4", "--verify"])
    assert payload["verified"] is True
    assert any(e["j"] == 1 for e in payload["entries"])


def test_betti_full_table_verify_checks_table_entries(monkeypatch, capsys):
    import flagposet.cli as cli
    table_of = cli.full_betti_table

    def off_by_one(*args):
        table = table_of(*args)
        key = max(table.entries, key=lambda k: (k[0], sorted(k[1])))
        table.entries[key] += 1
        return table

    code, _ = run(["betti", "--example", "3.4", "--verify"])
    assert code == 0
    monkeypatch.setattr(cli, "full_betti_table", off_by_one)
    code, text = run(["betti", "--example", "3.4", "--verify"])
    assert code == 1 and text == ""
    assert "MISMATCH" in capsys.readouterr().err
    # without --verify the corrupted table goes out unchecked
    code, _ = run(["betti", "--example", "3.4"])
    assert code == 0


def test_betti_fast_table_matches_hochster_table():
    slow = run_json(["betti", "--example", "4.9"])
    fast = run_json(["betti", "--example", "4.9", "--fast"])
    assert fast["entries"] == slow["entries"]


def test_betti_csv_of_example_4_9_is_pinned():
    code, text = run(["betti", "--example", "4.9", "--format", "csv"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "27e0653d4988a7d1ee17e7e274660e8913bd09ebb7cc39ec86f41551248b4074")


def test_betti_rejects_ungraded(capsys):
    code, _ = run(["betti", "--example", "pentagon"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: Betti computations need a graded poset\n")


def test_isomorphic_command(tmp_path):
    f1, f2 = tmp_path / "1.poset", tmp_path / "2.poset"
    f1.write_text(fp.poset_to_text(fp.hom_rt_poset(2, 3)))
    f2.write_text(fp.poset_to_text(fp.letterplace_poset(2, fp.chain(3))))
    payload = run_json(["isomorphic", str(f1), str(f2)])
    assert payload["isomorphic"] is True
    f3 = tmp_path / "3.poset"
    f3.write_text(fp.poset_to_text(fp.chain(6)))
    payload = run_json(["isomorphic", str(f1), str(f3)])
    assert payload["isomorphic"] is False
    assert payload["bijection"] is None


def test_letterplace_example_token(tmp_path):
    q = tmp_path / "q.poset"
    q.write_text(fp.poset_to_text(fp.chain(2)))
    report = run_json(["classify", "--example", f"letterplace:2,{q}"])
    assert report["bi_cm"] is True


def test_empty_poset(tmp_path):
    # a file with no elements parses, and every command answers on it
    path = tmp_path / "empty.poset"
    path.write_text("# flagposet v1\nelements:\n")
    report = run_json(["classify", str(path)])
    for key in ("unmixed", "cm", "linear_resolution"):
        assert report[key] == {"structural": True, "oracle": True}
    assert report["bi_cm"] is True and report["generators"] == 0
    assert report["certificates"]["linear_resolution"] == {"layers": []}
    assert report["certificates"]["bi_cm"]["hom_parameters"] is None
    assert run(["betti", str(path), "--format", "csv"]) \
        == (0, "j,|A|,A,beta\n")
    table = run_json(["betti", str(path), "--fast", "--verify"])
    assert table["entries"] == [] and table["verified"] is True
    poly = run_json(["betti", str(path), "--multidegree", "", "--fast",
                     "--verify"])
    assert poly["betti_polynomial"] == {"1": 1}


def test_exit_codes(tmp_path):
    code, _ = run(["classify", str(tmp_path / "missing.poset")])
    assert code == 1
    bad = tmp_path / "bad.poset"
    bad.write_text("not a poset\n")
    code, _ = run(["classify", str(bad)])
    assert code == 1
    code, _ = run(["classify", "--example", "hom:4,5",
                   "--budget-cover-enum", "10"])
    assert code == 2


@pytest.mark.parametrize("grid", ["hom:5,5", "hom:8,8"])
def test_classify_grid_stops_at_the_transversal_budget(capsys, grid):
    # the bi-CM isomorphism is read off the CM chains and the chain
    # conditions are polynomial, so neither stops hom(5, 5) or hom(8, 8)
    # before their elements meet the 24-vertex transversal budget
    code, text = run(["classify", "--example", grid])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == ("budget exceeded: transversal "
                                       "enumeration limited to 24 vertices\n")


def test_transversal_budget_fires_before_maximal_chains(monkeypatch, capsys):
    # listing the maximal chains is exponential too, so neither the
    # report nor the vertex covers start it past the vertex budget
    from flagposet import covers, ideals

    def refuse(*args, **kwargs):
        raise AssertionError("maximal chains listed before the budget")
    monkeypatch.setattr(covers, "maximal_chains", refuse)
    monkeypatch.setattr(ideals, "maximal_chains", refuse)
    code, text = run(["classify", "--example", "hom:5,5"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == ("budget exceeded: transversal "
                                       "enumeration limited to 24 vertices\n")
    with pytest.raises(fp.BudgetExceeded,
                       match="transversal enumeration limited to 24 vertices"):
        fp.is_unmixed_bruteforce(fp.hom_rt_poset(5, 5))


def _readme_flag_table():
    """Subcommand -> the flags its row of README's flag table lists."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("Each subcommand takes only the flags it reads:")[1]
    rows = {}
    for line in table.strip().splitlines()[2:]:
        if not line.startswith("|"):
            break
        command, flags = line.strip("|").split("|")
        rows[command.strip().strip("`")] = set(
            re.findall(r"`(-[-\w]+)", flags))
    return rows


def test_readme_flag_table_matches_the_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    rows = _readme_flag_table()
    assert set(rows) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        # every listed flag is registered, and names a distinct option
        # (``-o`` stands for ``-o/--output``)
        assert rows[command] <= set(parser._option_string_actions), command
        listed = {parser._option_string_actions[flag].dest
                  for flag in rows[command]}
        registered = {a.dest for a in parser._actions
                      if a.option_strings and a.dest != "help"}
        assert listed == registered, command


def test_field_flag():
    report = run_json(["classify", "--example", "3.4",
                       "--field", "gfp:32003"])
    assert report["field"] == "GF(32003)"
    assert report["cm"]["oracle"] is False
    code, _ = run(["classify", "--example", "3.4", "--field", "gf7"])
    assert code == 1


def test_classify_field_on_a_poset_with_torsion(tmp_path):
    # the flag ideal's Betti numbers differ between GF(2) and the other
    # fields, and the verdicts must not
    path = tmp_path / "rp2.poset"
    path.write_text(fp.poset_to_text(rp2_flag_poset()))
    rows = ("unmixed", "cm", "linear_resolution")
    verdicts = {}
    for field in ("gf2", "gfp:3", "q"):
        report = run_json(["classify", str(path), "--field", field])
        for row in rows:
            assert report[row]["structural"] == report[row]["oracle"], \
                (field, row)
        verdicts[field] = [report[row] for row in rows]
    assert verdicts["gf2"] == verdicts["gfp:3"] == verdicts["q"]


def test_output_bytes_deterministic():
    _, first = run(["classify", "--example", "3.6"])
    _, second = run(["classify", "--example", "3.6"])
    assert first == second


# Flags that look global, each with a valid value, and the subcommands
# that take them; no subcommand takes --pretty, --budget-matching-nodes
# or --budget-chain-pairs.
FLAG_VALUES = {
    "--field": ["gf2"], "--seed": ["1"], "--format": ["text"],
    "--pretty": [], "--budget-cover-enum": ["50"],
    "--budget-betti-vars": ["50"], "--budget-matching-nodes": ["50"],
    "--budget-iso-elements": ["50"], "--budget-chain-pairs": ["50"],
}
READS = {
    "classify": {"--field", "--format", "--budget-cover-enum",
                 "--budget-betti-vars"},
    "betti": {"--field", "--format", "--budget-betti-vars"},
    "generate": {"--seed"},
    "isomorphic": {"--format", "--budget-iso-elements"},
}


def base_argv(command, tmp_path):
    if command == "generate":
        return ["generate", "--widths", "2,2"]
    if command == "isomorphic":
        f = tmp_path / "g.poset"
        f.write_text(fp.poset_to_text(fp.hom_rt_poset(2, 2)))
        return ["isomorphic", str(f), str(f)]
    return [command, "--example", "3.4"]


def usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    return captured.err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READS for flag in FLAG_VALUES
    if flag not in READS[command]])
def test_subcommand_rejects_flags_it_does_not_read(command, flag, tmp_path,
                                                   capsys):
    argv = base_argv(command, tmp_path) + [flag, *FLAG_VALUES[flag]]
    assert "unrecognized arguments" in usage_error(argv, capsys)


@pytest.mark.parametrize("command", READS)
def test_subcommand_accepts_the_flags_it_reads(command, tmp_path):
    argv = base_argv(command, tmp_path)
    for flag in sorted(READS[command]):
        argv += [flag, *FLAG_VALUES[flag]]
    code, text = run(argv)
    assert code == 0 and text


def test_usage_errors_exit_1(capsys):
    usage_error(["classify", "--example", "3.4", "--bogus"], capsys)
    usage_error(["classify", "--example", "3.4", "--format", "csv"], capsys)
    usage_error(["isomorphic", "a", "b", "--format", "csv"], capsys)
    usage_error(["frobnicate"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0 and "--budget-cover-enum" in \
        capsys.readouterr().out


def test_csv_rejected_for_one_multidegree():
    code, text = run(["betti", "--example", "3.4", "--multidegree",
                      "a1,a2,a3", "--format", "csv"])
    assert code == 1 and text == ""


def test_nonpositive_budget_rejected():
    code, text = run(["classify", "--example", "3.4",
                      "--budget-cover-enum", "0"])
    assert code == 1 and text == ""


def test_fast_table_keeps_the_variable_budget(capsys):
    code, text = run(["betti", "--example", "hom:4,4", "--fast",
                      "--budget-betti-vars", "4"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == ("budget exceeded: Betti table "
                                       "limited to 4 variables\n")


def test_bruteforce_multidegree_budget(monkeypatch, capsys):
    # the 2^25 subsets of hom(5, 5) are never listed: the budget reads
    # the multidegree's size first
    from flagposet import kernel

    def refuse(*args, **kwargs):
        raise AssertionError("faces listed before the budget")
    everything = ",".join(fp.hom_rt_poset(5, 5).elements)
    monkeypatch.setattr(kernel, "faces_from_nonfaces", refuse)
    for extra in ([], ["--verify"]):
        code, text = run(["betti", "--example", "hom:5,5", "--multidegree",
                          everything, "--budget-betti-vars", "4", *extra])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == ("budget exceeded: multidegree "
                                           "larger than budget 4\n")
    # the layer product alone takes no budget
    monkeypatch.undo()
    payload = run_json(["betti", "--example", "hom:5,5", "--multidegree",
                        "a1_1,a2_1,a3_1,a4_1,a5_1", "--fast",
                        "--budget-betti-vars", "4"])
    assert payload["betti_polynomial"] == {"5": 1}


def test_repeated_multidegree_element_rejected(capsys):
    code, text = run(["betti", "--example", "3.4",
                      "--multidegree", "a1,a1,a2"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == ("error: repeated element in "
                                       "multidegree: a1\n")


@pytest.mark.parametrize("widths, message", [
    ("3,x", "bad widths: 3,x"), ("3,0", "widths must be positive")])
def test_bad_widths_rejected(capsys, widths, message):
    code, text = run(["generate", "--widths", widths])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"
