import collections
import json
import os
import random
import shutil
from pathlib import Path

import pytest

from fcaregistry import CATEGORIES, registry
from fcaregistry.cli import main
from conftest import FIXTURES, run_python

TABLE1 = str(FIXTURES / "table1.csv")
CORPUS = str(FIXTURES / "bioregistry8")
ONT = str(FIXTURES / "organisms.ont")


@pytest.fixture()
def lattice_file(tmp_path, capsys):
    out = tmp_path / "table1.lat"
    assert main(["build", "--context", TABLE1, "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out)


class TestBuild:
    def test_from_context(self, tmp_path, capsys):
        out = tmp_path / "l.json"
        assert main(["build", "--context", TABLE1, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "8 objects, 8 attributes, 12 concepts"
        assert out.exists()

    def test_from_records(self, tmp_path, capsys):
        out = tmp_path / "l.json"
        assert main(["build", "--records", CORPUS, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "8 objects, 8 attributes, 12 concepts"

    def test_a_record_directory_that_cannot_be_listed_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        corpus = str(tmp_path / "corpus")
        shutil.copytree(CORPUS, corpus)

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        # the tests run as root, whom a mode bit does not stop
        monkeypatch.setattr(registry.os, "listdir", refuse)
        out = tmp_path / "l.json"
        assert main(["build", "--records", corpus, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read record directory {corpus!r}: [Errno 13] Permission denied: {corpus!r}\n"
        assert not out.exists()

    def test_both_inputs_is_usage_error(self, tmp_path, capsys):
        rc = main(["build", "--context", TABLE1, "--records", CORPUS, "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,m1\nS1,1\n", encoding="utf-8")
        rc = main(["build", "--context", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_malformed_record_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"id": "S1", "subjects": "NS"}), encoding="utf-8")
        rc = main(["build", "--records", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_in_a_missing_directory_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.lat"
        assert main(["build", "--context", TABLE1, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    def test_out_holding_a_nul_is_one_error_line(self, capsys):
        assert main(["build", "--context", TABLE1, "--out", "x\0y"]) == 1
        assert capsys.readouterr() == ("", "error: cannot write lattice file 'x\\x00y': embedded null byte\n")


class TestQuery:
    def test_golden_query(self, lattice_file, capsys):
        assert main(["query", "--lattice", lattice_file, "--terms", "NS,Hu,MR"]) == 0
        out = capsys.readouterr().out
        lines = [l.split() for l in out.splitlines() if l and l[0] == "S"]
        assert [(l[0], l[1]) for l in lines] == [
            ("S2", "1"), ("S3", "1"), ("S5", "1"), ("S1", "2"), ("S4", "2"), ("S6", "2"),
        ]

    def test_golden_refined_query(self, lattice_file, capsys):
        rc = main([
            "query", "--lattice", lattice_file, "--terms", "Ch",
            "--refine", "generalize", "--ontology", ONT,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines() if l and l[0] == "S"]
        assert {(r[0], r[1]) for r in rows} == {
            ("S1", "1"), ("S2", "1"), ("S4", "1"), ("S6", "1"), ("S8", "1"),
        }

    @pytest.mark.parametrize(
        "terms, mode, hops, expected",
        [
            ("Human", "generalize", [], ["S3", "S5", "S8", "S6", "S1", "S2", "S4"]),
            ("Any Organism", "specialize", [], ["S1", "S2", "S4", "S6", "S8", "S3", "S5", "S7"]),
            ("Human", "generalize", ["--hops", "0"], ["S3", "S5"]),
        ],
        ids=["human-generalize", "root-specialize", "human-hops-0"],
    )
    def test_a_term_typed_by_its_name_reaches_the_carrier_of_its_alias(
        self, lattice_file, capsys, terms, mode, hops, expected
    ):
        # table1 carries Human as "Hu" and Any Organism as "AO", their aliases
        argv = ["query", "--lattice", lattice_file, "--refine", mode, "--ontology", ONT, *hops, "--format", "machine"]
        assert main([*argv, "--terms", terms]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(r["source"], r["rank"]) for r in doc["results"]] == [(s, 1) for s in expected]
        alias = {"Human": "Hu", "Any Organism": "AO"}[terms]
        assert alias in doc["refinement"]["added"]
        assert terms not in doc["refinement"]["dropped_candidates"]
        assert main([*argv, "--terms", alias]) == 0
        by_alias = json.loads(capsys.readouterr().out)
        assert {r["source"] for r in by_alias["results"]} == set(expected)
        assert by_alias["refinement"]["dropped_candidates"] == doc["refinement"]["dropped_candidates"]

    def test_auto_mode_on_leaf(self, lattice_file, capsys):
        rc = main([
            "query", "--lattice", lattice_file, "--terms", "Ch",
            "--refine", "auto", "--ontology", ONT,
        ])
        assert rc == 0
        assert "S8" in capsys.readouterr().out

    def test_auto_mode_on_middle_term_is_usage_error(self, lattice_file, capsys):
        rc = main([
            "query", "--lattice", lattice_file, "--terms", "An",
            "--refine", "auto", "--ontology", ONT,
        ])
        assert rc == 2

    def test_auto_mode_skips_a_term_with_another_prefix(self, lattice_file, capsys):
        rc = main([
            "query", "--lattice", lattice_file, "--terms", "GO:Ch",
            "--refine", "auto", "--ontology", ONT,
        ])
        assert rc == 2
        assert "no query term is in the ontology" in capsys.readouterr().err

    def test_auto_mode_ignores_a_middle_term_with_another_prefix(self, lattice_file, capsys):
        argv = ["query", "--lattice", lattice_file, "--terms", "GO:Ve,Ch", "--format", "machine"]
        assert main([*argv, "--refine", "auto", "--ontology", ONT]) == 0
        auto = capsys.readouterr().out
        assert main([*argv, "--refine", "generalize", "--ontology", ONT]) == 0
        assert auto == capsys.readouterr().out
        assert '"S8"' in auto

    def test_auto_mode_on_the_root_is_specialize(self, lattice_file, capsys):
        argv = ["query", "--lattice", lattice_file, "--terms", "Any Organism", "--format", "machine"]
        assert main([*argv, "--refine", "auto", "--ontology", ONT]) == 0
        auto = capsys.readouterr().out
        assert main([*argv, "--refine", "specialize", "--ontology", ONT]) == 0
        assert auto == capsys.readouterr().out
        assert '"mode": "specialize"' in auto

    def test_auto_mode_on_the_root_and_a_leaf_is_usage_error(self, lattice_file, capsys):
        argv = ["query", "--lattice", lattice_file, "--terms", "Any Organism,Ch", "--refine", "auto", "--ontology", ONT]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "usage error: mixed leaf/root terms; pick a refinement mode explicitly\n")

    def test_a_bare_term_under_two_prefixes_is_usage_error(self, tmp_path, capsys):
        context, lat = tmp_path / "two.csv", tmp_path / "two.lat"
        context.write_text(",a:x,b:x\nS1,1,0\nS2,0,1\n", encoding="utf-8")
        assert main(["build", "--context", str(context), "--out", str(lat)]) == 0
        capsys.readouterr()
        assert main(["query", "--lattice", str(lat), "--terms", "x"]) == 2
        assert capsys.readouterr() == ("", "usage error: ambiguous term 'x'; candidates: a:x, b:x\n")

    def test_a_name_that_spells_an_attribute_names_it(self, tmp_path, capsys):
        # "Hu" is the bare attribute, though "NCBI:Hu" has the same term
        context, lat = tmp_path / "hu.csv", tmp_path / "hu.lat"
        context.write_text(",Hu,NCBI:Hu,NS\nS1,1,0,1\nS2,0,1,0\nS3,0,0,1\n", encoding="utf-8")
        assert main(["build", "--context", str(context), "--out", str(lat)]) == 0
        capsys.readouterr()
        views = {"Hu": ("S1", "1 object, 2 attributes, 1 concept"), "NCBI:Hu": ("S2", "1 object, 1 attribute, 1 concept")}
        for name, (source, line) in views.items():
            assert main(["query", "--lattice", str(lat), "--terms", name, "--format", "machine"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert [(r["source"], r["rank"]) for r in doc["results"]] == [(source, 0)], name
            for flag, path in (("--lattice", lat), ("--context", context)):
                out = tmp_path / f"{source}.lat"
                assert main(["classify", flag, str(path), "--attribute", name, "--out", str(out)]) == 0
                assert capsys.readouterr() == (line + "\n", "")
                assert json.loads(out.read_text(encoding="utf-8"))["context"]["objects"] == [source], name

    def test_empty_terms_usage_error(self, lattice_file):
        assert main(["query", "--lattice", lattice_file, "--terms", ""]) == 2

    @pytest.mark.parametrize("terms, name", [("Hu,NS:", "NS:"), ("GO:,Hu", "GO:"), ("NS:", "NS:")])
    def test_empty_term_after_a_prefix_usage_error(self, lattice_file, capsys, terms, name):
        assert main(["query", "--lattice", lattice_file, "--terms", terms]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: no term after the prefix in {name!r}\n"

    @pytest.mark.parametrize("terms", ["NS,\udc80x", "\udcff:Hu,NS", "NCBI:H\udc80"])
    def test_a_name_that_is_not_utf8_is_usage_error(self, lattice_file, capsys, terms):
        # Python decodes command-line bytes that are not UTF-8 to lone surrogates
        assert main(["query", "--lattice", lattice_file, "--terms", terms]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: attribute ") and err.endswith(" holds a lone surrogate\n")
        assert err.count("\n") == 1

    def test_refine_without_ontology_usage_error(self, lattice_file):
        rc = main(["query", "--lattice", lattice_file, "--terms", "Ch", "--refine", "generalize"])
        assert rc == 2

    def test_negative_hops_usage_error(self, lattice_file, capsys):
        rc = main([
            "query", "--lattice", lattice_file, "--terms", "AO",
            "--refine", "specialize", "--ontology", ONT, "--hops", "-1",
        ])
        assert rc == 2
        assert "--hops" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--hops", "2"], "--hops requires --refine"),
            (["--ontology", "/nonexistent/organisms.ont"], "--ontology requires --refine"),
            (["--hops", "0", "--ontology", ONT], "--ontology requires --refine"),
        ],
        ids=["hops", "missing-ontology", "hops-and-ontology"],
    )
    def test_refinement_flag_without_refine_usage_error(self, lattice_file, capsys, flags, message):
        rc = main(["query", "--lattice", lattice_file, "--terms", "Ch", *flags])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--terms", ","],
            ["--terms", "Hu", "--refine", "generalize"],
            ["--terms", "Hu", "--ontology", ONT],
            ["--terms", "Hu", "--hops", "1"],
            ["--terms", "Hu", "--refine", "generalize", "--ontology", ONT, "--hops", "-1"],
        ],
        ids=["no-terms", "refine-only", "ontology-only", "hops-only", "negative-hops"],
    )
    def test_flags_are_checked_before_any_file_is_read(self, tmp_path, capsys, flags):
        missing = str(tmp_path / "missing.lat")
        assert main(["query", "--lattice", missing, *flags]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_empty_result_is_success(self, lattice_file, capsys):
        assert main(["query", "--lattice", lattice_file, "--terms", "Ch"]) == 0
        assert "no matching sources" in capsys.readouterr().out

    def test_machine_format_deterministic(self, lattice_file, capsys):
        argv = ["query", "--lattice", lattice_file, "--terms", "NS,Hu,MR", "--format", "machine"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert [r["source"] for r in doc["results"]] == ["S2", "S3", "S5", "S1", "S4", "S6"]

    def test_unreadable_lattice(self, tmp_path):
        assert main(["query", "--lattice", str(tmp_path / "no.lat"), "--terms", "Hu"]) == 1

    def test_malformed_lattice_is_data_error(self, lattice_file, capsys):
        with open(lattice_file, encoding="utf-8") as f:
            doc = json.load(f)
        del doc["context"]
        with open(lattice_file, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        assert main(["query", "--lattice", lattice_file, "--terms", "Hu"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_prefix_is_no_prefix(self, lattice_file, capsys):
        argv = ["query", "--lattice", lattice_file, "--terms", ":NS", "--format", "machine"]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [(r["source"], r["shared"]) for r in results] == [
            ("S2", ["NS"]), ("S3", ["NS"]), ("S5", ["NS"]), ("S6", ["NS"]),
        ]


class TestClassify:
    def test_by_category(self, lattice_file, tmp_path, capsys):
        out = tmp_path / "s.lat"
        rc = main(["classify", "--lattice", lattice_file, "--category", "Subject", "--out", str(out)])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("8 objects, 2 attributes")

    def test_by_attribute(self, lattice_file, tmp_path, capsys):
        out = tmp_path / "hu.lat"
        rc = main(["classify", "--lattice", lattice_file, "--attribute", "Hu", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("2 objects, 3 attributes")

    def test_both_selectors_usage_error(self, lattice_file, tmp_path):
        rc = main([
            "classify", "--lattice", lattice_file, "--category", "Subject",
            "--attribute", "Hu", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("given", [("lattice", "context"), ()], ids=["both", "neither"])
    def test_not_exactly_one_input_usage_error(self, lattice_file, tmp_path, capsys, given):
        paths = {"lattice": lattice_file, "context": TABLE1}
        flags = [arg for source in given for arg in (f"--{source}", paths[source])]
        out = tmp_path / "x"
        assert main(["classify", *flags, "--category", "Subject", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "usage error: give exactly one of --lattice or --context\n")
        assert not out.exists()

    def test_unknown_attribute_data_error(self, lattice_file, tmp_path):
        rc = main(["classify", "--lattice", lattice_file, "--attribute", "Zz", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_empty_term_after_a_prefix_usage_error(self, lattice_file, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["classify", "--lattice", lattice_file, "--attribute", "NS:", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "usage error: no term after the prefix in 'NS:'\n")
        assert not out.exists()

    def test_a_name_that_is_not_utf8_is_usage_error(self, lattice_file, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["classify", "--lattice", lattice_file, "--attribute", "\udc80x", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "usage error: attribute term '\\udc80x' holds a lone surrogate\n")
        assert not out.exists()

    def test_a_view_from_a_lattice_is_the_view_from_its_context(self, lattice_file, tmp_path):
        for source, path in (("lattice", lattice_file), ("context", TABLE1)):
            assert main(["classify", f"--{source}", path, "--attribute", "Hu", "--out", str(tmp_path / source)]) == 0
        assert (tmp_path / "lattice").read_bytes() == (tmp_path / "context").read_bytes()


class TestExportAndStats:
    def test_export_dot_counts(self, lattice_file, capsys):
        assert main(["export-dot", "--lattice", lattice_file]) == 0
        out = capsys.readouterr().out
        assert out.count("[label=") == 12

    def test_export_dot_reduced(self, lattice_file, capsys):
        assert main(["export-dot", "--lattice", lattice_file, "--reduced"]) == 0
        out = capsys.readouterr().out
        assert sum("Mo" in l for l in out.splitlines() if "label=" in l) == 1

    def test_export_dot_deterministic(self, lattice_file, capsys):
        main(["export-dot", "--lattice", lattice_file])
        a = capsys.readouterr().out
        main(["export-dot", "--lattice", lattice_file])
        assert capsys.readouterr().out == a

    def test_stats_table1(self, lattice_file, capsys):
        assert main(["stats", "--lattice", lattice_file]) == 0
        assert capsys.readouterr().out.startswith("12 concepts, height 4")

    def test_stats_empty_lattice(self, tmp_path, capsys):
        from fcaregistry import FormalContext, build_lattice, lattice_to_json

        f = tmp_path / "empty.lat"
        f.write_text(lattice_to_json(build_lattice(FormalContext([], [], []))), encoding="utf-8")
        assert main(["stats", "--lattice", str(f)]) == 0
        assert capsys.readouterr().out.startswith("1 concept, height 0")

    def test_unreadable_file(self, tmp_path):
        assert main(["stats", "--lattice", str(tmp_path / "missing")]) == 1


class TestCountNouns:
    @pytest.mark.parametrize(
        "csv, counts, height",
        [
            (",a,b\n", "0 objects, 2 attributes, 1 concept", 0),
            (",a,b\nS1,1,0\n", "1 object, 2 attributes, 2 concepts", 1),
            (",a\nS1,1\n", "1 object, 1 attribute, 1 concept", 0),
            (",a,b\nS1,1,0\nS2,0,1\n", "2 objects, 2 attributes, 4 concepts", 2),
        ],
    )
    def test_a_count_of_one_takes_the_singular(self, tmp_path, capsys, csv, counts, height):
        ctx, lat = tmp_path / "c.csv", str(tmp_path / "c.lat")
        ctx.write_text(csv, encoding="utf-8")
        assert main(["build", "--context", str(ctx), "--out", lat]) == 0
        assert capsys.readouterr().out == counts + "\n"
        assert main(["classify", "--context", str(ctx), "--category", "Subject", "--out", lat]) == 0
        assert capsys.readouterr().out == counts + "\n"
        assert main(["stats", "--lattice", lat]) == 0
        objects, attributes, concepts = counts.split(", ")
        assert capsys.readouterr().out.startswith(f"{concepts}, height {height}, {objects}, {attributes}, density ")


class TestNonUtf8Input:
    """A lone 0xff byte in any input file, or a missing record file, is one error line naming it."""

    @pytest.mark.parametrize("reader", ["context", "lattice", "ontology", "record-file", "record-directory", "no-file"])
    def test_exit_1_with_the_package_error(self, reader, lattice_file, tmp_path):
        out = str(tmp_path / "out.lat")
        if reader == "no-file":
            bad = tmp_path / "missing.json"
        elif reader == "record-directory":
            shutil.copytree(CORPUS, tmp_path / "corpus")
            bad = tmp_path / "corpus" / "S1.json"
        else:
            source = {"context": TABLE1, "lattice": lattice_file, "ontology": ONT,
                      "record-file": f"{CORPUS}/S1.json"}[reader]
            bad = tmp_path / f"bad-{os.path.basename(source)}"
            shutil.copy(source, bad)
        if bad.exists():
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = {
            "context": ["build", "--context", str(bad), "--out", out],
            "lattice": ["stats", "--lattice", str(bad)],
            "ontology": ["query", "--lattice", lattice_file, "--terms", "Ch", "--refine", "generalize",
                         "--ontology", str(bad)],
            "record-file": ["build", "--records", str(bad), "--out", out],
            "record-directory": ["build", "--records", str(tmp_path / "corpus"), "--out", out],
            "no-file": ["build", "--records", str(bad), "--out", out],
        }[reader]
        proc = run_python("-m", "fcaregistry.cli", *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot read ") and proc.stderr.count("\n") == 1
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDeepOrLongInput:
    """JSON nested deeper than the decoder's recursion limit, or a CSV field
    longer than the reader's field limit, is a data error of one line."""

    @pytest.mark.parametrize("reader", ["context", "lattice", "ontology", "records"])
    def test_exit_1_with_one_error_line(self, reader, lattice_file, tmp_path):
        bad = tmp_path / "bad"
        if reader == "context":
            bad.write_text(",m\nS" + "x" * 140_000 + ",1\n", encoding="utf-8")
        else:
            bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        out = str(tmp_path / "out.lat")
        argv = {
            "context": ["build", "--context", str(bad), "--out", out],
            "lattice": ["stats", "--lattice", str(bad)],
            "ontology": ["query", "--lattice", lattice_file, "--terms", "Ch", "--refine", "generalize",
                         "--ontology", str(bad)],
            "records": ["build", "--records", str(bad), "--out", out],
        }[reader]
        proc = run_python("-m", "fcaregistry.cli", *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


class TestUnreadableInputFile:
    """An input file that cannot be opened is one error line naming it, the same for every kind of file."""

    # a directory of records is a corpus, and only ``--lattice`` takes an empty
    # path to the reader (the other flags treat it as not given)
    @pytest.mark.parametrize(
        "what, kind",
        [(what, kind) for what in ("lattice", "ontology", "context") for kind in ("missing", "directory")]
        + [("record", "missing"), ("lattice", "empty")]
        + [(what, "nul") for what in ("lattice", "ontology", "context", "record")],
    )
    def test_exit_1_with_one_line_naming_the_file(self, lattice_file, tmp_path, capsys, what, kind):
        bad = {"missing": str(tmp_path / "missing"), "directory": str(tmp_path), "empty": "", "nul": "x\0y"}[kind]
        reason = {
            "directory": f"[Errno 21] Is a directory: {bad!r}",
            "nul": "embedded null byte",  # open refuses the path before any system call
        }.get(kind, f"[Errno 2] No such file or directory: {bad!r}")
        out = str(tmp_path / "out.lat")
        argv = {
            "lattice": ["stats", "--lattice", bad],
            "ontology": ["query", "--lattice", lattice_file, "--terms", "Ch", "--refine", "generalize",
                         "--ontology", bad],
            "context": ["build", "--context", bad, "--out", out],
            "record": ["build", "--records", bad, "--out", out],
        }[what]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: cannot read {what} file {bad!r}: {reason}\n")


class TestMainFuzz:
    """Seeded random command lines: every call ends in exit 0, 1 or 2 with no
    other exception, writes only its fresh ``--out``, and leaves its inputs as
    they were."""

    TERMS = (
        "NS", "PS", "AO", "An", "Ve", "Hu", "Mo", "MR", "Ch", "Eu", "Human", "Any Organism",
        "NCBI:Hu", "NCBI:Ch", "free:NS", ":NS", "NS:", "a:b", "a:b:c", "x@y", "Hu@Organism",
        " Hu ", "a b", "Mäuse", "é", "人", "\udcff", "",
    )

    def test_every_call_exits_0_1_or_2(self, tmp_path, capsys):
        rng = random.Random(331)
        lats = [str(tmp_path / "t1.lat"), str(tmp_path / "c8.lat")]
        assert main(["build", "--context", TABLE1, "--out", lats[0]]) == 0
        assert main(["build", "--records", CORPUS, "--out", lats[1]]) == 0
        (tmp_path / "dir").mkdir()
        (tmp_path / "out").mkdir()
        good = {"lattice": lats, "context": [TABLE1], "records": [CORPUS, f"{CORPUS}/S1.json"], "ontology": [ONT]}
        bad = [str(tmp_path / "missing"), str(tmp_path / "dir"), "", "x\0y"]
        for paths in good.values():
            for source in [p for p in paths if os.path.isfile(p)]:
                data = Path(source).read_bytes()
                name = os.path.basename(source)
                for edit, copy in (("crlf", data.replace(b"\n", b"\r\n")), ("cr", data.replace(b"\n", b"\r")),
                                   ("0xff", data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])):
                    (tmp_path / f"{edit}-{name}").write_bytes(copy)
                    # a line-end copy reads as its source does
                    (bad if edit == "0xff" else paths).append(str(tmp_path / f"{edit}-{name}"))
        inputs = [p for paths in good.values() for p in paths] + bad
        before = {p: Path(p).read_bytes() for p in inputs if os.path.isfile(p)}

        def path(kind):
            return rng.choice(good[kind]) if rng.random() < 0.75 else rng.choice(inputs)

        def terms():
            names = rng.sample(self.TERMS, rng.randint(1, 3))
            return rng.choice((",", ", ", ",,")).join(names) + rng.choice(("", "", ","))

        def one_of(*options):
            """Flags for one option, drawn one time in ten as both or neither."""
            r = rng.random()
            picked = list(options) if r < 0.05 else [] if r < 0.1 else [rng.choice(options)]
            return [arg for opt in picked for arg in opt]

        by_code, succeeded = collections.Counter(), set()
        for i in range(400):
            out = tmp_path / ("out" if rng.random() < 0.95 else rng.choice(("no-dir", "nul\0dir"))) / f"{i}.lat"
            command = rng.choice(("build", "query", "query", "classify", "export-dot", "stats"))
            argv = [command]
            if command in ("build", "classify"):
                source = ("--records", path("records")) if command == "build" else ("--lattice", path("lattice"))
                argv += one_of(source, ("--context", path("context")))
                if command == "classify":
                    category = rng.choice(CATEGORIES + ("Organsim",))
                    argv += one_of(("--category", category), ("--attribute", rng.choice(self.TERMS)))
                if rng.random() < 0.97:
                    argv += ["--out", str(out)]
            else:
                if rng.random() < 0.97:
                    argv += ["--lattice", path("lattice")]
            if command == "query":
                if rng.random() < 0.97:
                    argv += ["--terms", terms()]
                refine = rng.random() < 0.5
                if refine:
                    argv += ["--refine", rng.choice(("generalize", "specialize", "both", "auto", "up"))]
                if rng.random() < (0.9 if refine else 0.1):
                    argv += ["--ontology", path("ontology")]
                if rng.random() < 0.3:
                    argv += ["--hops", rng.choice(("0", "1", "2", "-1", "x"))]
                if rng.random() < 0.5:
                    argv += ["--format", rng.choice(("table", "machine", "json"))]
            if command == "export-dot" and rng.random() < 0.5:
                argv.append("--reduced")
            if rng.random() < 0.02:
                argv.append("--verbose")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                raise AssertionError(f"main({argv!r}) raised") from exc
            stdout, stderr = capsys.readouterr()
            assert code in (0, 1, 2), argv
            if code == 0:
                assert stderr == "", argv
            elif code == 1:
                assert stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
            else:
                assert stdout == "" and stderr.startswith(("usage error: ", "usage: ")), (argv, stderr)
            assert not os.path.exists(out) or (code == 0 and command in ("build", "classify")), argv
            by_code[code] += 1
            if code == 0:
                succeeded.add("query --refine" if "--refine" in argv else command)
        assert min(by_code[code] for code in (0, 1, 2)) >= 30, by_code
        # each command, and a refined query, succeeds at least once
        assert succeeded == {"build", "query", "query --refine", "classify", "export-dot", "stats"}
        assert {p: Path(p).read_bytes() for p in before} == before
