"""Checks of the command that need a child process: answers that do not
depend on the hash seed, and tampered lattice files refused with one error line."""

import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from fcaregistry import build_context, build_lattice, lattice_to_json, load_records, parse_records
from conftest import FIXTURES, run_python
from test_lattice import contranominal_doc, lattice_doc

ONT = str(FIXTURES / "organisms.ont")
#: ``query`` flags by name; "cyclic" names an ontology with two cycles.
QUERIES = {
    "plain": ["--terms", "NS,Hu,Zebrafish,MR", "--format", "machine"],
    "generalize": ["--terms", "Ch,Zebrafish", "--refine", "generalize", "--ontology", ONT, "--format", "machine"],
    "specialize": ["--terms", "AO", "--refine", "specialize", "--ontology", ONT, "--format", "machine"],
    "both": ["--terms", "Ve,Zebrafish", "--refine", "both", "--ontology", ONT, "--format", "machine"],
    "cyclic": ["--terms", "Ch", "--refine", "generalize", "--ontology", "cyclic.json"],
}
CYCLIC = {"prefix": "NCBI", "root": "Any Organism", "edges": [
    ["Any Organism", "m"], ["m", "n"], ["n", "m"], ["Any Organism", "a"], ["a", "b"], ["b", "c"], ["c", "a"]]}
TAMPERED = ("bool-bit", "dropped-concept", "swapped-concepts", "duplicated-concept", "dropped-top",
            "empty-concepts", "huge-lattice", "invented-concepts")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The corpus lattice, ``CYCLIC`` and the ``TAMPERED`` files: the corpus lattice with an intent
    bit written as ``True`` or a concept dropped, swapped or repeated, then the 30 x 30 contranominal
    context (2**30 concepts) storing no concept, the top, or the top and 20,000 invented ones."""
    lat = build_lattice(build_context(load_records(FIXTURES / "bioregistry8")))
    docs = [lattice_doc(lat) for _ in range(5)]
    intent = next(c["intent"] for c in docs[0]["concepts"] if 1 in c["intent"])
    intent[intent.index(1)] = True
    del docs[1]["concepts"][1]
    docs[2]["concepts"].insert(3, docs[2]["concepts"].pop(2))
    docs[3]["concepts"].insert(4, docs[3]["concepts"][4])
    del docs[4]["concepts"][0]
    objects = [f"g{i:02d}" for i in range(30)]
    top = {"extent": objects, "intent": []}
    small = itertools.islice((list(s) for k in (2, 3, 4) for s in itertools.combinations(objects, k)), 20000)
    invented = [top] + [{"extent": s, "intent": []} for s in small]
    texts = [json.dumps(doc) for doc in docs] + [contranominal_doc(30, c) for c in ([], [top], invented)]
    out = tmp_path_factory.mktemp("files")
    for name, text in [("corpus.lat", lattice_to_json(lat)), ("cyclic.json", json.dumps(CYCLIC)), *zip(TAMPERED, texts)]:
        (out / name).write_text(text, encoding="utf-8")
    return out


def run_cli(jobs, cwd):
    """``(exit code, stdout, stderr)`` for each ``(argv, hash seed)``, two child processes at a time."""
    with ThreadPoolExecutor(2) as pool:
        done = pool.map(lambda job: run_python("-m", "fcaregistry.cli", *job[0], hashseed=job[1], cwd=cwd), jobs)
        return [(p.returncode, p.stdout, p.stderr) for p in done]


@pytest.mark.parametrize("name", QUERIES)
def test_the_same_bytes_under_any_hash_seed(workdir, name):
    argv = ["query", "--lattice", "corpus.lat", *QUERIES[name]]
    (code, out, err), second = run_cli([(argv, "0"), (argv, "1")], workdir)
    assert (code, out, err) == second
    if name == "cyclic":
        assert code == 1 and out == "" and err.count("\n") == 1, err
        assert err.startswith("error: cycle detected through: [") and err.endswith("]\n")
        return
    assert code == 0, err
    assert name != "plain" or '"Zebrafish"' in out
    refinement = json.loads(out).get("refinement")
    if name in ("specialize", "both"):
        assert refinement["added"] and "Chicken" in refinement["dropped_candidates"]
    assert name != "both" or "Zebrafish" in refinement["skipped_terms"]


def test_each_tampered_lattice_file_is_refused_with_one_error_line(workdir):
    runs = run_cli([(["stats", "--lattice", name], None) for name in TAMPERED], workdir)
    for name, (code, out, err) in zip(TAMPERED, runs):
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (name, err)


def test_a_lone_surrogate_is_refused_with_one_error_line(tmp_path):
    """An object id or a term holding a lone surrogate, written as a JSON escape in a record file or
    a lattice file: ``build``, ``stats``, ``query`` (table format) and ``export-dot`` exit 1 with one
    error line, where printing the id or term would otherwise stop on an encoding error."""
    records = {"records": [{"id": "S", "subjects": ["a", "b"]}, {"id": "T", "subjects": ["a"]}]}
    text = lattice_to_json(build_lattice(build_context(parse_records(json.dumps(records)))))
    bad = {"id": ('"S"', '"S\\ud800"'), "term": ('"b"', '"b\\udc80"')}
    jobs = []
    for name, (good, lone) in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(records).replace(good, lone), encoding="utf-8")
        (tmp_path / f"{name}.lat").write_text(text.replace(good, lone), encoding="utf-8")
        jobs += [
            (["build", "--records", f"{name}.json", "--out", f"{name}.built.lat"], None),
            (["stats", "--lattice", f"{name}.lat"], None),
            (["query", "--lattice", f"{name}.lat", "--terms", "a"], None),
            (["export-dot", "--lattice", f"{name}.lat"], None),
        ]
    for (argv, _), (code, out, err) in zip(jobs, run_cli(jobs, tmp_path)):
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "holds a lone surrogate" in err, (argv, err)
    assert not list(tmp_path.glob("*.built.lat"))
