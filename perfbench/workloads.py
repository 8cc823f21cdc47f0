"""The four workloads: what one set-up does and what one pass of operations does.

A workload object is made from the generated inputs.  ``setup()`` does the
one-off work before the first operation can be served and returns its
state; ``steps(state)`` yields one pass of operations as (kind, call,
check) triples.  ``call()`` is what is timed; ``check(output)`` runs after
the clock stops and returns a list of problems.  The library is always
reached through its module attributes (``lattice.build_lattice``), the same
places a traced run patches.

Why these four: ``search`` is dominated by the lattice-wide query path and
uses no ontology; ``refine`` by ontology rewriting and the distance
tie-break over a small lattice; ``ingest`` by lattice construction and
incremental insertion; ``cli`` by process start, import, argument handling
and reloading the lattice on every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import checks
from fcaregistry import cli, lattice, ontology, registry, retrieval
from fcaregistry.context import Attribute

# Unpatched entry points for the benchmark's own bookkeeping, so that
# preparing inputs and checking outputs never shows up in a trace.
ORIGINAL = {
    "lattice_from_json": lattice.lattice_from_json,
    "load_records": registry.load_records,
    "build_context": registry.build_context,
}

CHILD_TIMEOUT_S = 60


def parse_term(text: str) -> Attribute:
    prefix, sep, term = text.partition(":")
    return Attribute(term=term, prefix=prefix) if sep else Attribute(term=text)


def query_of(terms: list[str]) -> retrieval.Query:
    return retrieval.Query(terms=frozenset(parse_term(t) for t in terms))


class Workload:
    #: Operation kind whose latency is the workload's gated op_* metrics.
    primary = ""

    def __init__(self, env) -> None:
        self.dir: Path = env.dir
        self.manifest: dict = env.manifest
        self.golden: checks.Golden = env.golden
        self.rng = random.Random(env.seed)

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Search(Workload):
    primary = "query"

    def __init__(self, env) -> None:
        super().__init__(env)
        self.queries = [query_of(q) for q in self.manifest["queries"]]

    def setup(self):
        text = (self.dir / "corpus.lat").read_text(encoding="utf-8")
        return lattice.lattice_from_json(text)

    def check_setup(self, lat) -> list[str]:
        self.view = checks.ContextView(lat.context)
        return checks.check_closed(lat, self.rng) + self.golden.check(
            "lattice", checks.canonical_listing(lat)
        )

    def steps(self, lat):
        for i, q in enumerate(self.queries):

            def call(q=q):
                return retrieval.result_set_to_json(retrieval.search(lat, q))

            def check(text, i=i):
                return checks.check_result_json(text, self.view) + self.golden.check(f"query/{i}", text)

            yield "query", call, check


class Refine(Search):
    primary = "refined"

    def __init__(self, env) -> None:
        Workload.__init__(self, env)
        self.queries = [
            (query_of(q["terms"]), q["mode"], q["hops"]) for q in self.manifest["refined"]
        ]

    def setup(self):
        lat = super().setup()
        ont = ontology.load_ontology((self.dir / "ontology.json").read_text(encoding="utf-8"))
        return lat, ont

    def check_setup(self, state) -> list[str]:
        lat, ont = state
        problems = super().check_setup(lat)
        if len(ont.terms) != self.manifest["ontology_terms"]:
            problems.append(f"ontology has {len(ont.terms)} terms")
        return problems

    def steps(self, state):
        lat, ont = state
        for i, (q, mode, hops) in enumerate(self.queries):

            def call(q=q, mode=mode, hops=hops):
                return retrieval.result_set_to_json(retrieval.search_refined(lat, q, ont, mode, hops))

            def check(text, i=i, mode=mode):
                problems = checks.check_result_json(text, self.view)
                if json.loads(text)["refinement"]["mode"] != mode:
                    problems.append("refinement report names another mode")
                return problems + self.golden.check(f"refined/{i}", text)

            yield "refined", call, check


class Ingest(Workload):
    primary = "insert"

    def __init__(self, env) -> None:
        super().__init__(env)
        new = ORIGINAL["load_records"](self.dir / "new_sources.json")
        # attributes exactly as build_context would binarize each new source
        self.new_sources = [(r.id, ORIGINAL["build_context"]([r]).attributes) for r in new]
        self.out = self.dir / "ingest.lat"

    def setup(self):
        records = registry.load_records(self.dir / "corpus")
        return registry.build_context(records)

    def check_setup(self, ctx) -> list[str]:
        if len(ctx.objects) != self.manifest["records"]:
            return [f"context has {len(ctx.objects)} objects, corpus {self.manifest['records']}"]
        return []

    def steps(self, ctx):
        current = {}

        def build():
            lat = lattice.build_lattice(ctx)
            text = lattice.lattice_to_json(lat)
            self.out.write_text(text, encoding="utf-8")
            current["lat"] = lat
            return lat, text

        def check_build(out):
            lat, text = out
            problems = checks.check_closed(lat, self.rng)
            if self.out.stat().st_size != len(text.encode("utf-8")):
                problems.append("saved lattice file is incomplete")
            if len(json.loads(text)["concepts"]) != len(lat.concepts):
                problems.append("saved lattice lists another concept count")
            return problems + self.golden.check("build", checks.canonical_listing(lat))

        yield "build", build, check_build
        for i, (obj, attrs) in enumerate(self.new_sources):

            def insert(obj=obj, attrs=attrs):
                before = current["lat"]
                current["lat"] = lattice.insert_object(before, obj, attrs)
                return before, current["lat"]

            def check_insert(out, i=i, obj=obj):
                before, after = out
                return checks.check_inserted(before, after, obj, self.rng) + self.golden.check(
                    f"insert/{i}", checks.canonical_listing(after)
                )

            yield "insert", insert, check_insert


class Cli(Workload):
    """One operator session: build, stats, then plain and refined queries.

    Untraced, every command is its own ``python -m fcaregistry.cli``
    process; traced, ``cli.main(argv)`` runs in this process.
    """

    primary = "cli.query"

    def __init__(self, env) -> None:
        super().__init__(env)
        self.in_process = env.in_process
        self.child_env = env.child_env
        self.child_rss_kib = 0
        self.lat_path = str(self.dir / "cli.lat")
        ont = str(self.dir / "ontology.json")
        self.commands = [
            ("build", ["build", "--records", str(self.dir / "corpus.json"), "--out", self.lat_path]),
            ("stats", ["stats", "--lattice", self.lat_path]),
        ]
        for terms in self.manifest["queries"]:
            self.commands.append(
                ("query", ["query", "--lattice", self.lat_path, "--terms", ",".join(terms), "--format", "machine"])
            )
        for q in self.manifest["refined"]:
            argv = ["query", "--lattice", self.lat_path, "--terms", ",".join(q["terms"]),
                    "--refine", q["mode"], "--ontology", ont, "--format", "machine"]
            if q["hops"] is not None:
                argv += ["--hops", str(q["hops"])]
            self.commands.append(("refine", argv))

    def spawn(self, argv: list[str]) -> tuple[int, str, str]:
        """Run one child to completion; keep the peak RSS the kernel reports for it."""
        out_path, err_path = self.dir / "child.out", self.dir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.child_env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return (
            proc.returncode,
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"),
        )

    def peak_rss_kib(self) -> int:
        return self.child_rss_kib

    def setup(self):
        if self.in_process:
            return None
        code, _, err = self.spawn(["-c", "import fcaregistry.cli"])
        if code != 0:
            raise RuntimeError(f"import fcaregistry.cli failed: {err.strip()}")
        return None

    def check_setup(self, state) -> list[str]:
        return []

    def run_command(self, argv: list[str]) -> tuple[int, str, str]:
        if not self.in_process:
            return self.spawn(["-m", "fcaregistry.cli", *argv])
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), ""

    def steps(self, state):
        built = {}
        for i, (kind, argv) in enumerate(self.commands):

            def call(argv=argv):
                return self.run_command(argv)

            def check(out, i=i, kind=kind):
                code, text, err = out
                if code != 0:
                    return [f"{kind} exited {code}: {err.strip()[:200]}"]
                problems = self.golden.check(f"cli/{i}", text)
                if kind == "build":
                    lat = ORIGINAL["lattice_from_json"](Path(self.lat_path).read_text(encoding="utf-8"))
                    built["count"] = len(lat.concepts)
                    built["view"] = checks.ContextView(lat.context)
                    if checks.concept_count(text) != built["count"]:
                        problems.append("build reports another concept count than it saved")
                    problems += checks.check_closed(lat, self.rng)
                elif "view" not in built:
                    problems.append("no lattice was built before this command")
                elif kind == "stats":
                    if checks.concept_count(text) != built["count"]:
                        problems.append(f"stats reports {checks.concept_count(text)} concepts, built {built['count']}")
                else:
                    problems += checks.check_result_json(text, built["view"])
                return problems

            yield f"cli.{kind}", call, check


WORKLOADS = {"search": Search, "refine": Refine, "ingest": Ingest, "cli": Cli}


def probe_cli_start(env, reps: int) -> dict:
    """Interpreter start, and the import of fcaregistry.cli timed inside a child."""
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import fcaregistry.cli; print(time.perf_counter() - t)"
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
        bare.append((time.perf_counter() - t0) * 1e3)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        imports.append(float(done.stdout) * 1e3)
    return {"interpreter_ms": bare, "import_ms": imports}
