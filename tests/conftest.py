import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fcaregistry import (
    Attribute,
    FormalContext,
    build_lattice,
    context_from_csv,
    load_ontology,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def run_python(*args, hashseed=None, timeout=60, cwd=None):
    """Run ``python *args`` on the sources of this checkout in a child process of at most ``timeout`` s."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run([sys.executable, *args], capture_output=True, encoding="utf-8", env=env, timeout=timeout, cwd=cwd)


@pytest.fixture(scope="session")
def table1():
    return context_from_csv((FIXTURES / "table1.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def table1_lattice(table1):
    return build_lattice(table1)


@pytest.fixture(scope="session")
def organisms():
    return load_ontology((FIXTURES / "organisms.ont").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def attrs_by_term(table1):
    return {a.term: a for a in table1.attributes}


def make_random_context(rng: random.Random, max_objects=10, max_attributes=8, density=None):
    n_obj = rng.randint(0, max_objects)
    n_attr = rng.randint(0, max_attributes)
    if density is None:
        density = rng.choice((0.2, 0.4, 0.6))
    objects = [f"g{i}" for i in range(n_obj)]
    attrs = [Attribute(term=f"m{j}") for j in range(n_attr)]
    rows = [[1 if rng.random() < density else 0 for _ in range(n_attr)] for _ in range(n_obj)]
    return FormalContext(objects, attrs, rows)


def edge_case_context(rng):
    """A random context that often has an all-zero or an all-one column."""
    n_obj = rng.randint(0, 9)
    n_attr = rng.randint(1, 7)
    density = rng.choice((0.2, 0.4, 0.6))
    rows = [[int(rng.random() < density) for _ in range(n_attr)] for _ in range(n_obj)]
    for fill in (0, 1):
        if rng.random() < 0.3:
            j = rng.randrange(n_attr)
            for row in rows:
                row[j] = fill
    attrs = [Attribute(term=f"m{j}") for j in range(n_attr)]
    return FormalContext([f"g{i}" for i in range(n_obj)], attrs, rows)


#: Characters ``mutate_text`` inserts: the syntax of the JSON and CSV formats,
#: line breaks, a NUL, a space and a non-ASCII letter.
FUZZ_CHARS = '[]{}",:\\@01 \t\r\n\x00é'

#: Values ``edit_document`` writes in place of another.
JUNK = (None, True, 1.5, -1, 10**20, "x", "", [], {}, [[]], {"a": 1})

#: The edits ``mutate_text`` makes, by name.
TEXT_EDITS = ("insert", "delete", "repeat", "truncate", "nest", "long-field")


def mutate_text(rng: random.Random, text: str, kinds=TEXT_EDITS) -> tuple[str, str]:
    """One random edit of a document's text, drawn from ``kinds``, and its
    name: a character put in, a span deleted or repeated, the text cut
    short, the text nested 100,000 brackets deep, or a 140,000-character
    run put in (longer than the CSV reader's default field limit)."""
    kind = rng.choice(kinds)
    i = rng.randint(0, len(text))
    j = min(len(text), i + rng.randint(1, 8))
    if kind == "insert":
        text = text[:i] + rng.choice(FUZZ_CHARS) + text[i:]
    elif kind == "delete":
        text = text[:i] + text[j:]
    elif kind == "repeat":
        text = text[:j] + text[i:j] + text[j:]
    elif kind == "truncate":
        text = text[:i]
    elif kind == "nest":
        text = "[" * 100_000 + text + "]" * 100_000
    else:
        text = text[:i] + "x" * 140_000 + text[i:]
    return kind, text


def edit_document(rng: random.Random, doc) -> str:
    """Write junk in place of a value at a random place of a parsed JSON
    document, or delete the value there; return the edit's name."""
    holder = doc
    while True:
        places = list(holder) if isinstance(holder, dict) else range(len(holder))
        if not places:
            return "none"
        key = rng.choice(places)
        if not (isinstance(holder[key], (dict, list)) and holder[key] and rng.random() < 0.7):
            break
        holder = holder[key]
    if rng.random() < 0.5:
        del holder[key]
        return "delete"
    holder[key] = copy.deepcopy(rng.choice(JUNK))
    return "junk"
