import random
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
