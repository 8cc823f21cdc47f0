"""Exception hierarchy shared by all fcaregistry modules."""


class FcaRegistryError(Exception):
    """Base class for all errors raised by this package."""


class ContextError(FcaRegistryError):
    """Invalid formal context, or an unknown object/attribute reference."""


class LatticeError(FcaRegistryError):
    """Invalid lattice operation (unknown concept, oversized oracle input)."""


class QueryError(FcaRegistryError):
    """Invalid query (empty term set, label collision)."""


class OntologyError(FcaRegistryError):
    """Malformed ontology document (cycle, unreachable or duplicate term)."""


class RegistryError(FcaRegistryError):
    """Malformed metadata record corpus, or a file that cannot be read or written.

    The one file reader, ``registry._read_text``, raises it for every file,
    record, CSV context, lattice or ontology, as ``cannot read <what> file
    '<path>': <reason>``, and the lattice writer as ``cannot write ...``.
    """
