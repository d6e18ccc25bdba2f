"""Projection of labeled spans across word-aligned parallel sentences.

Semantic alignments between source and target units (words or
constituents) are computed as minimum-weight bipartite subgraphs under
three constraint families (perfect matching, edge cover, total alignment);
projected annotations are scored exact-match against gold with
approximate-randomization significance testing.
"""

import sys

__version__ = "0.1.0"

MODELS = ("word", "perfect", "edgecover", "total")
FILTERS = ("na", "nc", "arg")

# The weight of a zero-similarity link, for the infinite -log 0.  It must
# exceed every finite weight; the tolerances of ``lap``, ``oracle`` and
# ``matcher.links_cost`` are set for it.  Manifests record it as ``big``.
WEIGHT_CAP = 1e6

# Best pairings observed on development data; used when no filter is given.
DEFAULT_FILTER_FOR_MODEL = {
    "word": frozenset(),
    "perfect": frozenset({"na"}),
    "edgecover": frozenset({"arg"}),
    "total": frozenset({"arg"}),
}


def deferred_imports(namespace: dict, sources: dict[str, tuple[str, ...]]):
    """Names a module takes from other modules of this package at first use.

    ``sources`` maps a module of the package to the names that
    ``namespace``, the taking module's globals, takes from it.  Returns
    ``bind(*modules)``, which imports each module once and binds each of
    its names not already set, so that a wrapper put on the taking module
    from outside stays the one its code calls; and a module
    ``__getattr__`` (PEP 562) that binds a name's module when the name is
    first read as an attribute.
    """
    bound = set()

    def load(module: str) -> None:
        # The import statement's path, which -X importtime logs;
        # importlib.import_module bypasses it.
        path = f"{__name__}.{module}"
        __import__(path)
        for name in sources[module]:
            namespace.setdefault(name, getattr(sys.modules[path], name))
        bound.add(module)

    def bind(*modules: str) -> None:
        for module in modules:
            if module not in bound:
                load(module)

    def module_getattr(name: str):
        for module, names in sources.items():
            if name in names:
                load(module)  # also after a bound name was deleted
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return bind, module_getattr
