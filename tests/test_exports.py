"""Every name a rarepath module lists in ``__all__`` exists, so a name
left behind by a deletion fails here rather than only at ``import *``."""

import importlib
import pkgutil

import rarepath


def test_every_exported_name_exists():
    names = ["rarepath"] + [f"rarepath.{m.name}"
                            for m in pkgutil.iter_modules(rarepath.__path__)]
    checked, missing = 0, []
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert checked and not missing, missing
