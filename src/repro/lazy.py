"""Lazy package exports (PEP 562).

A package lists each name it exports under the submodule that defines
it; the submodule is imported the first time the name is read, so loading
the package costs only what its importer goes on to use.
"""

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``, whose names are
    ``exports[submodule]``."""
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, shows in -X importtime
        value = getattr(__import__(home[name], fromlist=[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(home), __getattr__
