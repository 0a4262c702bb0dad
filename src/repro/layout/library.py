"""Leaf-cell library.

BISRAMGEN "builds a library of leaf cells that are subsequently used for
generating modules or macrocells in a bottom-up (hierarchical) fashion".
The library memoises generated cells by (generator, parameters) so each
distinct leaf layout exists once no matter how many million times it is
instantiated, and supports registration of *user-provided building
blocks* — the paper's escape hatch when the tool's own guarantees do not
satisfy the user.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple

from repro.layout.cell import Cell
from repro.tech.process import Process


class CellLibrary:
    """Memoising registry of leaf cells for one process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self._cache: Dict[Tuple[str, Hashable], Cell] = {}
        self._user_cells: Dict[str, Cell] = {}

    def get(
        self,
        kind: str,
        generator: Callable[..., Cell],
        params: Hashable = (),
        **kwargs,
    ) -> Cell:
        """Return the cached cell for (kind, params), generating on miss.

        A user-registered cell of the same ``kind`` overrides the
        generator entirely, mirroring the paper's use of "user-specified
        library of leaf cell and custom RAM designs".
        """
        if kind in self._user_cells:
            return self._user_cells[kind]
        key = (kind, params)
        if key not in self._cache:
            self._cache[key] = generator(self.process, *_as_tuple(params), **kwargs)
        return self._cache[key]

    def register_user_cell(self, kind: str, cell: Cell) -> None:
        """Install a hand-crafted replacement for a generated leaf kind."""
        self._user_cells[kind] = cell

    def __len__(self) -> int:
        return len(self._cache) + len(self._user_cells)


def _as_tuple(params: Hashable) -> tuple:
    if isinstance(params, tuple):
        return params
    if params == ():
        return ()
    return (params,)
