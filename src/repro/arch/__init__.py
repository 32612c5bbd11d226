"""Machine descriptions: configurations and the 2-D mesh topology."""

from .mesh import DIRECTIONS, Mesh, opposite

# Imported after the .mesh submodule so the `mesh` *function* wins the
# package attribute (the submodule stays importable via its full path).
from .config import (
    CacheConfig,
    MachineConfig,
    MachineSpec,
    NetworkConfig,
    apply_overrides,
    list_presets,
    mesh,
    preset,
    resolve_machine,
)

__all__ = [
    "CacheConfig",
    "MachineConfig",
    "MachineSpec",
    "NetworkConfig",
    "apply_overrides",
    "list_presets",
    "mesh",
    "preset",
    "resolve_machine",
    "DIRECTIONS",
    "Mesh",
    "opposite",
]
