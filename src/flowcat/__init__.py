"""flowcat: iterated flow-line towers and their composition laws.

From finite flow data (critical points with indices, and the components
of the spaces of flow lines between them) the package derives, level by
level, the compactified spaces of flow lines between critical points of
the previous level, assembles all their critical points into a leveled
family of cells with boundary and gluing maps, and machine-verifies the
category laws those maps satisfy up to a canonical normal form.
The command line, ``flowcat.cli``, is imported on first use.
"""

import importlib

from .core import (
    Broken,
    Cell,
    CritPoint,
    ModuliAddress,
    Point,
    address_key,
    cell_key,
    flatten_point,
    is_stationary,
    point_key,
    point_value,
)
from .stratification import (
    CIRCLE,
    Component,
    Endpoint,
    FlowSystem,
    INTERVAL,
    POINT,
    PieceRef,
    Shape,
    Violation,
    flow_system,
    sphere_like,
    validate_flow_system,
)
from .tower import (
    BuildError,
    ComponentDecl,
    DeclaredPoint,
    Declarations,
    InvalidFlowSystemError,
    MissingDeclarationError,
    MorseEntry,
    SpaceData,
    Tower,
    build_tower,
    derive_moduli,
)
from .category import (
    GlobularSet,
    cells,
    extended_cells,
    identity,
    normalize,
    normalize_point,
    source,
    target,
)
from .axioms import (
    AXIOM_TAGS,
    AxiomReport,
    Failure,
    TagReport,
    check_all,
    check_axiom,
    check_globular,
)
from .generators import deformed_sphere_system, random_system, sphere_system
from .towerfile import (
    ParseError,
    parse_shape,
    parse_tower_file,
    render_tower_file,
    shape_label,
)

__version__ = "0.1.0"

__all__ = [
    # core
    "Broken", "Cell", "CritPoint", "ModuliAddress", "Point",
    "address_key", "cell_key", "flatten_point",
    "is_stationary", "point_key", "point_value",
    # stratification
    "CIRCLE", "Component", "Endpoint", "FlowSystem", "INTERVAL", "POINT",
    "PieceRef", "Shape", "Violation", "flow_system",
    "sphere_like", "validate_flow_system",
    # tower
    "BuildError", "ComponentDecl", "DeclaredPoint", "Declarations",
    "InvalidFlowSystemError", "MissingDeclarationError", "MorseEntry",
    "SpaceData", "Tower", "build_tower", "derive_moduli",
    # category
    "GlobularSet", "cells", "extended_cells", "identity", "normalize",
    "normalize_point", "source", "target",
    # axioms
    "AXIOM_TAGS", "AxiomReport", "Failure", "TagReport", "check_all",
    "check_axiom", "check_globular",
    # generators
    "deformed_sphere_system", "random_system", "sphere_system",
    # tower files
    "ParseError", "parse_shape", "parse_tower_file", "render_tower_file",
    "shape_label",
    "__version__",
]


def __getattr__(name: str):
    # ``from . import cli`` here would call this function again for "cli".
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
