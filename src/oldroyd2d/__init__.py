"""Pseudospectral simulator for 2D Oldroyd-B type viscoelastic flow on the
periodic square, with Littlewood-Paley/Besov diagnostics and hidden-damping
monitors."""

from .fields import ScalarField, SymTensorField, VectorField
from .grid import Grid
from .model import ModelParams, SimState, make_state
from .stepping import StepConfig

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "ModelParams",
    "SimState",
    "make_state",
    "StepConfig",
]

__version__ = "0.1.0"
