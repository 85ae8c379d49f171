"""Exact derivation of annihilating ODEs and P-recurrences for
regular-graph models, with enumeration and built-in oracle checks."""

from .exactnum import Rat, RatFunc, UniPoly, unipoly_gcd_content
from .models import ModelSpec, build_f, build_g, build_generators, parse_model
from .modgb import ModuleElem, Reducer, eta_embed, extract_reducers, is_dominant, module_buchberger
from .oracle import TruncSeries, graph_count_dp, scalar_series, trunc_pairing
from .polyring import MPoly, stairs_and_dim
from .seqtools import ODE, Recurrence, indicial_check, ode_to_rec, rec_counts, unroll
from .telescope import (
    FailDominance,
    FailPositiveDim,
    PipelineFailure,
    ReductionBasis,
    left_kernel_step,
    red,
    reduction_basis,
    run_pipeline,
)
from .weyl import WeylOp, adjoint, apply_op, parse_op, to_dleft, twist, weyl_mul

__version__ = "0.1.0"

__all__ = [
    "Rat",
    "RatFunc",
    "UniPoly",
    "unipoly_gcd_content",
    "ModelSpec",
    "parse_model",
    "build_f",
    "build_g",
    "build_generators",
    "ModuleElem",
    "Reducer",
    "eta_embed",
    "module_buchberger",
    "extract_reducers",
    "is_dominant",
    "TruncSeries",
    "graph_count_dp",
    "scalar_series",
    "trunc_pairing",
    "MPoly",
    "stairs_and_dim",
    "ODE",
    "Recurrence",
    "ode_to_rec",
    "rec_counts",
    "unroll",
    "indicial_check",
    "PipelineFailure",
    "FailPositiveDim",
    "FailDominance",
    "ReductionBasis",
    "reduction_basis",
    "red",
    "left_kernel_step",
    "run_pipeline",
    "WeylOp",
    "adjoint",
    "apply_op",
    "twist",
    "weyl_mul",
    "to_dleft",
    "parse_op",
]
