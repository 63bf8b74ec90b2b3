"""Depth-adapted convolution and pooling.

A non-learned offset generator deforms convolution/pooling sampling
grids according to per-pixel depth and pinhole intrinsics, so the
receptive field follows the dominant local 3D plane instead of the image
grid.  The adapted operators add zero learnable parameters and reduce
exactly to their standard counterparts on constant-depth (fronto-
parallel) input.
"""

from .errors import (
    BehindCameraError,
    ConfigError,
    DegenerateBasisError,
    DegenerateNeighborhoodError,
    FormatError,
    InvalidDepthError,
    ParseError,
    TrainingError,
    ZacnError,
)
from .geometry import (
    CameraIntrinsics,
    KernelSpec,
    OffsetSummary,
    back_project,
    basis_from_normal,
    compute_offsets,
    fit_plane,
    project,
)
from .io import (
    read_depth,
    read_intrinsics,
    read_offsets,
    read_tensor,
    write_depth,
    write_offsets,
    write_tensor,
)
from .ops import (
    ConvWeights,
    OpSummary,
    bilinear_sample,
    conv_param_count,
    gather_samples,
    standard_avg_pool,
    standard_conv,
    za_avg_pool,
    za_conv_backward,
    za_conv_forward,
)
from .tensor import DepthMap, FeatureTensor, OffsetField

__version__ = "0.1.0"

__all__ = [
    "ZacnError",
    "ConfigError",
    "InvalidDepthError",
    "BehindCameraError",
    "DegenerateNeighborhoodError",
    "DegenerateBasisError",
    "ParseError",
    "FormatError",
    "TrainingError",
    "CameraIntrinsics",
    "KernelSpec",
    "OffsetSummary",
    "back_project",
    "project",
    "fit_plane",
    "basis_from_normal",
    "compute_offsets",
    "DepthMap",
    "FeatureTensor",
    "OffsetField",
    "bilinear_sample",
    "ConvWeights",
    "OpSummary",
    "conv_param_count",
    "standard_conv",
    "za_conv_forward",
    "za_conv_backward",
    "gather_samples",
    "standard_avg_pool",
    "za_avg_pool",
    "read_depth",
    "write_depth",
    "read_intrinsics",
    "read_offsets",
    "read_tensor",
    "write_offsets",
    "write_tensor",
    "__version__",
]
