"""Segmentation and characterization of rectangular blocks in run-length
compressed binary document images, without decompression."""

from types import ModuleType as _ModuleType

from .core import (
    BACKGROUND,
    FOREGROUND,
    CompressedDoc,
    RunRow,
    canonicalize_row,
    decode_image,
    decode_row,
    encode_image,
    encode_row,
    is_canonical,
)
from .errors import ConsistencyError, FormatError, RunBlockError, ValidationError
from .extract import (
    BlockSpec,
    BoundaryRecord,
    ExtractionStats,
    build_position_table,
    extract_block,
    extract_block_detailed,
    locate_end,
    locate_start,
    trim_row,
)
from .features import (
    Characterization,
    FeatureContext,
    FeatureReport,
    ceq,
    characterize,
    density,
    foreground_pixels,
    foreground_total,
    seq,
    transition_columns,
    transitions_in_row,
)
from .formats import read_pbm, read_rle, write_pbm, write_rle
from .mh import mh_decode_image, mh_decode_row, mh_encode_image, mh_encode_row
from .oracle import (
    AccuracyResult,
    accuracy_compressed,
    accuracy_pixel,
    baseline_cell_ops,
    oracle_crop,
    pixel_features,
)

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind are
# left out
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
