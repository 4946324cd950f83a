"""The package's exported API: what `from runblock import *` binds."""

import types

PUBLIC = {
    "BACKGROUND", "FOREGROUND", "AccuracyResult", "BlockSpec", "BoundaryRecord",
    "Characterization", "CompressedDoc", "ConsistencyError", "ExtractionStats",
    "FeatureContext", "FeatureReport", "FormatError", "RunBlockError", "RunRow",
    "ValidationError", "accuracy_compressed", "accuracy_pixel", "baseline_cell_ops",
    "build_position_table", "canonicalize_row", "ceq", "characterize", "decode_image",
    "decode_row", "density", "encode_image", "encode_row", "extract_block",
    "extract_block_detailed", "foreground_pixels", "foreground_total", "is_canonical",
    "locate_end", "locate_start", "mh_decode_image", "mh_decode_row", "mh_encode_image",
    "mh_encode_row", "oracle_crop", "pixel_features", "read_pbm", "read_rle", "seq",
    "transition_columns", "transitions_in_row", "trim_row", "write_pbm", "write_rle",
}


def test_star_import_binds_the_public_names_only():
    namespace = {}
    exec("from runblock import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 48
    assert set(namespace) == PUBLIC
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
        # the constants and the `RunRow` alias are not defined by a class
        # or function statement, so they name no module of their own
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__.startswith("runblock."), name
