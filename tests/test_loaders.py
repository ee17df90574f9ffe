"""Any bytes given to a file loader either load or raise a LateFuseError."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.dataio import (
    load_dataset,
    load_groups,
    read_feature_file,
    read_labels,
    read_predictions,
)
from latefuse.errors import LateFuseError
from latefuse.pipeline import load_ensemble

from conftest import DETERMINISTIC


def load_one_group(path):
    return load_groups([("g", path)])


def load_one_group_dataset(path):
    return load_dataset(path, [("g", path)])


LOADERS = (
    load_ensemble,
    read_feature_file,
    read_labels,
    read_predictions,
    load_one_group,
    load_one_group_dataset,
)

# a header that gets past each loader's first check, then raw bytes or text
# built from the characters the formats use
HEADERS = st.sampled_from(
    [b"", b"sample_id,f0,f1\n", b"sample_id,label\n", b"sample_id,predicted\n",
     b'{"format_version": 1, "payload": ']
)
BODIES = st.one_of(
    st.binary(max_size=120),
    st.text(alphabet='sample_id,lbe\n\r" -.0123456789naif{}[]:', max_size=120).map(str.encode),
)


@settings(DETERMINISTIC, max_examples=60)
@given(header=HEADERS, body=BODIES)
def test_any_bytes_load_or_raise_latefuse_error(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(header + body)
        for load in LOADERS:
            try:
                load(path)
            except LateFuseError:
                pass
