"""On-disk data formats: per-group feature CSVs, a labels CSV, and the
predictions CSV.

Feature files carry a ``sample_id,f0,f1,...`` header; the labels file is
``sample_id,label`` and the predictions file ``sample_id,predicted,...``.
One table reader parses every format with the same checks: the header, the
header's field count on every row, unique non-blank ids and at least one
data row, each error naming the file and row. ``join_ids`` joins files on
sample_id, so row order never matters, but missing or extra ids are hard
errors rather than a silent inner join. The canonical dataset order is
lexicographic by sample_id.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .core import GroupView, LabelSpace, MultiViewDataset, validate_dataset
from .errors import DataError, MisalignedGroup, NonFiniteFeature
from .pipeline import Prediction

T = TypeVar("T")


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, "r", newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path!r} is not a readable CSV text file: {exc}") from exc


def _read_table(path: str, what: str, header: Sequence[str]) -> tuple[list[str], list[list[str]]]:
    """The stripped sample ids and the other fields of every data row.

    Checks, once for every format: the header starts with ``header``, each
    row has as many fields as the header, ids are non-blank and unique, and
    there is at least one data row. Errors name the file and the row.
    """
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][: len(header)]] != list(header):
        wanted = f"'{','.join(header)}'" if len(header) > 1 else f"a '{header[0]}' header"
        raise DataError(f"{what} {path!r} must start with {wanted}")
    width = len(rows[0])
    ids: list[str] = []
    seen: set[str] = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DataError(f"{what} {path!r} row {i}: expected {width} fields, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise DataError(f"{what} {path!r} row {i}: blank sample_id")
        if sid in seen:
            raise DataError(f"{what} {path!r} row {i}: duplicate id {sid!r}")
        seen.add(sid)
        ids.append(sid)
    if not ids:
        raise DataError(f"{what} {path!r} has no data rows")
    return ids, [row[1:] for row in rows[1:]]


def join_ids(by_id: Mapping[str, T], ids: Sequence[str], where: str, lacking: str) -> list[T]:
    """The values of ``by_id`` in the order of the unique ``ids``.

    Raises MisalignedGroup naming ``where`` and the first id of ``ids`` it
    lacks, or else its smallest id outside ``ids`` ("has ids <lacking>").
    """
    missing = next((sid for sid in ids if sid not in by_id), None)
    if missing is not None:
        raise MisalignedGroup(f"{where} is missing ids (first: {missing!r})")
    if len(by_id) != len(ids):
        extra = min(set(by_id).difference(ids))
        raise MisalignedGroup(f"{where} has ids {lacking} (first: {extra!r})")
    return [by_id[sid] for sid in ids]


def label_space_of(labels_path: str, names: Iterable[str]) -> LabelSpace:
    """The lexicographic label space of ``names``, which came from (or
    with) the labels file; too few classes is a DataError naming it."""
    try:
        return LabelSpace.from_names(names)
    except ValueError as exc:
        raise DataError(f"labels file {labels_path!r}: {exc}") from exc


def read_labels(path: str) -> dict[str, str]:
    ids, fields = _read_table(path, "labels file", ("sample_id", "label"))
    return {sid: row[0].strip() for sid, row in zip(ids, fields)}


def read_feature_file(path: str) -> tuple[list[str], np.ndarray]:
    """The file's ids and its (n, d) float64 feature matrix, in file order."""
    ids, fields = _read_table(path, "feature file", ("sample_id",))
    if not fields[0]:
        raise DataError(f"feature file {path!r} has no feature columns")
    try:
        return ids, np.array(fields, dtype=np.float64)
    except ValueError:
        # numpy parses each value with float, so some row fails the same way
        for i, row in enumerate(fields, start=2):
            try:
                [float(v) for v in row]
            except ValueError as exc:
                raise DataError(f"feature file {path!r} row {i}: {exc}") from exc
        raise


def load_groups(group_paths: Sequence[tuple[str, str]]) -> tuple[list[GroupView], list[str]]:
    """Read (name, path) feature files joined on sample_id; rows in
    lexicographic id order."""
    if not group_paths:
        raise DataError("no feature groups configured")
    tables = [(name, path, *read_feature_file(path)) for name, path in group_paths]
    ids = sorted(tables[0][2])
    groups = []
    for name, path, file_ids, matrix in tables:
        row_of = {sid: i for i, sid in enumerate(file_ids)}
        features = matrix[join_ids(row_of, ids, f"feature file {path!r}", "absent elsewhere")]
        finite = np.isfinite(features)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NonFiniteFeature(
                f"feature file {path!r} (group {name!r}): non-finite value for "
                f"sample id {ids[row]!r} in feature column {col}"
            )
        groups.append(GroupView(name, features))
    return groups, ids


def load_dataset(
    labels_path: str, group_paths: Sequence[tuple[str, str]]
) -> MultiViewDataset:
    """Assemble a validated dataset from a labels file and feature files."""
    label_by_id = read_labels(labels_path)
    groups, ids = load_groups(group_paths)
    names = join_ids(label_by_id, ids, f"labels file {labels_path!r}", "without features")
    space = label_space_of(labels_path, names)
    y = np.array([space.index(name) for name in names], dtype=np.int64)
    return validate_dataset(
        MultiViewDataset(
            label_space=space,
            labels=y,
            groups=tuple(groups),
            sample_ids=tuple(ids),
        )
    )


def write_dataset(d: MultiViewDataset, out_dir: str) -> None:
    """Emit labels.csv plus one <group>.csv per feature group."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "labels.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "label"])
        for sid, y in zip(d.sample_ids, d.labels):
            w.writerow([sid, d.label_space.class_names[y]])
    for g in d.groups:
        with open(os.path.join(out_dir, f"{g.name}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_id"] + [f"f{j}" for j in range(g.dim)])
            for sid, row in zip(d.sample_ids, g.features):
                w.writerow([sid] + [format(v, ".17g") for v in row])


def write_predictions(
    preds: Sequence[Prediction], class_names: Sequence[str], path: str
) -> None:
    """One row per sample: id, decided class name, then the m score columns
    printed with 6 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "predicted"] + [f"score_{c}" for c in class_names])
        for p in preds:
            w.writerow(
                [p.sample_id, class_names[p.decided]]
                + [format(v, ".6g") for v in p.scores]
            )


def read_predictions(path: str) -> dict[str, str]:
    """Map sample_id to the decided class name from a predictions file."""
    ids, fields = _read_table(path, "predictions file", ("sample_id", "predicted"))
    return {sid: row[0].strip() for sid, row in zip(ids, fields)}
