"""On-disk data formats: per-group feature CSVs, a labels CSV, and the
predictions CSV.

Feature files carry a ``sample_id,f0,f1,...`` header; the labels file is
``sample_id,label``. Files are joined on sample_id, so row order never
matters, but missing or extra ids are hard errors rather than a silent inner
join. The canonical dataset order is lexicographic by sample_id.
"""

from __future__ import annotations

import csv
import os
from typing import Sequence

import numpy as np

from .core import GroupView, LabelSpace, MultiViewDataset, validate_dataset
from .errors import DataError, MisalignedGroup, NonFiniteFeature
from .pipeline import Prediction


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, "r", newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path!r} is not a readable CSV text file: {exc}") from exc


def read_labels(path: str) -> dict[str, str]:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][:2]] != ["sample_id", "label"]:
        raise DataError(f"labels file {path!r} must start with 'sample_id,label'")
    out: dict[str, str] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"labels file {path!r} row {i}: expected 2 fields")
        sid, label = row[0].strip(), row[1].strip()
        if sid in out:
            raise DataError(f"labels file {path!r} row {i}: duplicate id {sid!r}")
        out[sid] = label
    if not out:
        raise DataError(f"labels file {path!r} has no data rows")
    return out


def read_feature_file(path: str) -> dict[str, np.ndarray]:
    rows = _read_rows(path)
    if not rows or rows[0][0].strip() != "sample_id":
        raise DataError(f"feature file {path!r} must start with a 'sample_id' header")
    width = len(rows[0]) - 1
    if width < 1:
        raise DataError(f"feature file {path!r} has no feature columns")
    out: dict[str, np.ndarray] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width + 1:
            raise DataError(
                f"feature file {path!r} row {i}: expected {width + 1} fields, "
                f"got {len(row)}"
            )
        sid = row[0].strip()
        if sid in out:
            raise DataError(f"feature file {path!r} row {i}: duplicate id {sid!r}")
        try:
            out[sid] = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"feature file {path!r} row {i}: {exc}") from exc
    if not out:
        raise DataError(f"feature file {path!r} has no data rows")
    return out


def _aligned_matrix(
    per_id: dict[str, np.ndarray], ids: Sequence[str], path: str
) -> np.ndarray:
    missing = [i for i in ids if i not in per_id]
    if missing:
        raise MisalignedGroup(
            f"feature file {path!r} is missing ids (first: {missing[0]!r})"
        )
    extra = set(per_id) - set(ids)
    if extra:
        raise MisalignedGroup(
            f"feature file {path!r} has ids absent elsewhere "
            f"(first: {sorted(extra)[0]!r})"
        )
    return np.stack([per_id[i] for i in ids])


def load_groups(group_paths: Sequence[tuple[str, str]]) -> tuple[list[GroupView], list[str]]:
    """Read (name, path) feature files joined on sample_id; rows in
    lexicographic id order."""
    if not group_paths:
        raise DataError("no feature groups configured")
    tables = [(name, path, read_feature_file(path)) for name, path in group_paths]
    ids = sorted(tables[0][2].keys())
    groups = []
    for name, path, table in tables:
        features = _aligned_matrix(table, ids, path)
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
    missing = [i for i in ids if i not in label_by_id]
    if missing:
        raise MisalignedGroup(
            f"labels file {labels_path!r} is missing ids (first: {missing[0]!r})"
        )
    extra = set(label_by_id) - set(ids)
    if extra:
        raise MisalignedGroup(
            f"labels file {labels_path!r} has ids without features "
            f"(first: {sorted(extra)[0]!r})"
        )
    label_space = LabelSpace.from_names(label_by_id.values())
    y = np.array([label_space.index(label_by_id[i]) for i in ids], dtype=np.int64)
    return validate_dataset(
        MultiViewDataset(
            label_space=label_space,
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
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][:2]] != ["sample_id", "predicted"]:
        raise DataError(
            f"predictions file {path!r} must start with 'sample_id,predicted'"
        )
    out: dict[str, str] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise DataError(f"predictions file {path!r} row {i}: too few fields")
        sid = row[0].strip()
        if sid in out:
            raise DataError(f"predictions file {path!r} row {i}: duplicate id {sid!r}")
        out[sid] = row[1].strip()
    if not out:
        raise DataError(f"predictions file {path!r} has no data rows")
    return out
