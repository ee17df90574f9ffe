"""On-disk data formats: per-group feature CSVs, a labels CSV, and the
predictions CSV.

Feature files carry a ``sample_id,f0,f1,...`` header; the labels file is
``sample_id,label`` and the predictions file ``sample_id,predicted,...``.
One table reader parses every format with the same checks: the header, the
header's field count on every row, unique non-blank ids and at least one
data row, each error naming the file and row. A plain feature file (no
quoting, LF or CRLF, every row well formed) is parsed in C by np.loadtxt
instead, behind guards under which both give the same ids and bits; any
other file, and every error, goes through the table reader. Writers print
the bytes csv.writer would (CRLF line ends; a field quoted, its quotes
doubled, only when it holds a comma, quote, CR or LF), each row's numbers
through one format string. ``join_ids`` joins files on sample_id, so row
order never matters, but missing or extra ids are hard errors rather than a
silent inner join. The canonical dataset order is lexicographic by sample_id.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .core import GroupView, LabelSpace, MultiViewDataset
from .errors import DataError, DimensionMismatch, MisalignedGroup, NonFiniteFeature

T = TypeVar("T")


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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
    """Each sample id's stripped label; a blank label is a DataError naming the row."""
    ids, fields = _read_table(path, "labels file", ("sample_id", "label"))
    labels = {sid: row[0].strip() for sid, row in zip(ids, fields)}
    for i, label in enumerate(labels.values(), start=2):
        if not label:
            raise DataError(f"labels file {path!r} row {i}: blank label")
    return labels


def _read_checked_features(path: str) -> tuple[list[str], np.ndarray]:
    """``read_feature_file`` through the table reader: every file, every error."""
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


# A quote starts a csv field; loadtxt strips the ASCII separators \x1c-\x1f
# as whitespace where float rejects them; NUL is kept out of loadtxt.
_NOT_PLAIN = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain_features(path: str) -> Optional[tuple[list[str], np.ndarray]]:
    """The ids and matrix of a plain feature file, parsed in C, or None for
    any other file, which is then left to the checked reader.

    A file is plain when it has none of ``_NOT_PLAIN``, one line ending (LF
    or CRLF), a ``sample_id`` header with a feature column, no line longer
    than csv's field limit, the header's field count on every row, non-blank
    unique ids (so no blank line), and values that loadtxt parses. On such a
    file csv sees no quoting, loadtxt parses each value as float would, and
    both readers give the same ids and the same bits.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    if any(c in text for c in _NOT_PLAIN):
        return None
    eol = "\r\n" if "\r" in text else "\n"
    lines = text.split(eol)
    if eol == "\r\n" and not text.count("\r") == text.count("\n") == len(lines) - 1:
        return None  # a CR or LF outside a CRLF
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    width = len(header)
    if header[0].strip() != "sample_id" or width < 2:
        return None
    if text.count(",") != (width - 1) * len(lines):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = lines[1:]
    ids = [row.partition(",")[0].strip() for row in rows]
    if not all(ids) or len(set(ids)) != len(ids):
        return None
    try:
        matrix = np.loadtxt(
            rows, dtype=np.float64, delimiter=",", usecols=range(1, width),
            comments=None, ndmin=2,
        )
    except ValueError:  # a short row (the comma count then hides a long one) or a bad value
        return None
    return ids, matrix


def read_feature_file(path: str) -> tuple[list[str], np.ndarray]:
    """The file's ids and its (n, d) float64 feature matrix, in file order.

    A plain file is parsed in C; any other file, and every error, goes
    through the checked table reader, so both give the same result."""
    table = _read_plain_features(path)
    return table if table is not None else _read_checked_features(path)


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
    return MultiViewDataset(
        label_space=space, labels=y, groups=tuple(groups), sample_ids=tuple(ids)
    )


def is_file_name(name) -> bool:
    """Whether ``name`` can become ``<name>.csv`` beside labels.csv: a
    string with no directory part and no NUL, other than '', '.', '..' and
    'labels'."""
    return (
        isinstance(name, str)
        and name not in ("", ".", "..", "labels")
        and os.path.basename(name) == name
        and "\0" not in name
    )


def csv_field(text: str) -> str:
    """``text`` as csv.writer prints it: quoted, quotes doubled, if it holds a comma, quote, CR or LF."""
    quoted = "," in text or '"' in text or "\r" in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if quoted else text


def _csv_column(texts: Sequence[str]) -> Sequence[str]:
    """A text column's fields as csv.writer prints them; the column is
    scanned once, and only a column that needs quoting goes through
    ``csv_field`` cell by cell."""
    joined = "".join(texts)
    quoted = "," in joined or '"' in joined or "\r" in joined or "\n" in joined
    return list(map(csv_field, texts)) if quoted else texts


def _write_csv(
    path: str, header: Sequence[str], columns: Sequence[Sequence[str]], matrix: np.ndarray, fmt: str
) -> None:
    """csv.writer's text for ``header``, then per row the row's cell of each
    text column in ``columns`` and its ``matrix`` row in ``fmt``."""
    numbers = ("," + fmt) * matrix.shape[1] + "\r\n"
    fields = [_csv_column(c) for c in columns]
    texts = fields[0] if len(fields) == 1 else map(",".join, zip(*fields))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(map(csv_field, header)) + "\r\n")
            fh.writelines(t + numbers % tuple(v) for t, v in zip(texts, matrix.tolist()))
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc}") from exc


def write_dataset(d: MultiViewDataset, out_dir: str) -> None:
    """Emit labels.csv plus one <group>.csv per feature group; features are
    printed with 17 significant digits, which read back bit for bit. A
    group name that cannot be such a file name is a DataError before any
    file is written."""
    for g in d.groups:
        if not is_file_name(g.name):
            raise DataError(
                f"group name {g.name!r} cannot name a file beside labels.csv in {out_dir!r}"
            )
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {out_dir!r}: {exc}") from exc
    names = d.label_space.class_names
    _write_csv(
        os.path.join(out_dir, "labels.csv"),
        ["sample_id", "label"],
        [d.sample_ids, [names[y] for y in d.labels.tolist()]], np.empty((d.n, 0)), "",
    )
    for g in d.groups:
        _write_csv(
            os.path.join(out_dir, f"{g.name}.csv"),
            ["sample_id"] + [f"f{j}" for j in range(g.dim)],
            [d.sample_ids], g.features, "%.17g",
        )


def write_predictions(preds, class_names: Sequence[str], path: str) -> None:
    """Write a ``pipeline.PredictionBatch`` (as ``pipeline.predict`` returns)
    from its columns: per row the id, the decided class name, then the m
    score columns printed with 6 significant digits. DimensionMismatch
    unless the batch has one score column per class name."""
    if preds.scores.shape[1] != len(class_names):
        raise DimensionMismatch(
            f"{preds.scores.shape[1]} score columns for {len(class_names)} class names"
        )
    _write_csv(
        path,
        ["sample_id", "predicted"] + [f"score_{c}" for c in class_names],
        [preds.sample_ids, [class_names[d] for d in preds.decided.tolist()]], preds.scores, "%.6g",
    )


def read_predictions(path: str) -> dict[str, str]:
    """Map sample_id to the decided class name from a predictions file."""
    ids, fields = _read_table(path, "predictions file", ("sample_id", "predicted"))
    return {sid: row[0].strip() for sid, row in zip(ids, fields)}
