"""Survey data ingestion: expert matrix CSV files and study bundle documents.

A study bundle is a JSON document carrying the scale, criterion and
respondent metadata, and either the raw expert matrices or a precomputed
rough group matrix (for studies that publish only the aggregate).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BundleValidationError, InvalidArgumentError, ParseError
from .pipeline import RoughMatrix, Scale

CATEGORIES = ("internal", "external", "custom")
ROLES = ("practitioner", "academic")


@dataclass(frozen=True)
class CriterionMeta:
    id: str
    name: str = ""
    category: str = "custom"
    description: str = ""


@dataclass(frozen=True)
class RespondentMeta:
    id: str
    role: str = "practitioner"
    description: str = ""


@dataclass
class StudyBundle:
    """Study metadata and either ``panel``, int64 (experts, n, n) in respondent order, or ``rough_group``."""

    criteria: list[CriterionMeta]
    respondents: list[RespondentMeta]
    scale: Scale = field(default_factory=Scale)
    panel: np.ndarray | None = None
    rough_group: RoughMatrix | None = None

    @property
    def criterion_ids(self) -> list[str]:
        return [c.id for c in self.criteria]

    @property
    def n(self) -> int:
        return len(self.criteria)


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.replace("\r\n", "\n").replace("\r", "\n")


def parse_expert_csv(data: bytes | str, scale: Scale = Scale()) -> np.ndarray:
    """Parse one expert's int64 n x n matrix: header of criterion ids, then rows of ``id,v1,...,vn``.

    Raises ParseError naming the first fault in reading order: a blank or
    repeated header id (the bundle's criterion-id rule), a malformed row
    before its cells, each cell before the next.
    """
    text = _decode(data)
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty CSV file")
    ids = [c.strip() for c in rows[0]]
    if ids and ids[0] == "":
        ids = ids[1:]
    errors: list[str] = []
    _read_entries([{"id": c} for c in ids], "header", CriterionMeta, "category", CATEGORIES, errors)
    if errors:
        raise ParseError(errors[0])
    n = len(ids)
    if n == 0:
        raise ParseError("header row carries no criterion ids")
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} data rows for {n} criteria, found {len(rows) - 1}")
    judgments: list[int] = []  # row-major, up to the first malformed row or cell
    fault = ""
    for i, row in enumerate(rows[1:], start=1):
        cells = [c.strip() for c in row]
        if len(cells) != n + 1:
            fault = f"row {i}: expected {n + 1} cells, found {len(cells)}"
        elif cells[0] != ids[i - 1]:
            fault = f"row {i}: row id {cells[0]!r} does not match header id {ids[i - 1]!r}"
        else:
            for j, cell in enumerate(cells[1:]):
                try:
                    judgments.append(int(cell))
                except ValueError:
                    fault = f"row {i}, column {ids[j]}: non-integer cell {cell!r}"
                    break
        if fault:
            break
    # python ints, so a judgment beyond 64 bits is reported as off the scale
    values = np.array(judgments + [0] * (n * n - len(judgments)), dtype=object).reshape(n, n)
    bad = _first_bad_cell(values, scale)
    if bad is not None and bad[0] * n + bad[1] < len(judgments):  # a cell read before the fault
        i, j = bad
        v = values[i, j]
        why = f"diagonal must be 0, got {v}" if i == j else f"value {v} outside scale {scale.minimum}..{scale.maximum}"
        raise ParseError(f"row {i + 1}, column {ids[j]}: {why}")
    if fault:
        raise ParseError(fault)
    return values.astype(np.int64)


def _first_bad_cell(grid: np.ndarray, scale: Scale) -> tuple[int, int] | None:
    """The first cell (i, j), row-major, of an n x n grid of judgments that breaks the judgment rule.

    The diagonal is a structural zero, not a judgment: it must be 0, and
    only the off-diagonal cells must lie on the scale.
    """
    off = np.where(np.eye(len(grid), dtype=bool), grid != 0, (grid < scale.minimum) | (grid > scale.maximum))
    bad = np.flatnonzero(off)
    return divmod(int(bad[0]), len(grid)) if bad.size else None


def _read_grid(grid, criteria: list[CriterionMeta], scale: Scale, maybe_bool: bool) -> np.ndarray | str:
    """One raw grid as an int64 n x n array, or the first thing wrong with it.

    The cells get a look one by one when numpy does not read an int64 grid,
    or when the text holds a ``true``/``false`` token (``maybe_bool``),
    since numpy reads those as the ints 1/0.
    """
    n = len(criteria)
    try:
        a = np.asarray(grid)
        if a.shape != (n, n):
            return f"shape {a.shape} does not match {n} criteria"
        if a.dtype != np.int64 or maybe_bool:
            bad = next(((i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if type(v) is not int), None)
            if bad is not None:
                i, j, v = bad
                return f"non-integer cell ({criteria[i].id},{criteria[j].id}) {json.dumps(v)}"
            a = np.asarray(grid, dtype=np.int64)
    except (ValueError, OverflowError) as exc:  # a ragged grid; an int beyond 64 bits
        return str(exc)
    if (bad := _first_bad_cell(a, scale)) is None:
        return a
    i, j = bad
    why = "on the diagonal, must be 0" if i == j else f"outside scale {scale.minimum}..{scale.maximum}"
    return f"cell ({criteria[i].id},{criteria[j].id}) = {a[i, j]} {why}"


def _entry_list(doc: dict, key: str, errors: list[str]) -> list[dict]:
    """The ``key`` list of entry objects, or [] when ``doc`` holds anything else."""
    entries = doc.get(key, [])
    if isinstance(entries, list) and all(isinstance(e, dict) for e in entries):
        return entries
    errors.append(f"{key}: must be a list of objects")
    return []


def _read_entries(
    entries: list[dict], key: str, meta: type, enum: str, choices: tuple[str, ...], errors: list[str]
) -> list:
    """One ``meta`` per entry with a new, non-blank id; every fault found is added to ``errors``.

    Each field of ``meta`` but ``enum`` must be a JSON string, and ``enum`` one of ``choices``.
    """
    texts = [f.name for f in fields(meta) if f.name != enum]
    read, seen = [], set()
    for idx, entry in enumerate(entries):
        where = f"{key}[{idx}]"
        errors.extend(f"{where}: {name} must be a string" for name in texts if not isinstance(entry.get(name, ""), str))
        eid = entry.get("id", "")
        if not isinstance(eid, str):
            continue
        eid = eid.strip()
        if not eid:
            errors.append(f"{where}: missing id")
        elif eid in seen:
            errors.append(f"{where}: duplicate id {eid!r}")
        else:
            seen.add(eid)
            item = meta(**{name: entry[name] for name in [*texts, enum] if name in entry} | {"id": eid})
            if (value := getattr(item, enum)) not in choices:
                errors.append(f"{where} ({eid}): unknown {enum} {value!r}")
            read.append(item)
    return read


def _validate_bundle_dict(doc: dict, maybe_bool: bool) -> StudyBundle:
    """Build the bundle, or raise BundleValidationError listing every violation found.

    ``maybe_bool`` is false when the text has no ``true``/``false`` token.
    """
    errors: list[str] = []

    scale_doc = doc.get("scale", {"min": 0, "max": 4})
    if not isinstance(scale_doc, dict):
        errors.append("scale: must be an object with min/max")
        scale_doc = {}
    lo, hi = scale_doc.get("min", 0), scale_doc.get("max", 4)
    bad = [f"scale.{k}: {json.dumps(v)} is not an integer" for k, v in (("min", lo), ("max", hi)) if type(v) is not int]
    errors.extend(bad)
    scale = Scale()
    if not bad:
        try:
            scale = Scale(lo, hi)
        except InvalidArgumentError as exc:
            errors.append(f"scale: {exc}")

    raw_criteria = _entry_list(doc, "criteria", errors)
    if not raw_criteria:
        errors.append("criteria: list is empty or missing")
    elif len(raw_criteria) < 2:
        errors.append(f"criteria: DEMATEL needs at least two criteria, got {len(raw_criteria)}")
    criteria = _read_entries(raw_criteria, "criteria", CriterionMeta, "category", CATEGORIES, errors)
    raw_respondents = _entry_list(doc, "respondents", errors)
    respondents = _read_entries(raw_respondents, "respondents", RespondentMeta, "role", ROLES, errors)

    n = len(criteria)
    has_raw, has_agg = "matrices" in doc, "rough_group" in doc
    if has_raw == has_agg:
        errors.append("bundle must carry exactly one of 'matrices' or 'rough_group'")

    panel: np.ndarray | None = None
    if has_raw:
        if len(raw_respondents) < 2:
            errors.append(f"respondents: raw mode needs at least two experts, got {len(raw_respondents)}")
        raw = doc["matrices"]
        if not isinstance(raw, dict):
            errors.append("matrices: must map respondent id to an n x n integer grid")
            raw = {}
        rows = {r.id: k for k, r in enumerate(respondents)}  # each respondent's row of the panel
        errors.extend(f"matrices[{rid}]: dangling respondent reference" for rid in raw if rid not in rows)
        errors.extend(f"matrices: no matrix for respondent {rid}" for rid in rows if rid not in raw)
        panel = np.zeros((len(rows), n, n), dtype=np.int64)
        for rid, grid in raw.items():
            a = _read_grid(grid, criteria, scale, maybe_bool)
            if isinstance(a, str):
                errors.append(f"matrices[{rid}]: {a}")
            elif rid in rows:
                panel[rows[rid]] = a

    rough_group: RoughMatrix | None = None
    if has_agg:
        grid = doc["rough_group"]
        try:
            arr = np.asarray(grid)
            if arr.dtype.kind not in "if":
                errors.append("rough_group: bounds must be numbers")
            elif arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
                errors.append("rough_group: must be an n x n grid of [lower, upper] pairs")
            elif n and arr.shape[0] != n:
                errors.append(f"rough_group: is {arr.shape[0]}x{arr.shape[1]} but {n} criteria given")
            # numpy reads JSON true/false as 1/0, so bools need a look at the leaves
            elif maybe_bool and bool in (leaf_types := [type(v) for row in grid for pair in row for v in pair]):
                i, j = divmod(leaf_types.index(bool) // 2, arr.shape[0])
                errors.append(f"rough_group: boolean bound in cell ({i},{j})")
            elif not np.isfinite(arr).all():
                i, j, _ = np.argwhere(~np.isfinite(arr))[0]
                errors.append(f"rough_group: non-finite bound in cell ({i},{j})")
            elif (arr < 0).any():
                i, j, _ = np.argwhere(arr < 0)[0]
                errors.append(f"rough_group: negative bound in cell ({i},{j})")
            elif np.diagonal(arr).any():
                i = np.flatnonzero(np.diagonal(arr).any(axis=0))[0]
                errors.append(f"rough_group: non-zero diagonal in cell ({i},{i})")
            else:
                rough_group = RoughMatrix(arr[:, :, 0], arr[:, :, 1])
        except Exception as exc:
            errors.append(f"rough_group: {exc}")

    if errors:
        raise BundleValidationError(errors)
    return StudyBundle(criteria, respondents, scale, panel, rough_group)


def parse_study_bundle(data: bytes | str) -> StudyBundle:
    """Parse and fully cross-validate a bundle document.

    Raises BundleValidationError listing every violation found, not just
    the first.
    """
    try:
        text = _decode(data)
    except UnicodeDecodeError as exc:
        raise BundleValidationError([f"not valid UTF-8: {exc}"]) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleValidationError([f"not valid JSON: {exc}"]) from None
    except RecursionError:
        raise BundleValidationError(["not valid JSON: nested too deeply"]) from None
    if not isinstance(doc, dict):
        raise BundleValidationError(["top-level document must be an object"])
    return _validate_bundle_dict(doc, "true" in text or "false" in text)


def write_bundle(bundle: StudyBundle) -> bytes:
    """Serialize a bundle; parse(write(b)) is structurally equal to b.

    The bytes are exactly those of ``json.dumps(doc, indent=2,
    ensure_ascii=False) + "\n"`` with each array as its ``tolist()``.
    """
    doc: dict = {
        "scale": {"min": bundle.scale.minimum, "max": bundle.scale.maximum},
        "criteria": [vars(c) for c in bundle.criteria],
        "respondents": [vars(r) for r in bundle.respondents],
    }
    if bundle.panel is not None:
        doc["matrices"] = dict(zip([r.id for r in bundle.respondents], bundle.panel))
        if not len(doc["matrices"]) == len(bundle.respondents) == len(bundle.panel):
            raise InvalidArgumentError("a raw bundle needs one panel slice per respondent and distinct respondent ids")
    if bundle.rough_group is not None:
        doc["rough_group"] = bundle.rough_group.stacked()
    return (dump_json(doc, ensure_ascii=False) + "\n").encode("utf-8")


def dump_json(value, level: int = 0, ensure_ascii: bool = True) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=...)`` opened at indent ``level``, each ndarray as its ``tolist()``.

    Any ``indent`` sends every value through the stdlib's pure-Python encoder, which
    for 280k floats (four n x n grids at n = 200) cost ~1 s and a ~60 MB transient.
    So arrays go through ``_json_grid``, a dict (string keys) is walked key by key.
    """
    if isinstance(value, np.ndarray):
        return _json_grid(value, level)
    if isinstance(value, dict) and value:
        pad = "\n" + "  " * (level + 1)
        items = (json.dumps(k, ensure_ascii=ensure_ascii) + ": " + dump_json(v, level + 1, ensure_ascii)
                 for k, v in value.items())
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    # JSON escapes newlines inside strings, so every "\n" in a dumped value is layout
    return json.dumps(value, indent=2, ensure_ascii=ensure_ascii).replace("\n", "\n" + "  " * level)


def _json_grid(a: np.ndarray, level: int) -> str:
    """``json.dumps(a.tolist(), indent=2)`` for a finite int or float array, opened at indent ``level``.

    The reprs are joined innermost axis first; each axis has one separator
    and one closing bracket, so no per-element encoder call is made.
    """
    if not np.isfinite(a).all():
        raise InvalidArgumentError("JSON grids must be finite")
    if a.size == 0:  # an empty axis has no reprs to join
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)
    parts = list(map(float.__repr__ if a.dtype.kind == "f" else int.__repr__, a.ravel().tolist()))
    for depth in range(a.ndim, 0, -1):
        width = a.shape[depth - 1]
        pad = "\n" + "  " * (level + depth)
        head, sep, tail = "[" + pad, "," + pad, "\n" + "  " * (level + depth - 1) + "]"
        parts = [head + sep.join(parts[k:k + width]) + tail for k in range(0, len(parts), width)]
    return parts[0]
