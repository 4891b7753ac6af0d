"""Survey data ingestion: expert matrix CSV files and study bundle documents.

A study bundle is a JSON document carrying the scale, criterion and
respondent metadata, and either the raw expert matrices or a precomputed
rough group matrix (for studies that publish only the aggregate).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

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
    """Parse one expert's int64 n x n matrix: header of criterion ids, then rows of ``id,v1,...,vn``."""
    text = _decode(data)
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty CSV file")
    header = [c.strip() for c in rows[0]]
    if header and header[0] == "":
        header = header[1:]
    ids = header
    n = len(ids)
    if n == 0:
        raise ParseError("header row carries no criterion ids")
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} data rows for {n} criteria, found {len(rows) - 1}")
    values = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows[1:], start=1):
        cells = [c.strip() for c in row]
        if len(cells) != n + 1:
            raise ParseError(f"row {i}: expected {n + 1} cells, found {len(cells)}")
        if cells[0] != ids[i - 1]:
            raise ParseError(f"row {i}: row id {cells[0]!r} does not match header id {ids[i - 1]!r}")
        for j, cell in enumerate(cells[1:]):
            try:
                v = int(cell)
            except ValueError:
                raise ParseError(f"row {i}, column {ids[j]}: non-integer cell {cell!r}") from None
            if i - 1 == j:
                if v != 0:
                    raise ParseError(f"row {i}, column {ids[j]}: diagonal must be 0, got {v}")
            elif not scale.contains(v):
                raise ParseError(
                    f"row {i}, column {ids[j]}: value {v} outside scale "
                    f"{scale.minimum}..{scale.maximum}"
                )
            values[i - 1, j] = v
    return values


def _read_grid(grid, criteria: list[CriterionMeta]) -> np.ndarray | str:
    """One raw grid as an int64 n x n array, or what is wrong with it."""
    n = len(criteria)
    try:
        if (shape := np.shape(grid)) != (n, n):
            return f"shape {shape} does not match {n} criteria"
        bad = next(((i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if type(v) is not int), None)
        if bad is not None:
            i, j, v = bad
            return f"non-integer cell ({criteria[i].id},{criteria[j].id}) {json.dumps(v)}"
        return np.asarray(grid, dtype=np.int64)
    except (ValueError, OverflowError) as exc:  # a ragged grid; an int beyond 64 bits
        return str(exc)


def _non_strings(entry: dict, keys: tuple[str, ...], where: str) -> list[str]:
    """One error for each of ``keys`` that ``entry`` holds as something other than a JSON string."""
    return [f"{where}: {key} must be a string" for key in keys if not isinstance(entry.get(key, ""), str)]


def _validate_bundle_dict(doc: dict, maybe_bool: bool = True) -> StudyBundle:
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

    criteria: list[CriterionMeta] = []
    seen = set()
    raw_criteria = doc.get("criteria", [])
    if not isinstance(raw_criteria, list) or not all(isinstance(c, dict) for c in raw_criteria):
        errors.append("criteria: must be a list of objects")
        raw_criteria = []
    if not raw_criteria:
        errors.append("criteria: list is empty or missing")
    elif len(raw_criteria) < 2:
        errors.append(f"criteria: DEMATEL needs at least two criteria, got {len(raw_criteria)}")
    for idx, c in enumerate(raw_criteria):
        errors.extend(_non_strings(c, ("id", "name", "description"), f"criteria[{idx}]"))
        cid = c.get("id", "")
        if not isinstance(cid, str):
            continue
        cid = cid.strip()
        if not cid:
            errors.append(f"criteria[{idx}]: missing id")
            continue
        if cid in seen:
            errors.append(f"criteria[{idx}]: duplicate id {cid!r}")
            continue
        seen.add(cid)
        cat = c.get("category", "custom")
        if cat not in CATEGORIES:
            errors.append(f"criteria[{idx}] ({cid}): unknown category {cat!r}")
        criteria.append(CriterionMeta(cid, c.get("name", ""), cat, c.get("description", "")))

    respondents: list[RespondentMeta] = []
    seen_r = set()
    raw_respondents = doc.get("respondents", [])
    if not isinstance(raw_respondents, list) or not all(isinstance(r, dict) for r in raw_respondents):
        errors.append("respondents: must be a list of objects")
        raw_respondents = []
    for idx, r in enumerate(raw_respondents):
        errors.extend(_non_strings(r, ("id", "description"), f"respondents[{idx}]"))
        rid = r.get("id", "")
        if not isinstance(rid, str):
            continue
        rid = rid.strip()
        if not rid:
            errors.append(f"respondents[{idx}]: missing id")
            continue
        if rid in seen_r:
            errors.append(f"respondents[{idx}]: duplicate id {rid!r}")
            continue
        seen_r.add(rid)
        role = r.get("role", "practitioner")
        if role not in ROLES:
            errors.append(f"respondents[{idx}] ({rid}): unknown role {role!r}")
        respondents.append(RespondentMeta(rid, role, r.get("description", "")))

    n = len(criteria)
    has_raw = "matrices" in doc
    has_agg = "rough_group" in doc
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
        for rid in raw:
            if rid not in seen_r:
                errors.append(f"matrices[{rid}]: dangling respondent reference")
        for r in respondents:
            if r.id not in raw:
                errors.append(f"matrices: no matrix for respondent {r.id}")
        ids, grids = list(raw), list(raw.values())
        try:
            panel = np.asarray(grids)
        except ValueError:  # ragged or too deeply nested
            panel = None
        faults: list[tuple[int, str]] = []  # (grid index, fault), at most one per grid
        read = range(len(grids))  # the grid index of each panel slice
        # numpy reads JSON true/false as the ints 1/0, and a ragged panel or one
        # with a stray value as no int64 array at all: then each grid gets a look
        if panel is None or panel.dtype != np.int64 or panel.shape != (len(grids), n, n) or maybe_bool:
            arrays = [_read_grid(grid, criteria) for grid in grids]
            faults = [(k, a) for k, a in enumerate(arrays) if isinstance(a, str)]
            read = [k for k, a in enumerate(arrays) if not isinstance(a, str)]
            panel = np.array([arrays[k] for k in read], dtype=np.int64).reshape(len(read), n, n)
        # the diagonal is a structural zero, not a judgment: only off-diagonal cells lie on the scale
        off = np.where(np.eye(n, dtype=bool), panel != 0, (panel < scale.minimum) | (panel > scale.maximum))
        for k in np.flatnonzero(off.any(axis=(1, 2))):
            i, j = np.argwhere(off[k])[0]
            why = "on the diagonal, must be 0" if i == j else f"outside scale {scale.minimum}..{scale.maximum}"
            faults.append((read[k], f"cell ({criteria[i].id},{criteria[j].id}) = {panel[k, i, j]} {why}"))
        errors.extend(f"matrices[{ids[k]}]: {fault}" for k, fault in sorted(faults))

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
    if panel is not None and ids != [r.id for r in respondents]:
        panel = panel[[ids.index(r.id) for r in respondents]]
    return StudyBundle(
        criteria=criteria,
        respondents=respondents,
        scale=scale,
        panel=panel,
        rough_group=rough_group,
    )


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
    ensure_ascii=False) + "\n"``; the grids are rendered by ``_json_grid``.
    """
    doc: dict = {
        "scale": {"min": bundle.scale.minimum, "max": bundle.scale.maximum},
        "criteria": [
            {"id": c.id, "name": c.name, "category": c.category, "description": c.description}
            for c in bundle.criteria
        ],
        "respondents": [
            {"id": r.id, "role": r.role, "description": r.description}
            for r in bundle.respondents
        ],
    }
    text = json.dumps(doc, indent=2, ensure_ascii=False).removesuffix("\n}")
    if bundle.panel is not None:
        grids = ",\n".join(
            f"    {json.dumps(r.id, ensure_ascii=False)}: {_json_grid(g, 2)}"
            for r, g in zip(bundle.respondents, bundle.panel)
        )
        text += ',\n  "matrices": ' + ("{\n" + grids + "\n  }" if grids else "{}")
    if bundle.rough_group is not None:
        text += ',\n  "rough_group": ' + _json_grid(bundle.rough_group.stacked(), 1)
    return (text + "\n}\n").encode("utf-8")


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
