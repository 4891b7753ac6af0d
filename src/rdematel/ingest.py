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

from .errors import BundleValidationError, IntervalOrderError, InvalidArgumentError, ParseError
from .pipeline import check_intervals

CATEGORIES = ("internal", "external", "custom")
ROLES = ("practitioner", "academic")


@dataclass(frozen=True)
class Scale:
    """Likert scale bounds for influence judgments (default 0..4); the bounds must fit a panel's int64."""

    minimum: int = 0
    maximum: int = 4

    def __post_init__(self):
        if self.minimum < 0:
            raise InvalidArgumentError("scale minimum must be non-negative")
        if self.minimum >= self.maximum:
            raise InvalidArgumentError("scale minimum must be below maximum")
        if self.maximum > (top := int(np.iinfo(np.int64).max)):
            raise InvalidArgumentError(f"scale maximum must be at most {top}")


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
    """Study metadata and either ``panel``, int64 (experts, n, n) in respondent order, or ``rough_group``.

    ``rough_group`` is a float (n, n, 2) array of ``[lower, upper]`` pairs.
    """

    criteria: list[CriterionMeta]
    respondents: list[RespondentMeta]
    scale: Scale = field(default_factory=Scale)
    panel: np.ndarray | None = None
    rough_group: np.ndarray | None = None

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

    Raises ParseError naming the first fault: a blank or repeated header id
    (the bundle's criterion-id rule), then a malformed row, then the grid's
    first bad cell in row-major order, worded as in a bundle.
    """
    text = _decode(data)
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty CSV file")
    ids = [c.strip() for c in rows[0]]
    if ids and ids[0] == "":
        ids = ids[1:]
    errors: list[str] = []
    criteria = _read_entries([{"id": c} for c in ids], "header", CriterionMeta, "category", CATEGORIES, errors)
    if errors:
        raise ParseError(errors[0])
    n = len(ids)
    if n == 0:
        raise ParseError("header row carries no criterion ids")
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} data rows for {n} criteria, found {len(rows) - 1}")
    grid = []
    for i, row in enumerate(rows[1:], start=1):
        cells = [c.strip() for c in row]
        if len(cells) != n + 1:
            raise ParseError(f"row {i}: expected {n + 1} cells, found {len(cells)}")
        if cells[0] != ids[i - 1]:
            raise ParseError(f"row {i}: row id {cells[0]!r} does not match header id {ids[i - 1]!r}")
        grid.append(list(map(_int_or_text, cells[1:])))
    a = _read_grid(grid, criteria, scale, False)
    if isinstance(a, str):
        raise ParseError(a)
    return a


def _int_or_text(cell: str) -> int | str:
    try:
        return int(cell)
    except ValueError:
        return cell


def _read_grid(grid, criteria: list[CriterionMeta], scale: Scale, maybe_bool: bool) -> np.ndarray | str:
    """One grid of judgments as an int64 n x n array, or its first fault: its shape, else its first bad cell.

    Cells are taken in row-major order. A cell is bad when it is not an int
    (a bool is not one), when it lies off the diagonal and off the scale, or
    when it lies on the diagonal, a structural zero, and is not 0. A grid
    that numpy reads with an integer dtype is checked in one pass, unless its
    text holds a ``true``/``false`` token (``maybe_bool``), which numpy reads
    as the ints 1/0. Any other grid is walked as Python values, so an int
    beyond 64 bits is reported as off the scale.
    """
    n, lo, hi = len(criteria), scale.minimum, scale.maximum
    try:
        a = np.asarray(grid)
        if a.shape != (n, n):
            return f"shape {a.shape} does not match {n} criteria"
        if a.dtype.kind in "iu" and not maybe_bool:
            off = np.where(np.eye(n, dtype=bool), a != 0, (a < lo) | (a > hi))
            cells = ((i, j, a[i, j].item()) for i, j in np.argwhere(off))
        else:
            cells = ((i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row)
                     if type(v) is not int or (v != 0 if i == j else not lo <= v <= hi))
        if (bad := next(cells, None)) is None:
            return a if a.dtype == np.int64 else np.asarray(grid, dtype=np.int64)
    except (ValueError, OverflowError) as exc:  # a ragged grid; an int beyond 64 bits that the scale allows
        return str(exc)
    i, j, v = bad
    cell = f"({criteria[i].id},{criteria[j].id})"
    if type(v) is not int:
        return f"non-integer cell {cell} {json.dumps(v)}"
    return f"cell {cell} = {v} " + ("on the diagonal, must be 0" if i == j else f"outside scale {lo}..{hi}")


def _read_rough_group(grid, n: int, maybe_bool: bool) -> np.ndarray | str:
    """The ``rough_group`` grid as a float (n, n, 2) array, or the first thing wrong with it.

    ``n`` is 0 when no criteria were read; the size is then not checked.
    """
    try:
        arr = np.asarray(grid)
    except ValueError as exc:  # a ragged grid
        return str(exc)
    if arr.dtype.kind not in "if":
        return "bounds must be numbers"
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        return "must be an n x n grid of [lower, upper] pairs"
    if n and arr.shape[0] != n:
        return f"is {arr.shape[0]}x{arr.shape[1]} but {n} criteria given"
    # numpy reads JSON true/false as 1/0, so bools need a look at the leaves
    if maybe_bool and bool in (leaf_types := [type(v) for row in grid for pair in row for v in pair]):
        i, j = divmod(leaf_types.index(bool) // 2, arr.shape[0])
        return f"boolean bound in cell ({i},{j})"
    if not np.isfinite(arr).all():
        i, j, _ = np.argwhere(~np.isfinite(arr))[0]
        return f"non-finite bound in cell ({i},{j})"
    if (arr < 0).any():
        i, j, _ = np.argwhere(arr < 0)[0]
        return f"negative bound in cell ({i},{j})"
    if np.diagonal(arr).any():
        i = np.flatnonzero(np.diagonal(arr).any(axis=0))[0]
        return f"non-zero diagonal in cell ({i},{i})"
    try:
        return check_intervals(arr)
    except IntervalOrderError as exc:
        return str(exc)


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

    rough_group: np.ndarray | None = None
    if has_agg:
        rough_group = _read_rough_group(doc["rough_group"], n, maybe_bool)
        if isinstance(rough_group, str):
            errors.append(f"rough_group: {rough_group}")

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

    A panel or rough group that the parser would reject raises
    InvalidArgumentError naming the respondent or grid and the cell.

    The bytes are exactly those of ``json.dumps(doc, indent=2,
    ensure_ascii=False) + "\n"`` with each array as its ``tolist()``.
    """
    doc: dict = {
        "scale": {"min": bundle.scale.minimum, "max": bundle.scale.maximum},
        "criteria": [vars(c) for c in bundle.criteria],
        "respondents": [vars(r) for r in bundle.respondents],
    }
    if bundle.panel is not None:
        panel = np.asarray(bundle.panel)
        if panel.dtype.kind not in "iu":
            raise InvalidArgumentError(f"panel: judgments must be integers, got dtype {panel.dtype}")
        doc["matrices"] = dict(zip([r.id for r in bundle.respondents], panel))
        if not len(doc["matrices"]) == len(bundle.respondents) == len(panel):
            raise InvalidArgumentError("a raw bundle needs one panel slice per respondent and distinct respondent ids")
        for rid, grid in doc["matrices"].items():
            if isinstance(fault := _read_grid(grid, bundle.criteria, bundle.scale, False), str):
                raise InvalidArgumentError(f"matrices[{rid}]: {fault}")
    if bundle.rough_group is not None:
        rough_group = _read_rough_group(bundle.rough_group, bundle.n, False)
        if isinstance(rough_group, str):
            raise InvalidArgumentError(f"rough_group: {rough_group}")
        doc["rough_group"] = rough_group
    return (dump_json(doc, ensure_ascii=False) + "\n").encode("utf-8")


_SCALARS = (str, int, float, type(None))  # the values a row table holds; bool is an int


def dump_json(value, level: int = 0, ensure_ascii: bool = True) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=...)`` opened at indent ``level``, each ndarray as its ``tolist()``.

    Any ``indent`` sends every value through the stdlib's pure-Python encoder, which
    for 280k floats (four n x n grids at n = 200) cost ~1 s and a ~60 MB transient.
    So arrays go through ``_json_grid``, which reprs each distinct value once; a
    dict (string keys) is walked key by key; and a row table, a non-empty list of
    non-empty dicts of JSON scalars (result rows, network edges, ledger entries),
    is one call of the C encoder with the row layout as its item separator.
    """
    if isinstance(value, np.ndarray):
        return _json_grid(value, level)
    if isinstance(value, dict) and value:
        pad = "\n" + "  " * (level + 1)
        items = (json.dumps(k, ensure_ascii=ensure_ascii) + ": " + dump_json(v, level + 1, ensure_ascii)
                 for k, v in value.items())
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    if isinstance(value, list) and value and all(
        isinstance(row, dict) and row and all(isinstance(v, _SCALARS) for v in row.values()) for row in value
    ):
        # the item separator lays out each row's keys; JSON escapes newlines inside
        # strings and no scalar ends in "}", so each "}," + inner is a row boundary
        outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
        rows = json.dumps(value, ensure_ascii=ensure_ascii, separators=("," + inner, ": "))[2:-2]  # no "[{", "}]"
        rows = rows.replace("}," + inner + "{", outer + "}," + outer + "{" + inner)
        return "[" + outer + "{" + inner + rows + outer + "}\n" + "  " * level + "]"
    # JSON escapes newlines inside strings, so every "\n" in a dumped value is layout
    return json.dumps(value, indent=2, ensure_ascii=ensure_ascii).replace("\n", "\n" + "  " * level)


def _json_grid(a: np.ndarray, level: int) -> str:
    """``json.dumps(a.tolist(), indent=2)`` for a finite int or float array, opened at indent ``level``.

    Each distinct value is repr'd once (a float's bit pattern keeps -0.0 apart
    from 0.0). Every element is followed by the text that ends its k innermost
    axes, k closing brackets, a comma and k opening brackets (the last element
    ends all of them and takes the closing brackets only), taken from a table
    of ndim + 1 entries; the reprs and that text are joined once.
    """
    if not np.isfinite(a).all():
        raise InvalidArgumentError("JSON grids must be finite")
    if a.size == 0:  # an empty axis has no reprs to join
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)
    bits, where = np.unique(a.ravel().view(f"i{a.itemsize}"), return_inverse=True)
    reprs = list(map(float.__repr__ if a.dtype.kind == "f" else int.__repr__, bits.view(a.dtype).tolist()))
    pads = ["\n" + "  " * (level + depth) for depth in range(a.ndim + 1)]
    closes = ["".join(pads[depth - 1] + "]" for depth in range(a.ndim, a.ndim - k, -1)) for k in range(a.ndim + 1)]
    opens = ["".join("[" + pads[depth] for depth in range(a.ndim - k + 1, a.ndim + 1)) for k in range(a.ndim + 1)]
    after = [closes[k] + "," + pads[a.ndim - k] + opens[k] for k in range(a.ndim)] + [closes[a.ndim]]
    # element i ends a list along axis d (and each list inside it) when i + 1 is a multiple of its size
    ends = np.arange(1, a.size + 1)
    k = sum(ends % np.prod(a.shape[d:]) == 0 for d in range(a.ndim))
    text = np.empty(2 * a.size, dtype=object)
    text[0::2] = np.array(reprs, dtype=object)[where.ravel()]
    text[1::2] = np.array(after, dtype=object)[k]
    return opens[a.ndim] + "".join(text.tolist())
