"""Survey data ingestion: expert matrix CSV files and study bundle documents.

A study bundle is a JSON document carrying the scale, criterion and
respondent metadata, and either the raw expert matrices or a precomputed
rough group matrix (for studies that publish only the aggregate).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .errors import BundleValidationError, IntervalOrderError, InvalidArgumentError, ParseError
from .pipeline import check_intervals

CATEGORIES = ("internal", "external", "custom")
ROLES = ("practitioner", "academic")
_INTEGER = re.compile(r"[+-]?[0-9]+")
# "[[" and two one-digit ints: every grid opens with its diagonal 0, so one digit says little of a scale above 9
_GRID_OPEN = re.compile(rb"\[[ \t\n\r]*\[(?=[ \t\n\r]*[0-9][ \t\n\r]*,[ \t\n\r]*[0-9][ \t\n\r]*[,\]])")
_GRID_CLOSE = re.compile(rb"\][ \t\n\r]*\]")
_BOM = b"\xef\xbb\xbf"
_JSON_WHITESPACE = b" \t\n\r"


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
    """Study metadata and either ``panel``, integer (experts, n, n) in respondent order, or ``rough_group``.

    A parsed panel is int8 for a scale maximum up to 127, int16 up to
    2**15 - 1, int32 up to 2**31 - 1, else int64; arithmetic that can leave
    the scale should upcast first.  ``rough_group`` is a float (n, n, 2)
    array of ``[lower, upper]`` pairs.
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


def parse_expert_csv(data: bytes | str, scale: Scale = Scale()) -> np.ndarray:
    """Parse one expert's int64 n x n matrix: header of criterion ids, then rows of ``id,v1,...,vn``.

    Raises ParseError naming the first fault: a blank or repeated header id
    (the bundle's criterion-id rule), then a malformed row, then the grid's
    first bad cell in row-major order, worded as in a bundle.
    """
    try:  # one leading byte-order mark dropped: Excel's "CSV UTF-8" writes one
        text = (data.decode("utf-8") if isinstance(data, bytes) else data).removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    """The cell as an int when it is ASCII digits with an optional sign, else the text; ``int`` reads "1_0" as 10."""
    return int(cell) if _INTEGER.fullmatch(cell) else cell


def _read_grid(grid, criteria: list[CriterionMeta], scale: Scale, maybe_bool: bool) -> np.ndarray | str:
    """One grid of judgments as an n x n int array, or its first fault: its shape, else its first bad cell.

    A list is read as int64; an array keeps its dtype. Cells are taken in
    row-major order. A cell is bad when it is not an int (a bool is not
    one), when it lies off the diagonal and off the scale, or when it lies
    on the diagonal, a structural zero, and is not 0. A grid that numpy
    reads with an integer dtype is checked in one pass, unless it is a list
    and the text holds a ``true``/``false`` token (``maybe_bool``), which
    numpy reads as the ints 1/0. Any other grid is walked as Python values,
    so an int beyond 64 bits is reported as off the scale.
    """
    n, lo, hi = len(criteria), scale.minimum, scale.maximum
    try:
        a = np.asarray(grid)
        if a.shape != (n, n):
            return f"shape {a.shape} does not match {n} criteria"
        if a.dtype.kind in "iu" and not (maybe_bool and isinstance(grid, list)):
            off = (a < lo) | (a > hi)
            np.fill_diagonal(off, np.diagonal(a) != 0)
            # a genexp evaluates its first iterable at once, so np.nonzero runs only on a grid with a bad cell
            cells = ((i, j, a[i, j].item()) for i, j in zip(*np.nonzero(off))) if off.any() else iter(())
        else:
            cells = ((i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row)
                     if type(v) is not int or (v != 0 if i == j else not lo <= v <= hi))
        if (bad := next(cells, None)) is None:
            return a if a.dtype == np.int64 or isinstance(grid, np.ndarray) else np.asarray(grid, dtype=np.int64)
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

    Each field of ``meta`` but ``enum`` must be a JSON string that UTF-8 can encode, and ``enum`` one of ``choices``.
    """
    texts = [f.name for f in fields(meta) if f.name != enum]
    read, seen = [], set()
    for idx, entry in enumerate(entries):
        where = f"{key}[{idx}]"
        for name in texts:
            if not isinstance(text := entry.get(name, ""), str):
                errors.append(f"{where}: {name} must be a string")
            elif not _encodes(text):
                errors.append(f"{where}: {name} is not valid Unicode text")
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


def _encodes(text: str) -> bool:
    """Whether ``text`` can be written as UTF-8; a JSON escape such as ``"\\ud800"`` reads as a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _validate_bundle_dict(doc: dict, maybe_bool: bool) -> StudyBundle:
    """Build the bundle, or raise BundleValidationError listing every violation found.

    ``maybe_bool`` is false when the text has no ``true``/``false`` token.
    """
    errors: list[str] = []

    scale_doc = doc.get("scale", {})
    if not isinstance(scale_doc, dict):
        errors.append("scale: must be an object with min/max")
        scale_doc = {}
    lo, hi = scale_doc.get("min", Scale.minimum), scale_doc.get("max", Scale.maximum)
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
        keys: dict[str, str] = {}  # respondent id -> its matrices key, which names it as an id does: stripped
        for key in raw:
            if (rid := key.strip()) not in rows:
                errors.append(f"matrices[{key}]: dangling respondent reference")
            elif rid in keys:
                errors.append(f"matrices[{key}]: respondent {rid} already has a matrix, at matrices[{keys[rid]}]")
            else:
                keys[rid] = key
        errors.extend(f"matrices: no matrix for respondent {rid}" for rid in rows if rid not in keys)
        # the narrowest signed int holding -1 - maximum, so a difference of two judgments fits
        panel = np.zeros((len(rows), n, n), dtype=np.min_scalar_type(-1 - scale.maximum))
        for key, grid in raw.items():
            a = _read_grid(grid, criteria, scale, maybe_bool)
            if isinstance(a, str):
                errors.append(f"matrices[{key}]: {a}")
            elif keys.get(rid := key.strip()) == key:
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
    """Parse and fully cross-validate a bundle document, UTF-8 bytes (one leading byte-order mark dropped) or text.

    Raises BundleValidationError listing every violation found, not just
    the first.
    """
    try:
        doc, rest = _load_bundle_json(data)
    except UnicodeDecodeError as exc:
        raise BundleValidationError([f"not valid UTF-8: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise BundleValidationError([f"not valid JSON: {exc}"]) from None
    except RecursionError:
        raise BundleValidationError(["not valid JSON: nested too deeply"]) from None
    if not isinstance(doc, dict):
        raise BundleValidationError(["top-level document must be an object"])
    return _validate_bundle_dict(doc, "true" in rest or "false" in rest)


def _load_bundle_json(data: bytes | str) -> tuple[object, str]:
    """``json.loads`` of ``data``, each grid that ``_int_grid`` reads as its array, and the text with them as ``NaN``.

    Each span of the bytes from a ``[[`` to the next ``]]`` that ``_int_grid`` reads is replaced by a ``NaN`` token,
    which ``parse_constant`` turns back into its array, and only the bytes left are decoded.  The result is kept only
    when every array is a value of the top-level ``matrices`` object, the one place the validator takes arrays (a span
    inside a string is never handed out, so it fails that count too).  Otherwise, and for a text with no such grid,
    a text holding ``NaN`` or ``Infinity``, or a spliced text that does not decode or parse, the whole of ``data`` is
    decoded and parsed, so errors name its offsets; a text that fails a check after the splice is thus parsed twice.
    A grid holds no letters, so the spliced text holds every ``true``/``false`` token of the whole.  Text goes through
    as its UTF-8 bytes, a lone surrogate (as a JSON escape also gives) passed.
    """
    errors = "surrogatepass" if isinstance(data, str) else "strict"
    data = data.encode("utf-8", errors) if isinstance(data, str) else data
    pieces, grids = [], []
    cut = end = len(_BOM) if data.startswith(_BOM) else 0
    while (opening := _GRID_OPEN.search(data, end)) and (closing := _GRID_CLOSE.search(data, opening.end())):
        start, end = opening.start(), closing.end()  # the search goes on past a span, so it stays linear
        if (grid := _int_grid(data[start:end])) is not None:
            pieces.append(data[cut:start])
            grids.append(grid)
            cut = end
    pieces.append(data[cut:])
    spliced = b"NaN".join(pieces)
    # count finds a "NaN" at least once per splice, so one more means the text holds one
    if grids and spliced.count(b"NaN") == len(grids) and b"Infinity" not in spliced:
        arrays = iter(grids)
        try:
            text = spliced.decode("utf-8", errors)
            doc = json.loads(text, parse_constant=lambda _: next(arrays))
        except (ValueError, RecursionError):  # a UnicodeDecodeError too, worded below from the whole input
            doc = None
        matrices = doc.get("matrices") if isinstance(doc, dict) else None
        if isinstance(matrices, dict) and sum(type(g) is np.ndarray for g in matrices.values()) == len(grids):
            return doc, text
    text = data.decode("utf-8", errors).removeprefix("\ufeff")
    return json.loads(text), text


def _int_grid(span: bytes) -> np.ndarray | None:
    """``np.array(json.loads(span))`` as uint8 if ``span`` is a square grid of one-digit ints, else None.

    With JSON whitespace dropped, ``span`` must be exactly the layout of an r x r grid with one digit to a slot (no two
    digits in a row, so a wider number, or whitespace inside one, breaks it), checked through strided views of its
    bytes.  The values are the slots' bytes - 48: a uint8 grid of 200 x 200 costs 40 KB, an int64 one 320 KB.
    """
    packed = span.translate(None, _JSON_WHITESPACE)
    r = math.isqrt(len(packed) // 2)  # an r x r layout is 2r(r + 1) + 1 bytes
    if r < 1 or len(packed) != 2 * r * (r + 1) + 1 or packed[0] != ord("["):
        return None
    rows = np.frombuffer(packed, np.uint8)[1:].reshape(r, 2 * r + 2)  # "[d,...,d]" then "," (the last row "]")
    digits = rows[:, 1 : 2 * r : 2] - 48
    frame, ends = (np.frombuffer(b"[" * first + b"," * (r - 1) + b"]", np.uint8) for first in (1, 0))
    return digits if (rows[:, ::2] == frame).all() and (rows[:, -1] == ends).all() and (digits < 10).all() else None


def write_bundle(bundle: StudyBundle) -> bytes:
    """Serialize a bundle: the join of ``bundle_chunks``, encoded as UTF-8."""
    return "".join(bundle_chunks(bundle)).encode("utf-8")


def bundle_chunks(bundle: StudyBundle) -> Iterator[str]:
    """The text of ``write_bundle(bundle)`` in chunks; parse(write(b)) is structurally b with its ids stripped.

    A bundle that the parser would reject raises InvalidArgumentError, before
    any chunk, with the parser's first error, e.g. the respondent or grid and
    the cell.  The text is exactly that of ``json.dumps(doc,
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
        if panel.shape[:1] != (len(bundle.respondents),):  # zip would drop extra slices; a 0-d panel has none
            raise InvalidArgumentError(
                f"a raw bundle needs one panel slice per respondent, got shape {panel.shape} "
                f"for {len(bundle.respondents)} respondents"
            )
        # keyed by the ids the parser keeps; an id that is not a string is rejected below
        doc["matrices"] = dict(zip([str(r.id).strip() for r in bundle.respondents], panel))
    if bundle.rough_group is not None:
        doc["rough_group"] = bundle.rough_group
    try:
        checked = _validate_bundle_dict(doc, False)
    except BundleValidationError as exc:
        raise InvalidArgumentError(exc.errors[0]) from None
    doc["criteria"] = [vars(c) for c in checked.criteria]
    doc["respondents"] = [vars(r) for r in checked.respondents]
    if checked.rough_group is not None:
        doc["rough_group"] = checked.rough_group
    return itertools.chain(json_chunks(doc, ensure_ascii=False), ["\n"])


def json_chunks(value, ensure_ascii: bool = True) -> Iterator[str]:
    """Yield ``json.dumps(value, ensure_ascii=...)``, each ndarray as its ``tolist()``, in chunks: each grid one
    leading-axis row at a time.

    Arrays go through ``json_grid``, which writes each distinct value's repr
    once; an iterator, such as a windowed ``json_grid``, is text its caller
    encodes as it is written, and its chunks are passed on.  ``_json_reprs``
    writes a call's floats (distinct values, or a window's) with a numpy
    shortest-digit kernel when there are 512 or more, the text still exactly
    ``float.__repr__``'s.  A non-empty dict (string keys) is walked key by
    key; any other value is one call of the stdlib's C encoder.  No chunk
    holds more than one row of a grid, one key or one other value.
    """
    if isinstance(value, np.ndarray):
        yield from json_grid(value)
    elif isinstance(value, Iterator):
        yield from value
    elif isinstance(value, dict) and value:
        opening = "{"
        for k, v in value.items():
            yield opening + json.dumps(k, ensure_ascii=ensure_ascii) + ": "
            yield from json_chunks(v, ensure_ascii)
            opening = ", "
        yield "}"
    else:
        yield json.dumps(value, ensure_ascii=ensure_ascii)


# Values per step of _distinct, which makes its sorted values and ranks this many at a time, never whole.
_DEDUP_CHUNK = 8192
# Values per call of the float kernel, and the window in which report.json writes its all-distinct total.  The kernel
# holds ~64 bytes a value of its window at its peak; half the window costs ~15% more time a value in numpy calls.
REPR_WINDOW = 8192


def json_grid(a: np.ndarray, window: int | None = None) -> Iterator[str]:
    """Yield ``json.dumps(a.tolist())`` for a finite int or float array.

    The text comes one leading-axis row at a time (the first opens the list),
    then the closing bracket; a 0-d array is one chunk.  By default each
    distinct value is repr'd once, found by an argsort with an int32 inverse
    (a float's bit pattern keeps -0.0 apart from 0.0): a raw panel's rough
    group repeats its values across rows.  Finding them costs 13 bytes a
    value (``_distinct``), and the table keeps the 4-byte inverse.  A grid
    of distinct values gains nothing from that table, so with a ``window``
    the reprs are written in order, for the leading rows that fit in
    ``window`` values (one row at least) at a time.  ``_json_reprs`` writes
    reprs as 24-byte ``S24`` entries (a str costs ~70), ``REPR_WINDOW``
    values at a time, each float window's kernel holding ~64 bytes a value
    of it at its peak.  A row is laid out
    in one buffer of slots, one a value: 24 bytes for its repr, then the
    text that follows it in the stdlib's own text for a row of placeholders
    (``", "``, ``"], ["``, ``"]]"``), padded with NULs to the widest such
    text.  Each row's reprs are copied into the slots, and the buffer is
    decoded with its NULs deleted: no repr or layout text holds one, and a
    24-character repr fills its slot.
    """
    if a.ndim == 0:  # a scalar has no rows
        yield _json_reprs(a.ravel())[0].decode()
        return
    if a.size == 0:  # an empty axis has no reprs to join
        yield json.dumps(a.tolist())
        return
    row = json.dumps(np.full(a.shape[1:], "%").tolist()).encode().split(b'"%"')
    width = 24 + max(map(len, row[1:]))  # a value's repr slot, then the text after it in the row, NUL-padded
    buffer = bytearray(b"".join((b"\0" * 24 + after).ljust(width, b"\0") for after in row[1:]))
    slots = np.frombuffer(buffer, np.uint8).reshape(-1, width)[:, :24].view("S24")[:, 0]
    if window is None:
        distinct, where = _distinct(a.ravel().view(f"i{a.itemsize}"))
        reprs = _json_reprs(distinct.view(a.dtype))
        rows = (reprs[elements] for elements in where.reshape(len(a), -1))
    else:
        step = max(window // (a.size // len(a)), 1)
        rows = (line for start in range(0, len(a), step)
                for line in _json_reprs(a[start:start + step].ravel()).reshape(-1, len(row) - 1))
    opening = b"[" + row[0]
    for line in rows:
        slots[:] = line
        yield (opening + buffer.translate(None, b"\0")).decode()
        opening = b", " + row[0]
    yield "]"


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a non-empty 1-d int array, ascending, and the int32 index of each element's among them.

    It holds 13 bytes a value, the argsort's intp order, a first-of-run
    mask and the index, plus the distinct values and one chunk's sorted
    values: the sorted values and ranks are only made ``_DEDUP_CHUNK`` at
    a time, never whole.
    """
    order = np.argsort(bits)
    first = np.ones(bits.size, dtype=bool)  # whether each sorted value starts a run of equal ones
    for start in range(0, bits.size - 1, _DEDUP_CHUNK):
        ordered = bits[order[start:start + _DEDUP_CHUNK + 1]]  # with the next chunk's first value
        np.not_equal(ordered[1:], ordered[:-1], out=first[start + 1:start + len(ordered)])
    where = np.empty(bits.size, dtype=np.int32)
    seen = -1  # the index of the last chunk's last value
    for start in range(0, bits.size, _DEDUP_CHUNK):
        rank = np.cumsum(first[start:start + _DEDUP_CHUNK], dtype=np.int32)
        rank += seen
        where[order[start:start + _DEDUP_CHUNK]] = rank
        seen = int(rank[-1])
    return bits[order[first]], where


def _json_reprs(values: np.ndarray) -> np.ndarray:
    """``json.dumps``'s text of each value of a finite 1-d int or float array, as an ``S24`` array: ``_float_reprs``
    writes ``_FLOAT_KERNEL_MIN`` or more floats (as float64, what ``tolist()`` gives), ``repr`` fewer, and ints.

    The values are written ``REPR_WINDOW`` at a time: beside the table, one window holds the kernel's buffers (~64
    bytes a value) and, for float32 values, a float64 copy, or its listed values and their strs.
    """
    if not np.isfinite(values).all():
        raise InvalidArgumentError("JSON numbers must be finite")
    fmt = float.__repr__ if values.dtype.kind == "f" else int.__repr__
    kernel = fmt is float.__repr__ and values.size >= _FLOAT_KERNEL_MIN
    reprs = np.empty(values.size, dtype="S24")  # a float repr is at most 24 characters, an int one 20
    for start in range(0, values.size, REPR_WINDOW):
        chunk = values[start:start + REPR_WINDOW]
        reprs[start:start + REPR_WINDOW] = (_float_reprs(chunk.astype(np.float64, copy=False)) if kernel
                                            else list(map(fmt, chunk.tolist())))
    return reprs


# The shortest-digit kernel, _float_reprs.  Its fixed cost, ~100 numpy calls, is ~0.2 ms, which float.__repr__
# at ~0.6 us a value matches at ~400 values (2-vCPU Xeon host); below _FLOAT_KERNEL_MIN values repr is used.
_FLOAT_KERNEL_MIN = 512
_U32, _32, _64, _ONE = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(64), np.uint64(1)
_POW5 = np.array([5**i for i in range(23)], dtype=np.uint64)
_POW10 = np.array([10**i for i in range(19)], dtype=np.uint64)


def _float_reprs(x: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each of a float64 array's values, as an ``S24`` array.

    The kernel covers x in [1e-4, 1e15), where repr writes positional
    digits; every other value, and a rounding that is an exact tie, takes
    ``float.__repr__``.
    """
    sig, decpt, ok = _shortest_digits(x)
    reprs = _positional(sig, decpt)
    missed = np.flatnonzero(~ok)
    reprs[missed] = list(map(float.__repr__, x[missed].tolist()))
    return reprs


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each x as a 17-digit int64 padded with zeros, its decpt (x = 0.digits * 10**decpt) as
    int8, and whether the kernel covers x.

    repr's digits are the fewest that read back as x, the closest such (Gay
    1990).  With x = M * 2**E and k = 17 - floor(log10 x), floor(x * 10**k)
    has 18 digits: it is 4M * 5**k / 2**(2 - E - k), a 128-bit product whose
    shifted-out bits are kept for exactness.  Of x rounded to 15, 16 and 17
    digits, the first within half an ulp of x is repr's.  A power of two has
    a narrower gap below it, but in [1e-4, 1e15) it is a decimal of at most
    15 digits, which its 15-digit rounding hits exactly.

    Each step writes into a buffer of the window's size, in place where it
    can: at most seven of 8 bytes a value are held at once.  A value the
    kernel does not cover goes through the same steps on values that are
    never read (numpy gives 0 for a shift by 64 bits or more).
    """
    bits = x.view(np.uint64)
    ok = x >= 1e-4
    ok &= x < 1e15
    logs = np.clip(x, 1e-4, 1e15)  # x where the kernel covers it
    e10 = np.floor(np.log10(logs, out=logs), out=logs).astype(np.int8)  # may be 1 off at a power of 10
    del logs
    k = np.subtract(17, e10, dtype=np.intp)
    b = _POW5.take(k, out=k.view(np.uint64), mode="clip")
    shift = bits >> np.uint64(52)
    exponent = shift.view(np.int64)
    np.subtract(1060, exponent, out=exponent)
    exponent += e10  # 2 - E - k
    a = bits & np.uint64((1 << 52) - 1)
    a |= np.uint64(1 << 52)
    a <<= np.uint64(2)
    n, rest = _product(a, b)
    spare = _64 - shift
    n <<= spare
    n |= np.right_shift(rest, shift, out=spare)  # floor(x * 10**k)
    np.left_shift(_ONE, shift, out=spare)
    spare -= _ONE
    rest &= spare  # x * 10**k - n = rest / 2**shift
    del spare
    inexact = rest != 0
    b <<= _ONE
    half_ulp = b.view(np.int64)  # (x -+ ulp/2) * 10**k = n + (rest -+ half_ulp) / 2**shift
    ok &= n >= _POW10[17]
    ok &= n < _POW10[18]  # else log10 was 1 off
    # A remainder is n less its quotient's multiple (numpy divides by a scalar fast, but not so for a remainder), and
    # a choice between two values is the first plus 0 or 1 times their difference: masked numpy calls are slower.
    # Rounded to 17 digits x always reads back (an error of 5e-17 x at most, half an ulp is more than 2**-54 x).
    sig = n // _POW10[1]
    rem = sig * _POW10[1]
    np.subtract(n, rem, out=rem)
    up = rem > 5
    up |= (rem == 5) & inexact
    tie = rem == 5
    tie &= ~inexact
    spare = np.empty_like(rem)
    np.copyto(spare, up)
    sig += spare
    for p in (16, 15):
        u = _POW10[18 - p]
        np.floor_divide(n, u, out=rem)
        rem *= u
        np.subtract(n, rem, out=spare)  # n % u
        at_half = spare == u >> _ONE
        up = spare > u >> _ONE
        up |= at_half & inexact
        np.copyto(rem, up)
        rem *= u
        rem -= spare  # up * u - n % u, from x * 10**k to the candidate in units of 10**-k
        np.add(n, rem, out=spare)
        spare //= _POW10[1]  # the candidate, (n // u + up) * 10**(17 - p)
        # (candidate - x * 10**k) * 2**shift, within the bounds when below half_ulp; a candidate of 16 digits
        # or fewer never sits on a bound, as a midpoint between doubles below 2**53 has 17 or more
        rem <<= shift
        rem -= rest
        distance = rem.view(np.int64)
        inside = np.abs(distance, out=distance) < half_ulp
        np.copyto(rem, inside)
        spare -= sig
        spare *= rem
        sig += spare
        at_half &= ~inexact
        tie &= ~inside
        tie |= inside & at_half
    del n, rest, rem, spare, b, half_ulp, shift
    carry = sig == _POW10[17]  # 99..9.5 rounded up: one digit more
    decpt = e10  # 18 - k + carry, which is e10 + 1 + carry
    decpt += 1
    decpt += carry.view(np.int8)
    ok &= ~tie
    ok &= decpt >= -3
    ok &= decpt <= 16  # repr's positional range
    decpt *= ok.view(np.int8)
    decpt += (~ok).view(np.int8)  # any layout will do for the values left to repr
    keep = (ok & ~carry).astype(np.uint64)
    sig -= _POW10[16]
    sig *= keep
    sig += _POW10[16]
    return sig.view(np.int64), decpt, ok


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products of two uint64 arrays, from their 32-bit halves; the high
    words are written over ``a``.

    The cross terms and the low product's carry share one word: a = 4M < 2**55 and b = 5**k <= 5**22 < 2**52 (k is
    22 only where log10 rounds down at 1e-4), so each partial product fits, and their sum is below 2**56.
    """
    low = a * b
    a_lo = a & _U32
    a >>= _32  # a_hi
    half = b & _U32  # b_lo
    mid = a_lo * half
    mid >>= _32
    half *= a
    mid += half  # a_hi b_lo + a_lo b_lo / 2**32
    np.right_shift(b, _32, out=half)  # b_hi
    a_lo *= half
    mid += a_lo
    a *= half
    mid >>= _32
    a += mid  # a_hi b_hi + mid / 2**32
    return a, low


def _positional(sig: np.ndarray, decpt: np.ndarray) -> np.ndarray:
    """The ``S24`` text of 0.digits * 10**decpt as repr writes it, for 17 digits ``sig`` and decpt in -3..16.

    The digits' ASCII bytes, 3 little-endian words of a 24-byte row, are moved
    by whole bytes to start with "0" when decpt < 1, the bytes from the "." on
    one byte further, and cut after the last digit that is not a trailing
    zero, keeping one digit after the ".".  Every shift and mask is looked up
    by one index a value, of decpt and the digits after the ".".  Each of
    the three words is a contiguous row until the rows are interleaved into
    the text; ``sig`` is overwritten.
    """
    shifts, masks = _layout()
    words = np.empty((3, len(sig)), dtype=np.uint64)
    index = _digit_words(sig, words)  # the digits' trailing zeros
    np.copyto(sig, decpt)
    # the digits after the ".": 17, less the trailing zeros, less decpt (the zeros before the first digit, less the
    # digits before the "."), one at least
    np.subtract(17, index, out=index)
    index -= sig
    np.maximum(index, 1, out=index)
    sig += 3
    sig *= 21
    index += sig
    spare, word, moved = sig.view(np.uint64), np.empty_like(words[0]), np.empty_like(words[0])
    for j, (before, after, dot) in enumerate(masks):
        # the row from its first digit on, with its leading zeros; then the same one byte further, past the "."
        for shifted, (right, left) in ((word, shifts[:2]), (moved, shifts[2:])):
            np.right_shift(words[j], right.take(index, out=spare, mode="clip"), out=shifted)
            if j < 2:
                shifted |= np.left_shift(words[j + 1], left.take(index, out=spare, mode="clip"), out=spare)
        word &= before.take(index, out=spare, mode="clip")
        moved &= after.take(index, out=spare, mode="clip")
        word |= moved
        np.bitwise_or(word, dot.take(index, out=spare, mode="clip"), out=words[j])
    del index, spare, word, moved, shifted
    return np.ascontiguousarray(words.T).view("S24").ravel()


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """``_positional``'s tables, by (decpt + 3) * 21 + the digits after the ".".

    The shifts are the right and left ones that make a digit word from two
    neighbouring ones: the row from its first digit on, after the zeros
    written before it, and the same row one byte further.  The masks are,
    for each of a row's three words, its bytes before the ".", its bytes
    after the "." up to the text's end, and the "." itself.
    """
    decpt, after = np.divmod(np.arange(20 * 21), 21)
    decpt -= 3
    move = (7 - np.maximum(1 - decpt, 0)) * 8  # in bits: 7 bytes less the zeros before the first digit
    shifts = np.stack([move, 64 - move, move - 8, 72 - move]).astype(np.uint64)
    dot = np.maximum(decpt, 1)[:, None]  # the digits before "."
    end = np.minimum(dot + 1 + after[:, None], 24)
    byte = np.arange(24).reshape(3, 1, 8)  # each word's bytes
    masks = np.stack([255 * (byte < dot), 255 * ((byte > dot) & (byte < end)), 46 * (byte == dot)], axis=1)
    return shifts, np.ascontiguousarray(masks, dtype=np.uint8).view("<u8")[..., 0]


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII bytes of "0000".."9999" as little-endian words, each with its trailing zeros (4 for 0) in its
    upper 32 bits.

    Built on first use: building the kernel's tables grows the process by
    ~0.3 MB (the first numpy calls of a kind), which one that writes no
    large float table need not pay.
    """
    ascii_digits = np.arange(48, 58, dtype=np.uint64)
    quads = (ascii_digits[:, None, None, None] | ascii_digits[:, None, None] << np.uint64(8)
             | ascii_digits[:, None] << np.uint64(16) | ascii_digits << np.uint64(24)).ravel()
    for step in (10, 100, 1000, 10**4):
        quads[::step] += np.uint64(1 << 32)
    return quads


def _digit_words(sig: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write the 17 digits' ASCII bytes into the three rows of ``words``, as the little-endian words "0000000d"
    "dddddddd" "dddddddd", and return their trailing zeros (intp).

    The digits are looked up four at a time, from ``_quads``; a quad's
    trailing zeros count where every quad after it is 0000.  The rows not
    yet written, and ``sig``, are the scratch.
    """
    quads = _quads()
    first, scratch = words[0].view(np.int64), words[1].view(np.int64)
    top = sig // 10**8  # the first 9 digits
    sig -= np.multiply(top, 10**8, out=scratch)  # the last 8
    np.floor_divide(top, 10**8, out=first)
    top -= np.multiply(first, 10**8, out=scratch)  # digits 2 to 9
    quads.take(first, out=words[0], mode="clip")
    words[0] <<= _32
    words[0] |= np.uint64(0x30303030)
    zeros = np.empty(len(sig), dtype=np.intp)
    seen = zeros.view(np.uint64)  # the trailing zeros of the quads looked up so far, from the last one back
    for j, half in ((2, sig), (1, top)):
        lower, upper, spare = half.view(np.uint64), words[j], words[1] if j == 2 else sig.view(np.uint64)
        np.floor_divide(half, 10**4, out=upper.view(np.int64))
        half -= np.multiply(upper.view(np.int64), 10**4, out=spare.view(np.int64))
        quads.take(half, out=lower, mode="clip")
        quads.take(upper.view(np.int64), out=upper, mode="clip")
        for later, quad in enumerate((lower, upper), 2 * (2 - j)):  # the quads after this one
            if later:
                np.right_shift(quad, _32, out=spare)
                spare *= seen == 4 * later
                seen += spare
            else:
                np.right_shift(quad, _32, out=seen)
        lower <<= _32
        upper &= _U32
        upper |= lower
    return zeros
