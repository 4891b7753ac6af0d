import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdematel.errors import BundleValidationError, InvalidArgumentError, ParseError
from rdematel.fixtures import _read, load_study_bundle
from rdematel.ingest import (
    CriterionMeta,
    RespondentMeta,
    Scale,
    StudyBundle,
    parse_expert_csv,
    parse_study_bundle,
    write_bundle,
)

CSV_OK = ",A,B\nA,0,3\nB,2,0\n"


def make_raw_bundle(n=3, m=4, seed=11):
    rng = np.random.default_rng(seed)
    criteria = [CriterionMeta(f"C{i}", name=f"crit {i}") for i in range(n)]
    respondents = [RespondentMeta(f"R{k}", role="academic" if k % 2 else "practitioner") for k in range(m)]
    panel = rng.integers(0, 5, size=(m, n, n))
    panel[:, range(n), range(n)] = 0
    return StudyBundle(criteria=criteria, respondents=respondents, panel=panel)


def bundle_doc(b):
    """The document write_bundle serializes, as a dict for the stdlib encoder."""
    doc = {
        "scale": {"min": b.scale.minimum, "max": b.scale.maximum},
        "criteria": [vars(c) for c in b.criteria],
        "respondents": [vars(r) for r in b.respondents],
    }
    if b.panel is not None:
        doc["matrices"] = {r.id: g.tolist() for r, g in zip(b.respondents, b.panel)}
    if b.rough_group is not None:
        doc["rough_group"] = b.rough_group.tolist()
    return doc


class TestExpertCsv:
    def test_simple_matrix(self):
        m = parse_expert_csv(CSV_OK)
        assert m.dtype == np.int64
        assert m.tolist() == [[0, 3], [2, 0]]

    def test_reference_fixture_entry(self):
        m = parse_expert_csv(_read("expert1_direct_relation.csv"))
        assert m.shape == (7, 7)
        assert m[0, 1] == 4  # (I1, I2)

    def test_nonzero_diagonal_named(self):
        with pytest.raises(ParseError, match="diagonal"):
            parse_expert_csv(",A,B\nA,1,3\nB,2,0\n")

    def test_scale_violation_named(self):
        with pytest.raises(ParseError, match="outside scale"):
            parse_expert_csv(",A,B\nA,0,5\nB,2,0\n")

    def test_non_integer_cell(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_expert_csv(",A,B\nA,0,x\nB,2,0\n")

    def test_row_id_mismatch(self):
        with pytest.raises(ParseError, match="row id"):
            parse_expert_csv(",A,B\nB,0,3\nA,2,0\n")

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            parse_expert_csv(",A,B\nA,0,3\n")

    def test_crlf_normalized(self):
        m = parse_expert_csv(CSV_OK.replace("\n", "\r\n"))
        assert m.tolist() == [[0, 3], [2, 0]]

    def test_custom_scale(self):
        m = parse_expert_csv(",A,B\nA,0,9\nB,2,0\n", scale=Scale(0, 9))
        assert m[0, 1] == 9

    def test_scale_above_zero_checks_only_off_diagonal(self):
        m = parse_expert_csv(",A,B\nA,0,9\nB,1,0\n", scale=Scale(1, 9))
        assert m.tolist() == [[0, 9], [1, 0]]
        with pytest.raises(ParseError) as exc:
            parse_expert_csv(",A,B\nA,0,9\nB,0,0\n", scale=Scale(1, 9))
        assert str(exc.value) == "cell (B,A) = 0 outside scale 1..9"

    @pytest.mark.parametrize(
        "text, message",
        [
            (",A,B\nA,0,x\nB,2,0\n", 'non-integer cell (A,B) "x"'),
            (",A,B\nA,1,3\nB,2,0\n", "cell (A,A) = 1 on the diagonal, must be 0"),
            (f",A,B\nA,0,{2**70}\nB,2,0\n", "cell (A,B) = 1180591620717411303424 outside scale 0..4"),
            (",A,B\nA,0,x\nC,2,0\n", "row 2: row id 'C' does not match header id 'B'"),
        ],
        ids=["non-integer", "diagonal", "beyond-64-bits", "row-before-cell"],
    )
    def test_cell_faults_take_bundle_wording(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_expert_csv(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            (",A,A\nA,0,1\nA,1,0\n", "header[1]: duplicate id 'A'"),
            (",A,,B\nA,0,1,2\n,1,0,3\nB,1,1,0\n", "header[1]: missing id"),
        ],
        ids=["duplicate-id", "missing-id"],
    )
    def test_header_ids_follow_bundle_rule(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_expert_csv(text)
        assert str(exc.value) == message


class TestBundleParsing:
    def test_reference_fixture_is_aggregate_mode(self):
        b = load_study_bundle()
        assert b.n == 7
        assert len(b.respondents) == 21
        assert b.panel is None
        assert b.rough_group is not None
        assert b.rough_group.shape == (7, 7, 2) and b.rough_group.dtype == float
        assert b.rough_group[0, 1, 0] == pytest.approx(1.8186)

    def test_raw_mode_round_trip(self):
        b = make_raw_bundle()
        b2 = parse_study_bundle(write_bundle(b))
        assert b2.criteria == b.criteria
        assert b2.respondents == b.respondents
        assert b2.panel.dtype == np.int64
        assert np.array_equal(b2.panel, b.panel)

    @pytest.mark.parametrize("mode", ["raw", "aggregate"])
    def test_write_matches_stdlib_encoder(self, mode):
        b = make_raw_bundle(n=4, m=3) if mode == "raw" else load_study_bundle()
        b.criteria[0] = CriterionMeta(b.criteria[0].id, name="\u00e9t\u00e9 \"q\"\n")
        assert write_bundle(b) == (json.dumps(bundle_doc(b), indent=2, ensure_ascii=False) + "\n").encode()

    def test_write_rejects_panel_respondent_mismatch(self):
        repeated = make_raw_bundle(n=2, m=2)
        repeated.respondents[1] = RespondentMeta(repeated.respondents[0].id)
        extra_slice = make_raw_bundle(n=2, m=2)
        extra_slice.panel = np.concatenate([extra_slice.panel, extra_slice.panel[:1]])
        for b in (repeated, extra_slice):
            with pytest.raises(InvalidArgumentError, match="one panel slice per respondent"):
                write_bundle(b)

    def test_write_rejects_what_parse_rejects(self):
        wide = make_raw_bundle(n=2, m=2)
        wide.panel = np.ones((2, 3, 3), dtype=np.int64)
        off_scale = make_raw_bundle(n=3, m=2)
        off_scale.panel[1, 0, 2] = 9
        floats = make_raw_bundle(n=2, m=2)
        floats.panel = floats.panel.astype(float)
        reversed_group = load_study_bundle()
        reversed_group.rough_group = reversed_group.rough_group.copy()
        reversed_group.rough_group[2, 1] = [1.5, 1.0]
        for b, error in [
            (wide, "matrices[R0]: shape (3, 3) does not match 2 criteria"),
            (off_scale, "matrices[R1]: cell (C0,C2) = 9 outside scale 0..4"),
            (floats, "panel: judgments must be integers, got dtype float64"),
            (reversed_group, "rough_group: entry (2,1) has lower 1.5 > upper 1.0"),
        ]:
            with pytest.raises(InvalidArgumentError) as exc_info:
                write_bundle(b)
            assert str(exc_info.value) == error

    def test_write_without_criteria(self):
        b = StudyBundle(criteria=[], respondents=[RespondentMeta("r")], panel=np.zeros((1, 0, 0), dtype=np.int64))
        assert json.loads(write_bundle(b))["matrices"] == {"r": []}

    def test_panel_is_in_respondent_order(self):
        b = make_raw_bundle(n=3, m=3)
        doc = json.loads(write_bundle(b))
        doc["matrices"] = dict(reversed(doc["matrices"].items()))
        assert np.array_equal(parse_study_bundle(json.dumps(doc)).panel, b.panel)

    def test_aggregate_round_trip(self):
        b = load_study_bundle()
        b2 = parse_study_bundle(write_bundle(b))
        assert np.array_equal(b2.rough_group, b.rough_group)
        assert b2.criteria == b.criteria

    def test_reserialization_is_byte_stable(self):
        b = load_study_bundle()
        data = write_bundle(b)
        assert write_bundle(parse_study_bundle(data)) == data

    def test_empty_criteria_rejected(self):
        with pytest.raises(BundleValidationError, match="criteria"):
            parse_study_bundle(json.dumps({"criteria": [], "respondents": [], "rough_group": []}))

    def test_not_json(self):
        with pytest.raises(BundleValidationError, match="JSON"):
            parse_study_bundle(b"\x00 nonsense {")

    def test_both_modes_rejected(self):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["rough_group"] = [[[0, 0]] * 3] * 3
        with pytest.raises(BundleValidationError, match="exactly one"):
            parse_study_bundle(json.dumps(doc))

    def test_neither_mode_rejected(self):
        doc = json.loads(write_bundle(make_raw_bundle()))
        del doc["matrices"]
        with pytest.raises(BundleValidationError, match="exactly one"):
            parse_study_bundle(json.dumps(doc))

    def test_multi_fault_reports_every_violation(self):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc["criteria"][1]["id"] = doc["criteria"][0]["id"]  # duplicate id
        doc["matrices"]["ghost"] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # dangling respondent
        doc["matrices"]["R0"] = [[0, 1], [1, 0]]  # dimension mismatch
        doc["respondents"][1]["role"] = "alien"  # unknown role
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        msgs = exc_info.value.errors
        assert len(msgs) >= 4
        assert any("duplicate" in m for m in msgs)
        assert any("dangling" in m for m in msgs)
        assert any("shape" in m for m in msgs)
        assert any("role" in m for m in msgs)

    @pytest.mark.parametrize("criteria", ["read", "not-a-list"])
    def test_error_order_is_pinned(self, criteria):
        # scale, criteria, respondents, mode, then each matrices fault in document order, then rough_group
        ok = [[0, 1, 2], [3, 0, 4], [1, 1, 0]]
        doc = {
            "scale": [0, 4],
            "criteria": [{"id": "A"}, {"id": "A"}, {"id": "B", "name": 7}, {"id": "C", "category": "alien"}],
            "respondents": [{"id": r} for r in ("R0", "R1", "R1", "R2", "R3", "R4", "R5")],
            "matrices": {
                "R4": [[0, 1, 2], [3, 2, 4], [1, 1, 0]],
                "ghost": ok,
                "R0": [[0, 1, 2], [3, 0], [1, 1, 0]],
                "R1": [[0, 1, 2], [3, 0, 4], [1.5, 1, 0]],
                "R2": ok,
                "R3": [[0, 1, 9], [3, 0, 4], [1, 1, 0]],
            },
            "rough_group": [[[0, 0], [1, 2]], [[1, 2], [0, 0]]],
        }
        ragged = (
            "matrices[R0]: setting an array element with a sequence. The requested array has an inhomogeneous"
            " shape after 1 dimensions. The detected shape was (3,) + inhomogeneous part."
        )
        if criteria == "read":
            middle = [
                "criteria[1]: duplicate id 'A'",
                "criteria[2]: name must be a string",
                "criteria[3] (C): unknown category 'alien'",
            ]
            grids = [
                "matrices[R4]: cell (B,B) = 2 on the diagonal, must be 0",
                ragged,
                "matrices[R1]: non-integer cell (C,A) 1.5",
                "matrices[R3]: cell (A,C) = 9 outside scale 0..4",
                "rough_group: is 2x2 but 3 criteria given",
            ]
        else:  # no criteria are read, so every grid that is not ragged has the wrong shape
            doc["criteria"] = {"id": "A"}
            middle = ["criteria: must be a list of objects", "criteria: list is empty or missing"]
            grids = [f"matrices[{rid}]: shape (3, 3) does not match 0 criteria" for rid in doc["matrices"]]
            grids[2] = ragged
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [
            "scale: must be an object with min/max",
            *middle,
            "respondents[2]: duplicate id 'R1'",
            "bundle must carry exactly one of 'matrices' or 'rough_group'",
            "matrices[ghost]: dangling respondent reference",
            "matrices: no matrix for respondent R5",
            *grids,
        ]

    @pytest.mark.parametrize("cell", [1.7, "3", True], ids=["float", "string", "bool"])
    def test_non_integer_matrix_cell_named(self, cell):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc["matrices"]["R1"][2][0] = cell
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [f"matrices[R1]: non-integer cell (C2,C0) {json.dumps(cell)}"]

    @pytest.mark.parametrize(
        "cells, fault",
        [
            ({(2, 0): 1.0}, "non-integer cell (C2,C0) 1.0"),
            ({(2, 0): "3"}, 'non-integer cell (C2,C0) "3"'),
            ({(0, 1): 9, (1, 0): "x"}, "cell (C0,C1) = 9 outside scale 0..4"),
            ({(2, 0): 2**70}, "cell (C2,C0) = 1180591620717411303424 outside scale 0..4"),
        ],
        ids=["float", "string", "off-scale-before-string", "beyond-64-bits"],
    )
    def test_non_int64_panel_names_respondent(self, cells, fault):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=3)))
        for (i, j), cell in cells.items():
            doc["matrices"]["R1"][i][j] = cell
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [f"matrices[R1]: {fault}"]

    def test_ragged_grid_names_respondent(self):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=3)))
        doc["matrices"]["R2"][1].append(0)
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        [error] = exc_info.value.errors
        assert error.startswith("matrices[R2]: ") and "inhomogeneous" in error

    def test_boolean_token_outside_the_panel_still_parses(self):
        b = make_raw_bundle(n=3, m=2)
        b.criteria[0] = CriterionMeta("C0", description="true or false")
        parsed = parse_study_bundle(write_bundle(b))
        assert np.array_equal(parsed.panel, b.panel)
        doc = json.loads(write_bundle(b))
        doc["criteria"][1]["tag"] = False
        doc["matrices"]["R0"][0][1] = True
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == ["matrices[R0]: non-integer cell (C0,C1) true"]

    def test_range_and_diagonal_faults_name_every_respondent_and_cell(self):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=4)))
        doc["matrices"]["R3"][0][2] = 9
        doc["matrices"]["R3"][2][1] = -1
        doc["matrices"]["R0"][1][1] = 2
        doc["matrices"]["R1"][2][0] = 5
        doc["matrices"]["R2"] = [[0, 1], [1, 0]]
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [
            "matrices[R0]: cell (C1,C1) = 2 on the diagonal, must be 0",
            "matrices[R1]: cell (C2,C0) = 5 outside scale 0..4",
            "matrices[R2]: shape (2, 2) does not match 3 criteria",
            "matrices[R3]: cell (C0,C2) = 9 outside scale 0..4",
        ]

    @pytest.mark.parametrize(
        "cell, bound, message",
        [
            ((1, 2, 1), float("nan"), r"non-finite bound in cell \(1,2\)"),
            ((1, 2, 1), "0.5", "bounds must be numbers"),
            ((1, 2, 0), -0.1, r"negative bound in cell \(1,2\)"),
            ((3, 3, 1), 0.1, r"non-zero diagonal in cell \(3,3\)"),
            ((1, 2, 0), True, r"boolean bound in cell \(1,2\)"),
        ],
        ids=["nan", "string", "negative", "diagonal", "bool"],
    )
    def test_bad_rough_bound_rejected(self, cell, bound, message):
        doc = json.loads(write_bundle(load_study_bundle()))
        i, j, k = cell
        doc["rough_group"][i][j][k] = bound
        with pytest.raises(BundleValidationError, match=message):
            parse_study_bundle(json.dumps(doc))

    def test_negative_scale_minimum_rejected(self):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["scale"]["min"] = -1
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == ["scale: scale minimum must be non-negative"]

    def test_scale_bound_beyond_int64_rejected(self):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["scale"]["max"] = 2**70
        doc["matrices"]["R1"][0][1] = 2**65
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [
            "scale: scale maximum must be at most 9223372036854775807",
            "matrices[R1]: cell (C0,C1) = 36893488147419103232 outside scale 0..4",
        ]

    def test_scale_bound_at_int64_max_parses(self):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["scale"]["max"] = 2**63 - 1
        doc["matrices"]["R1"][0][1] = 2**63 - 1
        b = parse_study_bundle(json.dumps(doc))
        assert b.scale == Scale(0, 2**63 - 1)
        assert b.panel[1, 0, 1] == 2**63 - 1

    @pytest.mark.parametrize("key, value", [("min", 0.7), ("min", "0"), ("max", True)], ids=["float", "string", "bool"])
    def test_non_integer_scale_bound_named(self, key, value):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["scale"][key] = value
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [f"scale.{key}: {json.dumps(value)} is not an integer"]

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("criteria", "id", 1),
            ("criteria", "id", True),
            ("criteria", "id", None),
            ("criteria", "name", 7),
            ("criteria", "description", ["x"]),
            ("respondents", "id", 2),
            ("respondents", "description", False),
        ],
        ids=["criterion-id-int", "criterion-id-bool", "criterion-id-null", "criterion-name-int",
             "criterion-description-list", "respondent-id-int", "respondent-description-bool"],
    )
    def test_non_string_text_field_named(self, where, key, value):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc[where][1][key] = value
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors[0] == f"{where}[1]: {key} must be a string"

    def test_validation_is_total(self):
        # any bytes give either a bundle or a diagnostic list, never a crash
        for junk in (b"", b"[1,2,3]", b'{"criteria": 5}', bytes(range(256)), b"[" * 200000 + b"]" * 200000):
            try:
                parse_study_bundle(junk)
            except BundleValidationError as exc:
                assert exc.errors
            except Exception as exc:  # pragma: no cover
                pytest.fail(f"unexpected {type(exc).__name__}: {exc}")


names = st.text(min_size=0, max_size=20).filter(lambda s: "\x00" not in s)


class TestRoundTripProperty:
    @settings(max_examples=50, deadline=None)
    @given(names, names, st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4))
    def test_unicode_names_round_trip(self, name, desc, n, m):
        b = make_raw_bundle(n=n, m=m)
        b.criteria[0] = CriterionMeta(b.criteria[0].id, name=name, description=desc)
        data = write_bundle(b)
        b2 = parse_study_bundle(data)
        assert b2.criteria[0].name == name
        assert b2.criteria[0].description == desc
        assert write_bundle(b2) == data


@st.composite
def judgment_grids(draw):
    """A scale and an n x n grid of Python ints: on and off the scale, negative, beyond 64 bits."""
    n = draw(st.integers(2, 4))
    lo = draw(st.integers(0, 2))
    hi = draw(st.integers(lo + 1, 5))
    beyond_64_bits = st.sampled_from([2**63, 2**70, -(2**64)])
    cells = st.one_of(st.integers(lo, hi), st.integers(-1, hi + 1), st.integers(), beyond_64_bits)
    grid = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        for i in range(n):
            grid[i][i] = 0
    return Scale(lo, hi), grid


class TestOneGridRule:
    @settings(max_examples=200, deadline=None)
    @given(judgment_grids())
    def test_bundle_csv_and_write_agree(self, scale_grid):
        # each entry point gives the grid back, or the same fault text after its own prefix
        scale, grid = scale_grid
        ids = [f"C{i}" for i in range(len(grid))]
        doc = {
            "scale": {"min": scale.minimum, "max": scale.maximum},
            "criteria": [{"id": c} for c in ids],
            "respondents": [{"id": "R0"}, {"id": "R1"}],
            "matrices": {"R0": grid, "R1": grid},
        }
        try:
            panel = parse_study_bundle(json.dumps(doc)).panel
            assert panel.tolist() == [grid, grid]
            want = grid
        except BundleValidationError as exc:
            want = exc.errors[0].removeprefix("matrices[R0]: ")
            assert exc.errors == [f"matrices[R0]: {want}", f"matrices[R1]: {want}"]

        text = "," + ",".join(ids) + "\n" + "".join(f"{c},{','.join(map(str, row))}\n" for c, row in zip(ids, grid))
        try:
            got = parse_expert_csv(text, scale).tolist()
        except ParseError as exc:
            got = str(exc)
        assert got == want

        if all(-(2**63) <= v < 2**63 for row in grid for v in row):
            b = StudyBundle([CriterionMeta(c) for c in ids], [RespondentMeta("R0"), RespondentMeta("R1")], scale,
                            panel=np.array([grid, grid], dtype=np.int64))
            try:
                got = parse_study_bundle(write_bundle(b)).panel[0].tolist()
            except InvalidArgumentError as exc:
                got = str(exc).removeprefix("matrices[R0]: ")
            assert got == want
