import contextlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdematel import ingest
from rdematel.errors import BundleValidationError, InvalidArgumentError, ParseError
from rdematel.fixtures import _read, load_study_bundle
from rdematel.ingest import (
    CATEGORIES,
    ROLES,
    CriterionMeta,
    RespondentMeta,
    Scale,
    StudyBundle,
    bundle_chunks,
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


def rejected_bundles():
    """(id, bundle, the parser's first error) for bundles whose ids, counts, enums or mode the parser rejects."""
    duplicate = make_raw_bundle()
    duplicate.criteria[1] = CriterionMeta("C0")
    one_criterion = StudyBundle(criteria=[CriterionMeta("A")], respondents=[], rough_group=np.zeros((1, 1, 2)))
    no_criteria = StudyBundle(criteria=[], respondents=[RespondentMeta("r")], panel=np.zeros((1, 0, 0), dtype=np.int64))
    category = make_raw_bundle()
    category.criteria[1] = CriterionMeta("C1", category="alien")
    role = make_raw_bundle()
    role.respondents[0] = RespondentMeta("R0", role="alien")
    neither = make_raw_bundle()
    neither.panel = None
    both = make_raw_bundle()
    both.rough_group = np.zeros((3, 3, 2))
    mode = "bundle must carry exactly one of 'matrices' or 'rough_group'"
    return [
        ("duplicate-criterion", duplicate, "criteria[1]: duplicate id 'C0'"),
        ("one-criterion", one_criterion, "criteria: DEMATEL needs at least two criteria, got 1"),
        ("no-criteria", no_criteria, "criteria: list is empty or missing"),
        ("one-respondent", make_raw_bundle(m=1), "respondents: raw mode needs at least two experts, got 1"),
        ("unknown-category", category, "criteria[1] (C1): unknown category 'alien'"),
        ("unknown-role", role, "respondents[0] (R0): unknown role 'alien'"),
        ("neither-mode", neither, mode),
        ("both-modes", both, mode),
    ]


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

    @pytest.mark.parametrize("text", ["", "\n , \n\n"], ids=["empty", "blank-rows"])
    def test_empty_file_named(self, text):
        with pytest.raises(ParseError) as exc:
            parse_expert_csv(text)
        assert str(exc.value) == "empty CSV file"

    def test_row_with_wrong_cell_count_named(self):
        with pytest.raises(ParseError) as exc:
            parse_expert_csv(",A,B\nA,0,3,1\nB,2,0\n")
        assert str(exc.value) == "row 1: expected 3 cells, found 4"

    def test_crlf_normalized(self):
        m = parse_expert_csv(CSV_OK.replace("\n", "\r\n"))
        assert m.tolist() == [[0, 3], [2, 0]]

    def test_byte_order_mark_dropped(self):
        # Excel's "CSV UTF-8" export starts with one
        assert parse_expert_csv(b"\xef\xbb\xbf,A,B\nA,0,1\nB,2,0\n").tolist() == [[0, 1], [2, 0]]

    def test_bytes_that_are_not_utf8_named(self):
        with pytest.raises(ParseError, match="^not valid UTF-8: "):
            parse_expert_csv(b"\xff,A,B\nA,0,1\nB,2,0\n")

    def test_signed_ascii_digits_read_as_integers(self):
        assert parse_expert_csv(",A,B\nA,0,+3\nB,02,0\n").tolist() == [[0, 3], [2, 0]]

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
            # int() alone would read these as 10, 3 and 3
            (",A,B\nA,0,1_0\nB,2,0\n", 'non-integer cell (A,B) "1_0"'),
            (",A,B\nA,0,\u0663\nB,2,0\n", 'non-integer cell (A,B) "\\u0663"'),
            (",A,B\nA,0,\uff13\nB,2,0\n", 'non-integer cell (A,B) "\\uff13"'),
            (",A,B\nA,1,3\nB,2,0\n", "cell (A,A) = 1 on the diagonal, must be 0"),
            (f",A,B\nA,0,{2**70}\nB,2,0\n", "cell (A,B) = 1180591620717411303424 outside scale 0..4"),
            (",A,B\nA,0,x\nC,2,0\n", "row 2: row id 'C' does not match header id 'B'"),
        ],
        ids=["non-integer", "underscore", "arabic-indic-digit", "fullwidth-digit", "diagonal", "beyond-64-bits",
             "row-before-cell"],
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
        assert b2.panel.dtype == np.int8  # the narrowest panel dtype: see test_panel_dtype_holds_the_scale
        assert np.array_equal(b2.panel, b.panel)

    @pytest.mark.parametrize("top, dtype", [
        (4, np.int8), (127, np.int8), (128, np.int16), (2**15 - 1, np.int16), (2**15, np.int32), (40000, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64), (2**62, np.int64), (2**63 - 1, np.int64),
    ])
    def test_panel_dtype_holds_the_scale(self, top, dtype):
        # the narrowest signed int holding -1 - top: each judgment and each difference fit
        b = make_raw_bundle()
        b.scale = Scale(0, top)
        b.panel[1, 0, 1] = top
        b2 = parse_study_bundle(write_bundle(b))
        assert b2.panel.dtype == dtype
        assert b2.panel.tolist() == b.panel.tolist()
        assert (b2.panel[1] - b2.panel[0]).tolist() == (b.panel[1] - b.panel[0]).tolist()

    def test_bundle_chunks_checks_before_the_first_chunk(self):
        b = make_raw_bundle()
        b.panel[0, 0, 1] = 5
        with pytest.raises(InvalidArgumentError, match=r"cell \(C0,C1\) = 5 outside scale 0..4"):
            bundle_chunks(b)  # raised before a chunk is taken, so no writer opens its file

    @pytest.mark.parametrize("mode", ["raw", "aggregate"])
    def test_write_matches_stdlib_encoder(self, mode):
        b = make_raw_bundle(n=4, m=3) if mode == "raw" else load_study_bundle()
        b.criteria[0] = CriterionMeta(b.criteria[0].id, name="\u00e9t\u00e9 \"q\"\n")
        assert write_bundle(b) == (json.dumps(bundle_doc(b), ensure_ascii=False) + "\n").encode()

    def test_write_rejects_panel_respondent_mismatch(self):
        repeated = make_raw_bundle(n=2, m=2)
        repeated.respondents[1] = RespondentMeta(repeated.respondents[0].id)
        with pytest.raises(InvalidArgumentError) as exc_info:
            write_bundle(repeated)
        assert str(exc_info.value) == "respondents[1]: duplicate id 'R0'"
        extra_slice = make_raw_bundle(n=2, m=2)
        extra_slice.panel = np.concatenate([extra_slice.panel, extra_slice.panel[:1]])
        with pytest.raises(InvalidArgumentError, match="one panel slice per respondent"):
            write_bundle(extra_slice)
        with pytest.raises(InvalidArgumentError) as exc_info:  # a 0-d panel has no slices at all
            write_bundle(StudyBundle(extra_slice.criteria, extra_slice.respondents, panel=np.int64(3)))
        assert str(exc_info.value) == "a raw bundle needs one panel slice per respondent, got shape () for 2 respondents"

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

    @pytest.mark.parametrize("b, error", [pytest.param(*case[1:], id=case[0]) for case in rejected_bundles()])
    def test_write_rejects_what_parse_rejects_beyond_the_grids(self, b, error):
        with pytest.raises(InvalidArgumentError) as exc_info:
            write_bundle(b)
        assert str(exc_info.value) == error

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
        padded = make_raw_bundle()
        padded.criteria[0] = CriterionMeta(" C0\t", name="crit 0")
        padded.respondents[1] = RespondentMeta(" R1 ", role="academic")
        for b in (load_study_bundle(), padded):
            data = write_bundle(b)
            assert write_bundle(parse_study_bundle(data)) == data
        # the padded bundle's ids are written as the parser keeps them
        reread = parse_study_bundle(data)
        assert reread.criterion_ids[0] == "C0" and reread.respondents[1].id == "R1"

    def test_matrices_keys_follow_the_id_rule(self):
        # a key names its respondent as the respondent's own id does, stripped of surrounding whitespace
        b = make_raw_bundle(n=3, m=3)
        doc = json.loads(write_bundle(b))
        doc["respondents"][1]["id"] = " R1"
        doc["matrices"] = {" R0\t": doc["matrices"]["R0"], " R1": doc["matrices"]["R1"], "R2": doc["matrices"]["R2"]}
        parsed = parse_study_bundle(json.dumps(doc))
        assert [r.id for r in parsed.respondents] == ["R0", "R1", "R2"]
        assert np.array_equal(parsed.panel, b.panel)

    def test_two_matrices_for_one_respondent_rejected(self):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc["matrices"]["R1 "] = doc["matrices"]["R0"]
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == ["matrices[R1 ]: respondent R1 already has a matrix, at matrices[R1]"]

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

    def test_ragged_rough_group_rejected(self):
        doc = json.loads(write_bundle(load_study_bundle()))
        doc["rough_group"][1].pop()
        with pytest.raises(ValueError) as numpy_error:
            np.asarray(doc["rough_group"])
        with pytest.raises(BundleValidationError) as exc:
            parse_study_bundle(json.dumps(doc))
        assert exc.value.errors == [f"rough_group: {numpy_error.value}"]

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

    @pytest.mark.parametrize("where, key", [("criteria", "id"), ("criteria", "name"), ("respondents", "id"),
                                            ("respondents", "description")])
    def test_text_that_utf8_cannot_encode_named(self, where, key):
        # the JSON escape of a lone surrogate parses to text that no artifact could be written in
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc[where][1][key] = "B\ud800"
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors[0] == f"{where}[1]: {key} is not valid Unicode text"

    def test_byte_order_mark_dropped(self):
        data = write_bundle(make_raw_bundle())
        assert write_bundle(parse_study_bundle(b"\xef\xbb\xbf" + data)) == data

    def test_json_error_offsets_count_the_file_characters(self):
        # JSON reads "\r" as whitespace, so a bundle is parsed as the file holds it
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(b'{\r\n  "scale": }')
        assert exc_info.value.errors == ["not valid JSON: Expecting value: line 2 column 12 (char 14)"]

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
def near_valid_bundles(draw):
    """Bundles whose ids, enums, counts, mode and grids each sit on or just past a parser rule."""
    ids = st.sampled_from(["A", "B", "C", " A", ""])
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    criteria = [CriterionMeta(draw(ids), category=draw(st.sampled_from([*CATEGORIES, "x"]))) for _ in range(n)]
    respondents = [RespondentMeta(draw(ids), role=draw(st.sampled_from([*ROLES, "x"]))) for _ in range(m)]
    mode = draw(st.sampled_from(["raw", "aggregate", "both", "neither"]))
    off_diagonal = ~np.eye(n, dtype=bool)
    panel = rough_group = None
    if mode in ("raw", "both"):
        cells = draw(st.lists(st.integers(0, 4), min_size=m * n * n, max_size=m * n * n))
        panel = np.array(cells, dtype=np.int64).reshape(m, n, n) * (off_diagonal | draw(st.booleans()))
    if mode in ("aggregate", "both"):
        bounds = st.lists(st.floats(0, 2), min_size=2, max_size=2).map(sorted)
        pairs = draw(st.lists(bounds, min_size=n * n, max_size=n * n))
        rough_group = np.array(pairs, dtype=float).reshape(n, n, 2) * off_diagonal[..., None]
    return StudyBundle(criteria, respondents, Scale(), panel, rough_group)


@settings(max_examples=200, deadline=None)
@given(near_valid_bundles())
def test_parse_accepts_every_bundle_write_accepts(b):
    try:
        data = write_bundle(b)
    except InvalidArgumentError:
        event("rejected")
        return
    event("written")
    parsed = parse_study_bundle(data)
    for got, wrote in ((parsed.panel, b.panel), (parsed.rough_group, b.rough_group)):
        assert (got is None) == (wrote is None)
        assert wrote is None or np.array_equal(got, wrote)


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


def int_grid_oracle(span: str):
    """``np.array(json.loads(span))`` for a square grid of one-digit JSON ints, else None."""
    try:
        grid = json.loads(span)
    except ValueError:
        return None
    if "-" in span or not (isinstance(grid, list) and grid and all(isinstance(row, list) for row in grid)):
        return None
    if any(len(row) != len(grid) or any(type(v) is not int or v > 9 for v in row) for row in grid):
        return None
    return np.array(grid)


def translate_grid(span: bytes) -> np.ndarray | None:
    """The translate path: the uint8 grid of one-digit ints ``span`` holds once every JSON whitespace byte is deleted,
    when what is left is exactly ``[[d,...,d],...,[d,...,d]]`` for some r, checked through strided views; else None."""
    packed = span.translate(None, b" \t\n\r")
    r = math.isqrt(len(packed) // 2)  # an r x r grid packs to 2r(r + 1) + 1 bytes
    if r < 1 or len(packed) != 2 * r * (r + 1) + 1 or packed[:1] != b"[":
        return None
    rows = np.frombuffer(packed, np.uint8)[1:].reshape(r, 2 * r + 2)  # "[d,...,d]" then "," (the last row "]")
    digits = rows[:, 1:2 * r:2] - 48
    frame = np.frombuffer(b"[" + b"," * (r - 1) + b"]", np.uint8)
    ends = np.frombuffer(b"," * (r - 1) + b"]", np.uint8)
    return digits if (rows[:, ::2] == frame).all() and (rows[:, -1] == ends).all() and (digits < 10).all() else None


LAYOUTS = {"compact": {"separators": (",", ":")}, "default": {}, "indent=2": {"indent": 2}}
# one digit each, as on a Likert scale, or any width up to 2**63 - 2, which the reader leaves to json.loads
judgments = st.sampled_from([st.integers(0, 9), st.integers(0, 2**63 - 2) | st.sampled_from([10**18, 2**63 - 2])])


@st.composite
def grid_spans(draw, grid_fault=None, layouts=tuple(sorted(LAYOUTS))):
    """The JSON text of an r x r grid of ints in 0..2**63 - 2 in one of ``layouts``, or of a grid with ``grid_fault``."""
    r, cells = draw(st.integers(1, 5)), draw(judgments)
    grid = draw(st.lists(st.lists(cells, min_size=r, max_size=r), min_size=r, max_size=r))
    i = draw(st.integers(0, r - 1))
    if grid_fault == "not square":  # a column more, a row fewer or a row more
        grid = draw(st.sampled_from([[row + [0] for row in grid], grid[:-1] or [[0, 0]], grid + grid[:1]]))
    elif grid_fault == "ragged":  # a number moved to another row, so r * r remain, or a row one longer or shorter
        if r > 1 and draw(st.booleans()):
            grid[i - 1].append(grid[i].pop())
        else:
            grid[i] = grid[i] + [1] if draw(st.booleans()) else grid[i][:-1]
    elif grid_fault == "nesting":
        grid = [grid] if draw(st.booleans()) else grid[:i] + [[[v] for v in grid[i]]] + grid[i + 1:]
    return json.dumps(grid, **LAYOUTS[draw(st.sampled_from(layouts))])


def number_fault(span: str, which: int, fault: str) -> str:
    """``span`` with one of its numbers, the ``which``-th modulo their count, or the text beside it, broken."""
    numbers = list(re.finditer(r"[0-9]+", span))
    a, b = numbers[which % len(numbers)].span()
    closer = span.index("]", a)
    return {
        "leading zero": span[:a] + "0" + span[a:],
        "empty slot": span[:a] + span[b:],
        "number outside a slot": span[:a] + span[b:closer + 1] + span[a:b] + span[closer + 1:],  # [[1,]2,[3,4]]
        "whitespace inside a number": span[:a] + "1 " + span[a:],
        "minus": span[:a] + "-" + span[a:],
        "19+ digits": span[:a] + str(2**63 - 1 + which % 3 * 10**25) + span[b:],
    }[fault]


def frame_read(span: str, after: str = "") -> tuple[np.ndarray | None, str]:
    """The grid ``_frame_grid`` reads at the start of ``span``, a value in an object followed by ``after``, or None;
    and the text from the start up to where it stopped looking.  A grid read is ``int_grid_oracle``'s of that text."""
    data, start = f'{{"R0": {span}{after}'.encode(), len('{"R0": ')
    opening = ingest._GRID_OPEN.match(data, start)
    grid, stop = ingest._frame_grid(opening) if opening else (None, start)
    read = data[start:stop].decode()
    assert grid is None or (grid.dtype == np.uint8 and np.array_equal(grid, int_grid_oracle(read)))
    return grid, read


class TestIntGrid:
    """A square grid of one-digit ints, laid out row by row as its first row is, is read in place as json reads it."""

    def test_patterns_use_no_syntax_newer_than_python_3_10(self):
        # possessive quantifiers and atomic groups came in Python 3.11, where 3.10 fails to compile them
        for pattern in [v for v in vars(ingest).values() if isinstance(v, re.Pattern)]:
            source = pattern.pattern if isinstance(pattern.pattern, str) else pattern.pattern.decode("ascii")
            assert not re.search(r"[*+?}]\+|\(\?>", source), source

    @settings(max_examples=300, deadline=None)
    @given(grid_spans())
    def test_reads_a_one_digit_grid_as_json_does(self, span):
        (grid, read), want = frame_read(span), np.array(json.loads(span))
        if want.max() < 10 and len(want) > 1:
            assert read == span and np.array_equal(grid, want)
        else:  # a number of two or more digits, or a 1 x 1 grid, which opens no frame
            assert grid is None

    @settings(max_examples=300, deadline=None)
    @given(grid_spans(), st.integers(0, 99), st.sampled_from(
        ["leading zero", "empty slot", "number outside a slot", "whitespace inside a number", "minus", "19+ digits"]))
    def test_refuses_a_broken_number(self, span, which, fault):
        broken = number_fault(span, which, fault)
        assert int_grid_oracle(broken) is None
        assert frame_read(broken)[0] is None

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["not square", "ragged", "nesting"]).flatmap(lambda fault: grid_spans(fault)))
    def test_refuses_a_grid_that_is_not_square(self, span):
        assert int_grid_oracle(span) is None
        assert frame_read(span)[0] is None

    @settings(max_examples=500, deadline=None)
    @given(grid_spans() | grid_spans(layouts=("default",)),
           st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(list('0159:[], \n\t-.e"x')), st.booleans()),
                    max_size=3),
           st.sampled_from(["", " ", "]", ', "x": [[0, 1]]']))
    def test_agrees_with_json_on_any_edit(self, span, edits, after):
        for at, char, replace in edits:  # a character put in, or in place of the one there; "x" deletes
            at %= len(span) + 1
            span = span[:at] + char.replace("x", "") + span[at + (replace or char == "x"):]
        grid, read = frame_read(span, after)  # a grid read is json's grid of the text read
        event("read in place" if grid is not None else "left to json.loads")
        want = int_grid_oracle(span)
        regular = want is not None and span in [json.dumps(want.tolist(), **kw) for kw in LAYOUTS.values()]
        if regular and len(want) > 1:  # the edits left a layout json.dumps writes, of a grid that opens a frame
            assert read == span and grid is not None


def parse_outcome(data):
    """The parsed bundle's fields as plain values, or its error list."""
    try:
        b = parse_study_bundle(data)
    except BundleValidationError as exc:
        return exc.errors
    return (b.criteria, b.respondents, b.scale, None if b.panel is None else (b.panel.dtype, b.panel.tolist()))


def json_loads_outcome(data):
    """``parse_outcome(data)`` with every grid left to json.loads: the frame reads none."""
    with mock.patch.object(ingest, "_frame_grid", lambda opening: (None, opening.end())):
        return parse_outcome(data)


@contextlib.contextmanager
def frame_calls():
    """Record each call of ``_frame_grid``: where its opening starts, whether it read a grid, and where it stopped."""
    calls = []

    def frame_grid(opening, read=ingest._frame_grid):
        grid, stop = read(opening)
        calls.append((opening.start(), grid is not None, stop))
        return grid, stop

    with mock.patch.object(ingest, "_frame_grid", frame_grid):
        yield calls


def raw_doc():
    """A raw bundle document, whose grids the parser reads with numpy."""
    return json.loads(write_bundle(make_raw_bundle(n=3, m=3)))


GRID = [[0, 1], [1, 0]]
LARGE_CASES = {
    "plain": lambda doc: doc,
    "grid as scale.min": lambda doc: doc["scale"].update(min=GRID),
    "grid as a category": lambda doc: doc["criteria"][1].update(category=GRID),
    "grid under an unknown key": lambda doc: doc.update(notes=GRID),
    "true in a description": lambda doc: doc["criteria"][1].update(description="true"),
    "true in a description, a cell off the scale": lambda doc: (
        doc["criteria"][1].update(description="true"), doc["matrices"]["R1"][0].__setitem__(2, 9)),
    "NaN in a description": lambda doc: doc["criteria"][1].update(description="NaN"),
    "a grid in a description": lambda doc: doc["criteria"][1].update(description="Na[[0, 1], [1, 0]]"),
    "NaN as a grid": lambda doc: doc["matrices"].update(R0=math.nan),
    "Infinity under an unknown key": lambda doc: doc.update(notes=-math.inf),
    "a cell at 2**63 - 1": lambda doc: doc["matrices"]["R0"][1].__setitem__(2, 2**63 - 1),
    "a cell beyond 64 bits": lambda doc: doc["matrices"]["R2"][2].__setitem__(0, 2**70),
    "a grid of the wrong size": lambda doc: doc["matrices"].update(R1=GRID),
    "a 1 x 1 grid": lambda doc: doc["matrices"].update(R1=[[0]]),
    "a scale above every cell": lambda doc: doc["scale"].update(min=300, max=2**63 - 1),
}


class TestLargeBundleParse:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("case", list(LARGE_CASES))
    def test_same_outcome_as_json_loads(self, case, layout):
        doc = raw_doc()
        LARGE_CASES[case](doc)
        text = json.dumps(doc, **LAYOUTS[layout])
        assert parse_outcome(text) == json_loads_outcome(text)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda text: text[:-1] + ', "matrices": {"R0": [[0, 2, 0], [1, 0, 0], [0, 3, 0]], '
                     '"R1": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "R2": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}',
                     id="a duplicated matrices key"),
        pytest.param(lambda text: text[:-1] + ', "matrices": 5}', id="matrices replaced by a number"),
        pytest.param(lambda text: text[:-1] + ', "matrices": {"R0": [[0, 2, 0], [1, 0, 0], [0, 3, 0]]]}}',
                     id="not valid JSON after a grid"),
        pytest.param(lambda text: text.replace("], [", "], \ud800[", 1), id="a lone surrogate inside a grid"),
        pytest.param(lambda text: text.replace(", ", ",\r\n "), id="CRLF newlines"),
    ])
    def test_edited_text(self, edit):
        text = edit(json.dumps(raw_doc()))
        assert parse_outcome(text) == json_loads_outcome(text)

    def test_a_grid_with_a_wider_second_cell_is_not_offered_to_the_reader(self):
        doc = raw_doc()
        doc["scale"]["max"] = 100
        for grid in doc["matrices"].values():  # each grid opens "[[0, 57", as on a scale above 9
            grid[0][1] = 57
        text = json.dumps(doc).encode()
        with mock.patch.object(ingest, "_frame_grid", wraps=ingest._frame_grid) as reader:
            outcome = parse_outcome(text)
        assert reader.call_count == 0
        assert outcome == json_loads_outcome(text)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 5), st.integers(0, 2**32), st.sampled_from([None, 0, 1, 2, 4, "\t"]),
           st.sampled_from([",", ", ", " , "]), st.sampled_from(["\n", "\r\n"]))
    def test_every_regular_layout_is_read_in_place(self, n, m, seed, indent, item, newline):
        # json.dumps writes no newline but those of its layout: one in a string is the escape "\n"
        doc = bundle_doc(make_raw_bundle(n=n, m=m, seed=seed))
        text = json.dumps(doc, indent=indent, separators=(item, ": ")).replace("\n", newline)
        with frame_calls() as calls:
            doc, _ = ingest._load_bundle_json(text)
        assert [read for _, read, _ in calls] == [True] * m
        assert [type(g) for g in doc["matrices"].values()] == [np.ndarray] * m
        assert parse_outcome(text) == json_loads_outcome(text)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_only_the_default_layout_is_read_in_place(self, layout):
        # a grid's default layout is its first row's: each grid of a bundle in any json.dumps layout keeps it and is
        # read in place, and the last grid with its last row re-laid out with another cell separator is left to
        # json.loads, with the same outcome
        b = make_raw_bundle(n=12, m=5)
        text = write_bundle(b) if layout == "default" else json.dumps(bundle_doc(b), **LAYOUTS[layout]).encode()
        with frame_calls() as calls:
            doc, _ = ingest._load_bundle_json(text)
        assert [read for _, read, _ in calls] == [True] * 5
        assert [type(g) for g in doc["matrices"].values()] == [np.ndarray] * 5
        start, _, stop = calls[-1]
        last_row = text.rindex(b"[", start, stop)
        relaid = re.sub(rb",[ \t\n\r]*", b"," if layout == "default" else b", ", text[last_row:stop])
        edited = text[:last_row] + relaid + text[stop:]
        with frame_calls() as calls:
            outcome = parse_outcome(edited)
        assert [read for _, read, _ in calls] == [True] * 4 + [False]
        assert outcome == json_loads_outcome(edited) == parse_outcome(text)

    def test_grids_are_read_as_arrays(self):
        data = json.dumps(raw_doc(), indent=2).encode()
        doc, rest = ingest._load_bundle_json(data)
        assert [type(g) for g in doc["matrices"].values()] == [np.ndarray] * 3
        assert {k: g.tolist() for k, g in doc["matrices"].items()} == json.loads(data)["matrices"]
        assert len(rest) < len(data)


def frame_bundle(n, m, top, seed):
    """A raw bundle document of n criteria and m experts on 0..top whose matrices are the placeholders "@R0@", ...,
    and each grid's text in ``json.dumps``'s default layout."""
    rng = np.random.default_rng(seed)
    doc = {"scale": {"min": 0, "max": top}, "criteria": [{"id": f"C{i}"} for i in range(n)],
           "respondents": [{"id": f"R{k}"} for k in range(m)], "matrices": {f"R{k}": f"@R{k}@" for k in range(m)}}
    grids = rng.integers(0, min(top, 9), size=(m, n, n), endpoint=True)
    grids[:, range(n), range(n)] = 0
    return json.dumps(doc), [json.dumps(g.tolist()) for g in grids]


def frame_seam_edit(grid: str, edit: str, at: int) -> str:
    """``grid``, a grid's text in the default layout, with ``edit`` made at its ``at``-th seam, modulo their count."""
    seams = [match.start() for match in re.finditer(r"\], \[", grid)] or [len(grid) - 2]
    cells = [match.start() for match in re.finditer(", ", grid)] or [len(grid) - 2]
    row, cell = seams[at % len(seams)], cells[at % len(cells)]
    return {
        "a ] one row early": grid[:row] + "]" + grid[row:],
        "no row separator": grid[:row + 1] + grid[row + 3:],
        "a wider separator": grid[:cell] + ",  " + grid[cell + 2:],
        "a compact separator": grid[:cell] + "," + grid[cell + 2:],
        "a separator's space as a digit": grid[:cell] + ",1" + grid[cell + 2:],
        "a separator's space as a newline": grid[:cell] + ",\n" + grid[cell + 2:],
        "a two-digit last cell": grid[:-3] + "1" + grid[-3:],
        "no final ]": grid[:-1],
        "a longer first row": grid.replace("]", ", 1]", 1),
    }[edit]


FRAME_EDITS = ["a ] one row early", "no row separator", "a wider separator", "a compact separator",
               "a separator's space as a digit", "a separator's space as a newline", "a two-digit last cell",
               "no final ]", "a longer first row", "the data ending inside the frame"]


class TestFrameGrid:
    """A grid laid out row by row as its first row is compared with its frame in place, with the outcome of leaving
    every grid to json.loads."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 3), st.sampled_from([4, 9, 99]), st.integers(0, 2**32))
    def test_default_layout_matches_json_loads(self, n, m, top, seed):
        text, grids = frame_bundle(n, m, top, seed)
        for k, grid in enumerate(grids):
            text = text.replace(f'"@R{k}@"', grid)
        with frame_calls() as calls:
            outcome = parse_outcome(text)
        assert [read for _, read, _ in calls] == [True] * m
        assert outcome == json_loads_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([4, 9, 99]), st.integers(0, 2**32), st.sampled_from(FRAME_EDITS),
           st.integers(0, 2), st.integers(0, 10**4))
    def test_edits_at_the_seams_match_json_loads(self, n, top, seed, edit, which, at):
        text, grids = frame_bundle(n, 3, top, seed)
        end = None
        for k, grid in enumerate(grids):
            if k == which and edit == "the data ending inside the frame":
                end = text.index(f'"@R{k}@"') + 1 + at % (len(grid) - 1)
            elif k == which:
                grid = frame_seam_edit(grid, edit, at)
            text = text.replace(f'"@R{k}@"', grid)
        text = text[:end]
        with frame_calls() as calls:
            outcome = parse_outcome(text)
        assert outcome == json_loads_outcome(text)
        assert all(stop <= start for (_, _, stop), (start, _, _) in zip(calls, calls[1:]))  # no byte compared twice

    def test_an_opening_inside_a_compared_frame_is_not_compared_again(self):
        # R0's first row gives r = 3, so its frame is three 11-byte rows, the second of which holds the "[[" of a
        # grid nested in R0; that row is not the frame's, and the nested grid, inside the bytes compared, is left to
        # json.loads: no byte is compared twice
        text = b'{"matrices": {"R0": [[0, 0, 0], [[0, 1], [1, 0]], [0, 0, 0]]}}'
        r0 = text.index(b"[[")
        with frame_calls() as calls:
            outcome = parse_outcome(text)
        assert calls == [(r0, False, r0 + 32)] and text.index(b"[[", r0 + 1) < r0 + 32
        assert outcome == json_loads_outcome(text)

    @pytest.mark.parametrize("after", [b"", b", ["])
    def test_a_long_first_row_alone_builds_no_frame(self, after):
        # the first row gives r = 10**5, whose 3 * 10**10-byte frame cannot fit in the data: nothing longer than the
        # first row is built
        data = b'{"R0": [[' + b"0, " * (10**5 - 1) + b"0]" + after
        opening = ingest._GRID_OPEN.search(data)
        tracemalloc.start()
        try:
            grid, stop = ingest._frame_grid(opening)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid is None and stop == data.index(b"]") + 1
        assert peak < 1.1 * len(data)

    @settings(max_examples=500, deadline=None)
    @given(grid_spans() | grid_spans(layouts=("default",)),
           st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(list('0159:[], \n\t-.e"x')), st.booleans()),
                    max_size=2),
           st.sampled_from(["", " ", "]", ', "x": [[0, 1]]']))
    def test_accepts_only_what_the_translate_path_reads_over_the_same_span(self, span, edits, after):
        for at, char, replace in edits:  # a character put in, or in place of the one there; "x" deletes
            at %= len(span) + 1
            span = span[:at] + char.replace("x", "") + span[at + (replace or char == "x"):]
        grid, read = frame_read(span, after)
        event("read in place" if grid is not None else "left to json.loads")
        if grid is not None:  # the whitespace-deleting reader gives the same grid for the text the frame read
            assert read.endswith("]") and np.array_equal(grid, translate_grid(read.encode()))


def invalid_byte(data: bytes, where: str) -> bytes:
    """``data`` with a 0xff byte in the first criterion id, or inside the first grid that numpy would read."""
    if where == "an id":
        return data.replace(b'"C1"', b'"C\xff1"', 1)
    edited = data.replace(b"], [", b"], \xff[", 1)
    assert edited.index(b"\xff") > data.index(b'"matrices"')
    return edited


# bundle texts that decode, parse or validate in different ways: a bundle of numpy-read grids with one edit
ENCODING_EDITS = {
    "plain": lambda text: text,
    "a byte-order mark": lambda text: "\ufeff" + text,
    "a non-ASCII id": lambda text: text.replace('"C1"', '"\u00c41"', 1),
    "a non-ASCII id, then invalid JSON": lambda text: text.replace('"C1"', '"\u00c41"', 1)[:-40],
    "a byte-order mark, then invalid JSON": lambda text: "\ufeff" + text[:-40],
    "a lone surrogate escape in a name": lambda text: text.replace('"crit 1"', '"crit \\ud8001"', 1),
    "a ragged grid": lambda text: text.replace("[[0, ", "[[0, 7, ", 1).replace(", 0]", "]", 1),
}


class TestBundleEncoding:
    """A bundle is read from its bytes and only the text around the numpy-read grids is decoded, with the
    results, offsets and messages of decoding the whole input first."""

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("where", ["an id", "a grid"])
    def test_invalid_utf8_names_the_byte_position(self, where, bom):
        data = invalid_byte(bom + write_bundle(make_raw_bundle()), where)
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(data)
        at = data.index(b"\xff")  # counted from the start of the file, byte-order mark included
        assert exc_info.value.errors == [
            f"not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_byte_order_mark_dropped_before_the_grids(self, layout):
        text = json.dumps(raw_doc(), **LAYOUTS[layout])
        want = parse_outcome(text)
        assert isinstance(want, tuple)
        assert parse_outcome(b"\xef\xbb\xbf" + text.encode()) == parse_outcome("\ufeff" + text) == want

    @pytest.mark.parametrize("edit", list(ENCODING_EDITS))
    def test_text_and_bytes_agree(self, edit):
        text = ENCODING_EDITS[edit](json.dumps(raw_doc(), ensure_ascii=False))
        assert parse_outcome(text) == parse_outcome(text.encode("utf-8", "surrogatepass"))

    def test_parse_peaks_below_one_and_a_half_bundles(self):
        # no decoded copy of the bundle: the grids are read from its bytes, and only the text around them is decoded
        data = write_bundle(make_raw_bundle(n=200, m=21))
        tracemalloc.start()
        try:
            parse_study_bundle(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data)


def assert_reprs_match(values):
    """``ingest._float_reprs`` gives ``float.__repr__``'s bytes for every value, whether the kernel covers it or not."""
    values = np.asarray(values, dtype=np.float64)
    expected = np.array([repr(v).encode() for v in values.tolist()], dtype="S24")
    got = ingest._float_reprs(values)
    wrong = np.flatnonzero(got != expected)
    assert not wrong.size, [(values[i].item(), got[i], expected[i]) for i in wrong[:5]]


def ulps_around(values, reach):
    """Each value and its neighbours up to ``reach`` ulps away on either side (all of them positive)."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).ravel().view(np.float64)


class TestFloatReprs:
    """The numpy shortest-digit kernel against ``float.__repr__``, called directly, so below the size gate too."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_floats(self, values):
        assert_reprs_match(values)

    def test_random_bit_patterns_across_the_window(self):
        # the kernel covers [1e-4, 1e15); a decade more on either side crosses both edges
        low, high = np.array([1e-5, 1e16]).view(np.int64)
        assert_reprs_match(np.random.default_rng(7).integers(low, high, 2 * 10**5).view(np.float64))

    def test_boundaries(self):
        powers = np.concatenate([ulps_around(2.0 ** np.arange(-16, 54), 2), ulps_around(10.0 ** np.arange(-6, 17), 2)])
        fixed = [
            1e-4, 9.999999999999999e-05, 1e15, 999999999999999.9, 1e16, 9999999999999998.0,  # where the form switches
            5e-324, 0.0, -0.0, 0.1, 2.0, 123456789012345.6, -0.1, 1.5e300,
            # 214980031455738.875 and 253990240696329.625 tie at the 17th digit, 982783887522191.25 at the 16th
            214980031455738.875, 253990240696329.625, 982783887522191.25,
        ]
        assert repr(214980031455738.875) == "214980031455738.88"
        assert_reprs_match(np.concatenate([powers, fixed]))

    @pytest.mark.parametrize("size", [-1, 0, 1, "2W+1"])
    def test_window_edges(self, size):
        # W - 1, W, W + 1 and 2W + 1 values: a window's last value, the next window's first and a one-value window,
        # each given a value the kernel leaves to repr or one at its own edges
        window = ingest.REPR_WINDOW
        size = 2 * window + 1 if size == "2W+1" else window + size
        rng = np.random.default_rng(size)
        values = rng.random(size) * 10.0 ** rng.integers(-5, 17, size)
        edges = [i for i in (0, window - 1, window, 2 * window) if i < size]
        values[edges] = [-0.0, 1e-4, 9.999999999999999e-05, 1e15][:len(edges)]
        expected = np.array([repr(v).encode() for v in values.tolist()], dtype="S24")
        assert_reprs_match(values)
        assert np.array_equal(ingest._json_reprs(values), expected)

    def test_one_window_peaks_below_68_bytes_a_value(self):
        # at most seven 8-byte buffers a value at once, and a few bool ones, each step written in place (~64 bytes a
        # value); a kernel that kept one more window-sized uint64 array through its peak would hold 72 or more
        rng = np.random.default_rng(5)
        values = rng.random(ingest.REPR_WINDOW) * 10.0 ** rng.integers(-4, 15, ingest.REPR_WINDOW)
        ingest._float_reprs(values)  # once untraced, so the tables built on first use are not counted
        tracemalloc.start()
        try:
            ingest._float_reprs(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 68 * values.size
