import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdematel.errors import BundleValidationError, ParseError
from rdematel.fixtures import load_first_expert_matrix, load_study_bundle
from rdematel.ingest import (
    CriterionMeta,
    RespondentMeta,
    StudyBundle,
    parse_expert_csv,
    parse_study_bundle,
    write_bundle,
)
from rdematel.pipeline import ExpertMatrix, Scale

CSV_OK = ",A,B\nA,0,3\nB,2,0\n"


def make_raw_bundle(n=3, m=4, seed=11):
    rng = np.random.default_rng(seed)
    criteria = [CriterionMeta(f"C{i}", name=f"crit {i}") for i in range(n)]
    respondents = [RespondentMeta(f"R{k}", role="academic" if k % 2 else "practitioner") for k in range(m)]
    matrices = {}
    for r in respondents:
        v = rng.integers(0, 5, size=(n, n))
        np.fill_diagonal(v, 0)
        matrices[r.id] = ExpertMatrix(expert_id=r.id, values=v)
    return StudyBundle(criteria=criteria, respondents=respondents, matrices=matrices)


class TestExpertCsv:
    def test_simple_matrix(self):
        m = parse_expert_csv(CSV_OK, expert_id="e1")
        assert m.expert_id == "e1"
        assert m.values.tolist() == [[0, 3], [2, 0]]

    def test_reference_fixture_entry(self):
        m = load_first_expert_matrix()
        assert m.n == 7
        assert m.values[0, 1] == 4  # (I1, I2)

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
        assert m.values.tolist() == [[0, 3], [2, 0]]

    def test_custom_scale(self):
        m = parse_expert_csv(",A,B\nA,0,9\nB,2,0\n", scale=Scale(0, 9))
        assert m.values[0, 1] == 9

    def test_scale_above_zero_checks_only_off_diagonal(self):
        m = parse_expert_csv(",A,B\nA,0,9\nB,1,0\n", scale=Scale(1, 9))
        assert m.values.tolist() == [[0, 9], [1, 0]]
        with pytest.raises(ParseError, match="row 2, column A: value 0 outside scale 1..9"):
            parse_expert_csv(",A,B\nA,0,9\nB,0,0\n", scale=Scale(1, 9))


class TestBundleParsing:
    def test_reference_fixture_is_aggregate_mode(self):
        b = load_study_bundle()
        assert b.n == 7
        assert len(b.respondents) == 21
        assert b.matrices is None
        assert b.rough_group is not None
        assert b.rough_group.lower[0, 1] == pytest.approx(1.8186)

    def test_raw_mode_round_trip(self):
        b = make_raw_bundle()
        b2 = parse_study_bundle(write_bundle(b))
        assert b2.criteria == b.criteria
        assert b2.respondents == b.respondents
        assert set(b2.matrices) == set(b.matrices)
        for rid in b.matrices:
            assert np.array_equal(b2.matrices[rid].values, b.matrices[rid].values)

    def test_aggregate_round_trip(self):
        b = load_study_bundle()
        b2 = parse_study_bundle(write_bundle(b))
        assert np.array_equal(b2.rough_group.lower, b.rough_group.lower)
        assert np.array_equal(b2.rough_group.upper, b.rough_group.upper)
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

    @pytest.mark.parametrize("cell", [1.7, "3", True], ids=["float", "string", "bool"])
    def test_non_integer_matrix_cell_named(self, cell):
        doc = json.loads(write_bundle(make_raw_bundle(n=3, m=2)))
        doc["matrices"]["R1"][2][0] = cell
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [f"matrices[R1]: non-integer cell (C2,C0) {json.dumps(cell)}"]

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

    @pytest.mark.parametrize("key, value", [("min", 0.7), ("min", "0"), ("max", True)], ids=["float", "string", "bool"])
    def test_non_integer_scale_bound_named(self, key, value):
        doc = json.loads(write_bundle(make_raw_bundle()))
        doc["scale"][key] = value
        with pytest.raises(BundleValidationError) as exc_info:
            parse_study_bundle(json.dumps(doc))
        assert exc_info.value.errors == [f"scale.{key}: {json.dumps(value)} is not an integer"]

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
    @given(names, names, st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
    def test_unicode_names_round_trip(self, name, desc, n, m):
        b = make_raw_bundle(n=n, m=m)
        b.criteria[0] = CriterionMeta(b.criteria[0].id, name=name, description=desc)
        data = write_bundle(b)
        b2 = parse_study_bundle(data)
        assert b2.criteria[0].name == name
        assert b2.criteria[0].description == desc
        assert write_bundle(b2) == data
