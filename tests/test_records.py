"""The value records keep their contract: read-only fields, equality by
value, hashing where every field hashes, and the exact bytes that
to_dict(), comparable(), to_json() and to_table() give the CLI.

The expected strings below are what these records printed when they
were frozen dataclasses (VerificationReport a mutable one); the
records are NamedTuples now, and none of these outputs may move.
"""

import json

import pytest

from rep3.feasible import TripleClassification, classify_triple
from rep3.graphcore import parse_graph6
from rep3.harness import VerificationReport
from rep3.solver import DeletionCertificate, solve3

from helpers import DegreeProfile, profile

EXTREMAL_8 = b"G?Cj|{"


def report():
    return VerificationReport(
        per_n={
            6: {"graph_count": 2, "min_deletion_histogram": [1, 1, 0, 0],
                "violations": [], "extremal_witnesses": []},
            5: {"graph_count": 3, "min_deletion_histogram": [1, 0, 1, 1],
                "violations": [], "extremal_witnesses": ["D]w"]},
        },
        lemma_results={
            "median_feasible": {"instances_checked": 4, "violations": []},
            "feasible_budget": {"instances_checked": 7, "violations": [],
                                "strong_form_failures": 1},
        },
        elapsed=1.23456789,
        skipped=2,
    )


def certificate():
    return solve3(parse_graph6(EXTREMAL_8))


def classification():
    return classify_triple(parse_graph6(EXTREMAL_8), (4, 6, 7))


def degree_profile():
    return profile(parse_graph6(EXTREMAL_8))


RECORDS = [
    pytest.param(certificate, "deleted", id="DeletionCertificate"),
    pytest.param(classification, "condition", id="TripleClassification"),
    pytest.param(degree_profile, "rep", id="DegreeProfile"),
    pytest.param(report, "skipped", id="VerificationReport"),
]


@pytest.mark.parametrize("make,field", RECORDS)
def test_fields_are_read_only(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make,field", RECORDS)
def test_equal_fields_compare_equal(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b


@pytest.mark.parametrize("make", [certificate, classification, degree_profile])
def test_value_records_hash(make):
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


def test_report_does_not_hash():
    # its fields are dicts, as they were when it was an unhashable dataclass
    with pytest.raises(TypeError):
        hash(report())


def test_certificate_bytes():
    c = certificate()
    assert c == DeletionCertificate(8, (0, 1, 2), (4, 6, 7), 4)
    assert repr(c) == (
        "DeletionCertificate(original_order=8, deleted=(0, 1, 2),"
        " witness=(4, 6, 7), witness_degree=4)"
    )
    assert json.dumps(c.to_dict(), separators=(",", ":")) == (
        '{"n":8,"deleted":[0,1,2],"witness":[4,6,7],"degree":4}'
    )


@pytest.mark.parametrize(
    "rec,triple,expected,feasible",
    [
        (EXTREMAL_8, (4, 6, 7), '{"condition":"C2","labeling":[4,6,7],"p":0,"q":2}', True),
        (EXTREMAL_8, (0, 1, 2), '{"condition":"C1","labeling":[0,1,2],"p":2,"q":0}', True),
        (b"Ch", (0, 1, 2), '{"condition":null,"p":0,"q":1}', False),
        (b"D]w", (0, 2, 4), '{"condition":"C2","labeling":[0,2,4],"p":0,"q":0}', True),
    ],
)
def test_classification_bytes(rec, triple, expected, feasible):
    tc = classify_triple(parse_graph6(rec), triple)
    assert json.dumps(tc.to_dict(), separators=(",", ":")) == expected
    assert tc.feasible is feasible


def test_classification_repr():
    assert repr(classification()) == (
        "TripleClassification(condition='C2', labeling=(4, 6, 7),"
        " balanceable=True, p=0, q=2)"
    )
    assert classification() == TripleClassification("C2", (4, 6, 7), True, 0, 2)


def test_degree_profile_fields():
    assert degree_profile() == DegreeProfile(2, frozenset({1, 3, 4, 6}), frozenset({2, 5, 7}))


def test_report_bytes():
    r = report()
    assert json.dumps(r.to_dict()) == (
        '{"per_n": {"5": {"graph_count": 3, "min_deletion_histogram": [1, 0, 1, 1],'
        ' "violations": [], "extremal_witnesses": ["D]w"]}, "6": {"graph_count": 2,'
        ' "min_deletion_histogram": [1, 1, 0, 0], "violations": [],'
        ' "extremal_witnesses": []}}, "lemma_results": {"feasible_budget":'
        ' {"instances_checked": 7, "violations": [], "strong_form_failures": 1},'
        ' "median_feasible": {"instances_checked": 4, "violations": []}},'
        ' "skipped": 2, "verified": true, "elapsed": 1.234568}'
    )
    assert json.dumps(r.comparable(), sort_keys=True) == (
        '{"lemma_results": {"feasible_budget": {"instances_checked": 7,'
        ' "strong_form_failures": 1, "violations": []}, "median_feasible":'
        ' {"instances_checked": 4, "violations": []}}, "per_n": {"5":'
        ' {"extremal_witnesses": ["D]w"], "graph_count": 3, "min_deletion_histogram":'
        ' [1, 0, 1, 1], "violations": []}, "6": {"extremal_witnesses": [],'
        ' "graph_count": 2, "min_deletion_histogram": [1, 1, 0, 0], "violations": []}},'
        ' "skipped": 2, "verified": true}'
    )
    assert r.to_json() == json.dumps(r.to_dict(), indent=2, sort_keys=True)
    assert r.to_table() == "\n".join([
        "  n   graphs   histogram 0/1/2/3   witnesses   violations",
        "  5        3             1/0/1/1           1            0",
        "  6        2             1/1/0/0           0            0",
        "feasible_budget: 7 instances, 0 violations   strong-form failures 1",
        "median_feasible: 4 instances, 0 violations",
        "skipped 2 graphs of other orders",
        "elapsed 1.23s",
        "status: verified",
    ])
    assert (r.checked, r.verified) == (16, True)


def test_empty_report_bytes():
    r = VerificationReport({}, {}, 0.5)
    assert r.skipped == 0
    assert json.dumps(r.to_dict()) == (
        '{"per_n": {}, "lemma_results": {}, "skipped": 0, "verified": false, "elapsed": 0.5}'
    )
    assert r.to_table() == "elapsed 0.50s\nstatus: nothing checked"
