import io

import numpy as np
import pytest

from rmtlkit import (
    GroupSample,
    RowError,
    SampleSizeError,
    SchemaError,
    build_event_table,
    ingest_csv,
    select_tau,
)
from rmtlkit.data import ingest_single_group_csv

FIXTURE_CSV = b"time,event,group\n1,1,0\n2,0,0\n3,1,1\n4,2,1\n"


def make_sample(pairs, group=0):
    time = np.array([p[0] for p in pairs], dtype=float)
    event = np.array([p[1] for p in pairs], dtype=int)
    return GroupSample(time, event, group)


def test_ingest_basic():
    two = ingest_csv(io.BytesIO(FIXTURE_CSV))
    assert two.control.n == 2
    assert two.treatment.n == 2
    assert two.control.time.tolist() == [1.0, 2.0]
    assert two.treatment.event.tolist() == [1, 2]


def test_ingest_missing_column():
    with pytest.raises(SchemaError, match="group"):
        ingest_csv(io.BytesIO(b"time,event\n1,1\n2,0\n"))


def test_ingest_negative_time_row_number():
    bad = b"time,event,group\n1,1,0\n-1,1,0\n2,0,1\n3,1,1\n"
    with pytest.raises(RowError, match="row 2") as exc:
        ingest_csv(io.BytesIO(bad))
    assert exc.value.row == 2


def test_ingest_bad_event_code():
    bad = b"time,event,group\n1,1,0\n2,3,0\n2,0,1\n3,1,1\n"
    with pytest.raises(RowError, match="event code 3"):
        ingest_csv(io.BytesIO(bad))


def test_ingest_non_numeric_time():
    bad = b"time,event,group\n1,1,0\nabc,1,0\n2,0,1\n3,1,1\n"
    with pytest.raises(RowError, match="non-numeric time"):
        ingest_csv(io.BytesIO(bad))


def test_ingest_bad_group_code():
    bad = b"time,event,group\n1,1,0\n2,1,0\n2,0,5\n3,1,1\n"
    with pytest.raises(RowError, match="group code 5"):
        ingest_csv(io.BytesIO(bad))


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,inf,0\n", "row 1: non-numeric event code 'inf'"),
        ("1,-inf,0\n", "row 1: non-numeric event code '-inf'"),
        ("1,1,inf\n", "row 1: non-numeric group code 'inf'"),
        ("1,1.7,0\n", "row 1: event code 1.7 outside {0,1,2}"),
        ("1,1,0\n2,-0.5,0\n", "row 2: event code -0.5 outside {0,1,2}"),
        ("1,1.0,0.5\n", "row 1: group code 0.5 outside {0,1}"),
    ],
    ids=["inf-event", "minus-inf-event", "inf-group", "event-1.7", "event-minus-0.5", "group-0.5"],
)
def test_ingest_fractional_or_infinite_code(rows, message):
    # a code is never truncated (1.7 is not 1) nor left to overflow
    with pytest.raises(RowError) as exc:
        ingest_csv(io.BytesIO(b"time,event,group\n" + rows.encode()))
    assert str(exc.value) == message


def test_ingest_pathlib_source(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(FIXTURE_CSV)
    two = ingest_csv(path)
    assert two.control.time.tolist() == [1.0, 2.0]
    assert two.treatment.event.tolist() == [1, 2]


def test_ingest_too_small_group():
    with pytest.raises(SampleSizeError):
        ingest_csv(io.BytesIO(b"time,event,group\n1,1,0\n2,0,0\n3,1,1\n"))


@pytest.mark.parametrize("ingest", [ingest_csv, ingest_single_group_csv])
def test_ingest_header_only(ingest):
    with pytest.raises(SampleSizeError):
        ingest(io.BytesIO(b"time,event,group\n"), group_col="group")


def test_ingest_code_remap():
    csv = b"time,event,group\n1,10,a\n2,0,a\n3,20,b\n4,10,b\n"
    two = ingest_csv(
        io.BytesIO(csv),
        event_codes={"0": 0, "10": 1, "20": 2},
        group_codes={"a": 0, "b": 1},
    )
    assert two.control.event.tolist() == [1, 0]
    assert two.treatment.event.tolist() == [2, 1]


def test_event_table_fixture():
    table = build_event_table(make_sample([(1, 1), (2, 0), (3, 1), (4, 2)]))
    assert table.times.tolist() == [1.0, 3.0, 4.0]
    assert table.d1.tolist() == [1, 1, 0]
    assert table.d2.tolist() == [0, 0, 1]
    assert table.at_risk.tolist() == [4, 2, 1]


def test_event_table_all_censored():
    table = build_event_table(make_sample([(1, 0), (2, 0), (3, 0)]))
    assert table.n_times == 0
    assert table.total_events == 0


def test_event_table_tie_aggregation():
    table = build_event_table(make_sample([(2, 1), (2, 1), (2, 2)]))
    assert table.times.tolist() == [2.0]
    assert table.d1.tolist() == [2]
    assert table.d2.tolist() == [1]
    assert table.at_risk.tolist() == [3]


def test_event_table_censor_tie_stays_at_risk():
    # a subject censored exactly at an event time is still at risk there
    table = build_event_table(make_sample([(1, 1), (1, 0), (2, 1)]))
    assert table.at_risk.tolist() == [3, 1]


def test_event_table_permutation_invariant():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        time = np.round(rng.exponential(2.0, n), 2)
        event = rng.integers(0, 3, n)
        base = GroupSample(time, event, 0)
        perm = rng.permutation(n)
        shuffled = GroupSample(time[perm], event[perm], 0)
        t1, t2 = build_event_table(base), build_event_table(shuffled)
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.d1, t2.d1)
        assert np.array_equal(t1.d2, t2.d2)
        assert np.array_equal(t1.at_risk, t2.at_risk)


def test_event_table_risk_set_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        time = np.round(rng.exponential(1.0, n), 1)
        event = rng.integers(0, 3, n)
        sample = GroupSample(time, event, 0)
        table = build_event_table(sample)
        for t, y in zip(table.times, table.at_risk):
            assert y == np.sum(time >= t)
        assert table.total_events == np.sum(event != 0)


def test_select_tau():
    a = make_sample([(1, 1), (25.667, 0)])
    b = make_sample([(2, 1), (30.2, 0)], group=1)
    assert select_tau(a, b) == pytest.approx(25.667)
    assert select_tau(a, b) == select_tau(b, a)
    c = make_sample([(1, 0), (4.0, 1)])
    d = make_sample([(2, 1), (4.0, 0)], group=1)
    assert select_tau(c, d) == 4.0
    e = make_sample([(1, 1), (16.238, 0)])
    f = make_sample([(2, 1), (20.0, 0)], group=1)
    assert select_tau(e, f) == pytest.approx(16.238)


def test_group_sample_validation():
    with pytest.raises(ValueError):
        GroupSample(np.array([1.0, -2.0]), np.array([1, 0]), 0)
    with pytest.raises(ValueError):
        GroupSample(np.array([1.0, np.inf]), np.array([1, 0]), 0)
    with pytest.raises(SampleSizeError):
        GroupSample(np.array([1.0]), np.array([1]), 0)
    with pytest.raises(ValueError):
        GroupSample(np.array([0.0, 0.0]), np.array([1, 1]), 0)


def test_sample_immutable():
    s = make_sample([(1, 1), (2, 0)])
    with pytest.raises(ValueError):
        s.time[0] = 9.0
