"""The C reader of clean CSV files (``data._read_clean``) against the row
loop (``data._read_rows``) and the ``csv.DictReader`` oracle
(``csv_oracle.py``).

``test_csv_parity.py`` runs the parser on small, often malformed files,
most of them with code maps, which only the row loop reads. Here a seeded
corpus of well-formed files without code maps must take the C reader
whenever it has a data row, and give byte-equal arrays to both references.
The other tests hold the C reader to ``float``'s grammar and make sure it
declines what the loop refuses, with the loop's error.
"""

import csv
import decimal
import gzip
import io
import math
import os
import random
import threading
import tracemalloc
import urllib.request
import warnings

import numpy as np
import pytest
from test_csv_parity import SOURCES, _oracle_groups, _outcome, _parser_groups, _sources

from rmtlkit import data
from rmtlkit.cli import main
from rmtlkit.data import ingest_csv, ingest_single_group_csv
from rmtlkit.errors import SampleSizeError

FILES = 1200
SEED = 20261019


@pytest.fixture
def clean_reads(monkeypatch):
    """Whether each ``_read_clean`` call returned columns (True) or declined."""
    reads = []
    read_clean = data._read_clean

    def spy(*args):
        columns = read_clean(*args)
        reads.append(columns is not None)
        return columns

    monkeypatch.setattr(data, "_read_clean", spy)
    return reads


@pytest.fixture
def loadtxt_feeds(monkeypatch):
    """What each ``np.loadtxt`` call was given to read."""
    feeds = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        feeds.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return feeds


def _halfway(rng):
    """The exact decimal midway between a double and the next one up."""
    x = rng.choice([rng.uniform(0, 100), math.ldexp(rng.randrange(1, 2**52), -1074)])
    exact = decimal.Context(prec=2000)
    pair = exact.add(decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf)))
    return str(exact.divide(pair, 2))


def hard_time(rng):
    """A time cell that ``float`` reads exactly and a sloppy parser would not."""
    kind = rng.randrange(4)
    if kind == 0:
        return f"{rng.uniform(0, 1000):.16e}"  # 17 significant digits
    if kind == 1:
        return repr(math.ldexp(rng.randrange(1, 2**52), -1074))  # subnormal
    if kind == 2:
        return _halfway(rng)
    return rng.choice(["0", "3", "2.5", "+2", "-0.0", "1e1", "0.1", "4.250", ".5", "7."])


HARD_TIMES = [
    "0.30000000000000004", "2.2250738585072011e-308", "2.2250738585072009e-308",
    "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-320",
    "9007199254740993", "9007199254740995", "1.7976931348623157e308",
    "1.00000000000000011102230246251565404236316680908203125",
    "0.1000000000000000055511151231257827021181583404541015625",
    "8.98846567431158e307", "1e23", "123456789012345678901234567890",
    "0." + "0" * 300 + "1", "1" * 300 + ".5", " 7.5 ", "\t+1E+1\t",
]


def _cell(rng, value):
    """``value`` as a well-formed cell: maybe padded, maybe quoted."""
    if rng.random() < 0.15:
        value = rng.choice([" ", "\t", "  "]) + value + rng.choice(["", " ", "\t"])
    if rng.random() < 0.1:
        value = '"' + value + '"'
    return value


def make_clean_case(rng):
    """One well-formed file without code maps, its parse arguments, its source
    kind and its number of data rows."""
    time_col, event_col = rng.choice(["time", "t"]), rng.choice(["event", "status"])
    group_col = rng.choice(["group", "arm", None])
    header = [time_col, event_col]
    if group_col is not None or rng.random() < 0.5:
        header.append(group_col or "group")
    header += rng.sample(["id", "note", "site"], rng.randrange(3))
    rng.shuffle(header)
    rows = rng.choice([0, 1, 1, 2, 3, 8, 40])
    values = {
        time_col: lambda: hard_time(rng),
        event_col: lambda: rng.choice(["0", "1", "2", "1.0", "2.0", "-0", "+1", "2e0"]),
        group_col or "group": lambda: rng.choice(["0", "1", "1.0", "-0.0", "+1"]),
        "id": lambda: str(rng.randrange(10**6)),
        "note": lambda: rng.choice(['"a,b"', '"say ""x"""', "", "x y", '"2\n3"']),
        "site": lambda: rng.choice(["1_0", "nan", "-1", "abc"]),
    }
    read = {time_col, event_col, group_col or "group"}  # padded and quoted at random
    lines = [",".join(header)]
    for _ in range(rows):
        cells = [_cell(rng, values[name]()) if name in read else values[name]() for name in header]
        if rng.random() < 0.1:
            cells.append(rng.choice(["", "extra", "9"]))
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")
    kind = rng.choice(SOURCES)
    endings = ["\n", "\r\n"] + (["\r"] if kind in ("path", "pathlib") else [])
    ending = rng.choice(endings)
    text = ending.join(lines) + (ending if rng.random() < 0.8 else "")
    # a text stream with a BOM has its own test (test_bom_in_a_text_stream_*)
    if kind != "text-io" and rng.random() < 0.2:
        text = "\ufeff" + text
    return text, (time_col, event_col, group_col, None, None), kind, rows


def _loop_groups(source, args):
    with data._open_source(source) as handle:
        time, event, group = data._read_rows(handle, *args)
    return {
        int(g): (time[group == g].tobytes(), event[group == g].tobytes())
        for g in np.unique(group)
    }


def test_clean_files_take_the_c_reader_and_match_both_references(
    tmp_path, clean_reads, loadtxt_feeds
):
    rng = random.Random(SEED)
    path = tmp_path / "case.csv"
    with_rows, feeds = [], []
    for i in range(FILES):
        text, args, kind, rows = make_clean_case(rng)
        oracle_source, source = _sources(text, kind, path)
        expected = _outcome(_oracle_groups, oracle_source, args)
        assert _outcome(_loop_groups, _sources(text, kind, path)[0], args) == expected, i
        got = _outcome(_parser_groups, source, args)
        assert got == expected, f"file {i} ({args}, {kind}): {text!r}"
        assert isinstance(got, dict), f"file {i} raised {got}"
        with_rows.append(rows > 0)
        if rows:
            feeds.append(kind)
    # the C reader declines exactly the files without a data row
    assert clean_reads == with_rows
    assert sum(with_rows) >= 1000
    # numpy reads a file by its absolute path, in blocks, and bytes or a
    # stream through the parser's rewound handle
    assert len(loadtxt_feeds) == len(feeds)
    for kind, feed in zip(feeds, loadtxt_feeds):
        if kind in ("path", "pathlib"):
            assert type(feed) is str and feed == os.path.abspath(path), (kind, feed)
        else:
            assert isinstance(feed, io.StringIO), (kind, feed)


def test_c_reader_times_are_float_bits(clean_reads):
    rng = random.Random(SEED + 1)
    cells = HARD_TIMES + [hard_time(rng) for _ in range(3000)]
    text = "time,event\n" + "".join(f"{cell},1\n" for cell in cells)
    time, event, group = data._parse_csv_rows(text.encode(), "time", "event", None)
    assert clean_reads == [True]
    assert time.tobytes() == np.array([float(cell) for cell in cells]).tobytes()
    assert event.tolist() == [1] * len(cells) and not group.any()


@pytest.mark.parametrize("cell", ["1_0", " 1_0 ", "1_000.5", "١٠"])
def test_python_only_float_syntax_goes_through_the_loop(cell, clean_reads):
    text = f"time,event\n{cell},1\n2,0\n"
    time, _, _ = data._parse_csv_rows(text.encode(), "time", "event", None)
    assert clean_reads == [False]
    assert time.tolist() == [float(cell), 2.0]


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
@pytest.mark.parametrize("ingest", [ingest_csv, ingest_single_group_csv])
def test_no_data_row_raises_without_a_warning(tmp_path, body, ingest, clean_reads):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"time,event,group\n" + body.encode())
    # recorded, not raised: the C reader would take a raised warning for a decline
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SampleSizeError, match="0 subject"):
            ingest(path, group_col="group")
    assert caught == [] and clean_reads == [False]


def test_lone_cr_is_a_line_end_only_in_a_file(tmp_path, clean_reads):
    text = "time,event,group\r1,1,0\r2,0,0\r3,1,1\r4,2,1\r"
    path = tmp_path / "cr.csv"
    path.write_text(text, newline="")
    assert ingest_csv(path).treatment.event.tolist() == [1, 2]
    body = "time,event,group\n1,1,0\r2,0,0\n3,1,1\n4,2,1\n"
    with pytest.raises(csv.Error, match="new-line character seen in unquoted field"):
        ingest_csv(body.encode())
    assert clean_reads == [True, False]


def test_quoted_field_over_the_limit_across_lines(clean_reads):
    # every line is short, but the quoted note spans 20,000 of them
    note = '"' + "abcdef\n" * 20_000 + '"'
    text = f"time,event,group,note\n1,1,0,{note}\n2,0,0,x\n3,1,1,x\n4,2,1,x\n"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        ingest_csv(text.encode())
    assert clean_reads == [False]


@pytest.mark.parametrize("codes", [None, {"c": 0, "i": 1, "k": 2}])
def test_bom_in_a_text_stream_is_skipped_by_both_readers(codes, clean_reads):
    # without code maps the C reader reads the file, with them the row loop
    events = ["c", "c", "i", "k"] if codes else ["0", "0", "1", "2"]
    rows = zip(["1", "2.5", "3", "4"], events, ["0", "0", "1", "1"])
    text = "\ufefftime,event,group\n" + "".join(",".join(row) + "\n" for row in rows)
    got = ingest_csv(io.StringIO(text), event_codes=codes)
    want = ingest_csv(text.encode("utf-8"), event_codes=codes)
    for arm in ("control", "treatment"):
        for name in ("time", "event"):
            g, w = getattr(getattr(got, arm), name), getattr(getattr(want, arm), name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (arm, name)
    assert got.treatment.event.tolist() == [1, 2]
    assert clean_reads == ([] if codes else [True, True])


CLEAN = "time,event,group\n1,1,0\n2,0,0\n3,1,1\n4,2,1\n"
CLEAN_COLUMNS = [[1.0, 2.0, 3.0, 4.0], [1, 0, 1, 2], [0, 0, 1, 1]]


def _columns(source):
    return [a.tolist() for a in data._parse_csv_rows(source, "time", "event", "group")]


def test_a_compressed_suffix_is_not_decompressed(tmp_path, clean_reads, loadtxt_feeds):
    # numpy would open a str path ending in .gz through gzip
    packed = tmp_path / "x.csv.gz"
    packed.write_bytes(gzip.compress(CLEAN.encode()))
    with pytest.raises(UnicodeDecodeError):
        data._parse_csv_rows(packed, "time", "event", "group")
    with pytest.raises(UnicodeDecodeError):
        data._parse_csv_rows(str(packed), "time", "event", "group", {"0": 0}, None)
    assert main(["analyze", str(packed)]) == 2
    # a plain file with the suffix is read through the handle
    plain = tmp_path / "y.csv.gz"
    plain.write_text(CLEAN)
    assert _columns(plain) == CLEAN_COLUMNS
    assert clean_reads == [True] and isinstance(loadtxt_feeds[0], io.TextIOWrapper)


def test_a_url_shaped_path_is_read_from_disk(tmp_path, monkeypatch, clean_reads, loadtxt_feeds):
    fetched = []

    def refuse(url, *args, **kwargs):
        fetched.append(url)
        raise OSError("no network")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "x.csv").write_text(CLEAN)
    assert _columns("http://host/x.csv") == CLEAN_COLUMNS
    assert clean_reads == [True] and fetched == []
    assert loadtxt_feeds == [str(tmp_path / "http:" / "host" / "x.csv")]


@pytest.mark.parametrize("kind", ["path", "bytes", "text-io"])
def test_a_header_cell_holding_a_line_end_declines(tmp_path, kind, clean_reads):
    # numpy would skip only the header's first line and read "1,1,0,y" as data
    text = 'time,event,group,"x\n1,1,0,y"\n2,0,0,z\n3,1,1,z\n4,2,1,z\n'
    want = [[2.0, 3.0, 4.0], [0, 1, 2], [0, 1, 1]]
    assert _columns(_sources(text, kind, tmp_path / "h.csv")[1]) == want
    assert _columns(_sources(text.replace("\n1,1", "\r1,1", 1), kind, tmp_path / "h.csv")[1]) == want
    with data._open_source(text.encode()) as handle:
        loop = data._read_rows(handle, "time", "event", "group", None, None)
    assert [a.tolist() for a in loop] == want
    assert clean_reads == [False, False]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_by_the_loop_alone(tmp_path, clean_reads):
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(
        target=pipe.write_text, args=("time,event,group\n1,1,0\n2,0,0\n3,1,1\n4,2,1\n",),
        daemon=True,
    )
    writer.start()
    two = ingest_csv(pipe)
    writer.join(timeout=10)
    assert two.treatment.event.tolist() == [1, 2]
    assert clean_reads == []


def registry_csv(rows=40_000, seed=15):
    """Day-rounded exponential times with every event code, in two arms."""
    rng = np.random.default_rng(seed)
    time = np.maximum(np.round(rng.exponential(1.0, rows), 3), 0.001)
    event = rng.choice([0, 1, 1, 2], rows)
    group = rng.integers(0, 2, rows)
    body = "".join(f"{t:.3f},{e},{g}\n" for t, e, g in zip(time, event, group))
    return "time,event,group\n" + body


def test_ingest_peak_memory(tmp_path):
    # tracemalloc peak of ingest_csv on this file: 2.99 MB with the row loop
    # alone (Python 3.11.7, numpy 2.4.6); the C reader scans the text in
    # chunks, then reads the file in blocks and holds its (rows, 3) table and
    # the three columns, about 2.14 MB. Reading the whole text first would
    # need about 4.8 MB.
    path = tmp_path / "registry.csv"
    path.write_text(registry_csv())
    ingest_csv(path)
    tracemalloc.start()
    try:
        ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_989_000, peak
