"""The CSV parser against the ``csv.DictReader`` oracle (``csv_oracle.py``)
on a seeded corpus of small, often malformed files: every file must give
byte-equal arrays, or an exception of the same type with the same message
and row number.

The oracle truncates a fractional code cell (an event of 1.7 reads as 1)
and raises ``OverflowError`` on an infinite one. There the parser raises
``RowError`` instead, so the oracle runs with a strict ``int`` that raises
the ``RowError`` the parser must give at that cell. The oracle also keeps
the BOM of a text stream, which the parser skips, so for a text stream
with a BOM it reads the file's bytes instead.
"""

import io
import linecache
import math
import random
import subprocess
import sys
from pathlib import Path

import csv_oracle
import numpy as np

from rmtlkit.data import _parse_csv_rows
from rmtlkit.errors import RowError

FILES = 3000
SEED = 20240607

GOOD_TIMES = ["0", "1", "2.5", " 3 ", "4.25", "10", "7", "1e1", "-0.0", "1_0", "0.5", "+2"]
BAD_TIMES = ["", "-1", "-0.5", "nan", "NaN", "inf", "-inf", "abc", "1e999", "1__0", "--1"]
GOOD_EVENTS = ["0", "1", "2", " 1", "1.0", "2.0", "-0", "0.0", "1_0e-1"]
GOOD_GROUPS = ["0", "1", "1.0", " 0 ", "-0.0"]
BAD_CODES = ["", "3", "-1", "1.7", "-0.5", "0.5", "2.5", "nan", "inf", "-inf", "1e999", "x", "1e20"]
EVENT_MAPS = [
    None,
    {"c": 0, "i": 1, "k": 2},
    {"0": 0, "10": 1, "20": 2},
    {0: 0, 1: 2, 2: 1, "h": 1.5, "n": None},
]
GROUP_MAPS = [None, {"a": 0, "b": 1}, {"1": 0, "2": 1, "z": "inf"}]
QUOTED = ["1,5", "1\n", 'a"b', ""]
ENDINGS = ["\n", "\r\n", "\r"]
SOURCES = ["bytes", "bytes-io", "text-io", "path", "pathlib"]


class _Strict(Exception):
    """Carries a ``RowError`` past the oracle's ``except ValueError``."""


def _strict_int(x):
    """``int`` for the oracle: a fractional or infinite code cell raises
    the parser's ``RowError`` in place of truncating or overflowing."""
    if isinstance(x, float) and not math.isnan(x) and not x.is_integer():
        caller = sys._getframe(1)
        what = "event" if "raw_event" in linecache.getline(
            caller.f_code.co_filename, caller.f_lineno
        ) else "group"
        rownum, value = caller.f_locals["rownum"], caller.f_locals[f"raw_{what}"]
        _strict_int.fired += 1
        if math.isinf(x):
            raise _Strict(RowError(rownum, f"non-numeric {what} code {value!r}"))
        allowed = "0,1,2" if what == "event" else "0,1"
        raise _Strict(RowError(rownum, f"{what} code {x} outside {{{allowed}}}"))
    return int(x)


def _cell(rng, kind, mapping):
    if rng.random() < 0.06:
        return rng.choice(BAD_TIMES if kind == "time" else BAD_CODES)
    if kind == "time":
        return rng.choice(GOOD_TIMES)
    good = GOOD_EVENTS if kind == "event" else GOOD_GROUPS
    if mapping and rng.random() < 0.5:
        return str(rng.choice(list(mapping)))
    return rng.choice(good)


def _quote(rng, cell):
    if rng.random() < 0.05:
        cell = rng.choice(QUOTED)
    return '"' + cell.replace('"', '""') + '"'


def make_case(rng):
    """One random file and the parse arguments that go with it."""
    time_col = rng.choice(["time", "t"])
    event_col = rng.choice(["event", "status"])
    group_col = rng.choice(["group", "arm", None])
    event_codes = rng.choice(EVENT_MAPS)
    group_codes = rng.choice(GROUP_MAPS)
    kinds = {time_col: "time", event_col: "event", group_col: "group", "x": "extra"}
    header = [c for c in (time_col, event_col, group_col, "x") if c is not None]
    rng.shuffle(header)
    if rng.random() < 0.15:
        header.insert(rng.randrange(len(header) + 1), rng.choice(header))
    if rng.random() < 0.05:
        header.remove(rng.choice(header))
    maps = {"event": event_codes, "group": group_codes}

    lines = [",".join(header)]
    for _ in range(rng.randrange(9)):
        cells = [
            "u" if kinds[name] == "extra" else _cell(rng, kinds[name], maps.get(kinds[name]))
            for name in header
        ]
        if rng.random() < 0.1:
            cells = cells[: rng.randrange(len(cells))]
        elif rng.random() < 0.1:
            cells += ["v"] * rng.randint(1, 3)
        lines.append(",".join(_quote(rng, c) if rng.random() < 0.1 else c for c in cells))
        if rng.random() < 0.1:
            lines.append("")
    if rng.random() < 0.05:
        lines.insert(0, "")
    ending = rng.choices(ENDINGS, weights=[6, 3, 1])[0]
    text = ending.join(lines) + (ending if rng.random() < 0.8 else "")
    if rng.random() < 0.2:
        text = "\ufeff" + text
    args = (time_col, event_col, group_col, event_codes, group_codes)
    return text, args, rng.choice(SOURCES)


def _sources(text, kind, path):
    """(oracle source, parser source): fresh handles, or one file."""
    data = text.encode("utf-8")
    if kind == "bytes":
        return data, data
    if kind == "bytes-io":
        return io.BytesIO(data), io.BytesIO(data)
    if kind == "text-io":
        oracle = data if text.startswith("\ufeff") else io.StringIO(text)
        return oracle, io.StringIO(text)
    path.write_bytes(data)
    return str(path), (path if kind == "pathlib" else str(path))


def _outcome(parse, source, args):
    try:
        groups = parse(source, args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "row", None)
    return groups


def _oracle_groups(source, args):
    try:
        by_group = csv_oracle._parse_csv_rows(source, *args)
    except _Strict as exc:
        raise exc.args[0] from None
    return {
        g: (
            np.array([r[0] for r in rows], dtype=float).tobytes(),
            np.array([r[1] for r in rows], dtype=np.int64).tobytes(),
        )
        for g, rows in by_group.items()
    }


def _parser_groups(source, args):
    time, event, group = _parse_csv_rows(source, *args)
    assert time.dtype == np.float64 and event.dtype == group.dtype == np.int64
    return {
        int(g): (time[group == g].tobytes(), event[group == g].tobytes())
        for g in np.unique(group)
    }


def test_parser_matches_dictreader_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(csv_oracle, "int", _strict_int, raising=False)
    _strict_int.fired = 0
    rng = random.Random(SEED)
    path = tmp_path / "case.csv"
    kinds = {}
    for i in range(FILES):
        text, args, source = make_case(rng)
        expected_source, source = _sources(text, source, path)
        expected = _outcome(_oracle_groups, expected_source, args)
        got = _outcome(_parser_groups, source, args)
        assert got == expected, f"file {i} ({args}, {source!r}): {text!r}"
        kind = expected[0].__name__ if isinstance(expected, tuple) else "ok"
        kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome is reached: arrays, RowError, SchemaError, csv.Error (a bare
    # CR in a text stream) and the strict int
    assert kinds["ok"] >= 300 and kinds["RowError"] >= 300, kinds
    assert kinds.get("SchemaError", 0) >= 50 and kinds.get("Error", 0) >= 10, kinds
    assert _strict_int.fired >= 50


def test_fuzzer_finds_no_difference():
    # fuzz_csv.py patches numpy and changes directory, so it runs in a
    # process of its own
    fuzzer = Path(__file__).with_name("fuzz_csv.py")
    run = subprocess.run(
        [sys.executable, str(fuzzer), "--files", "500", "--seed", "2261"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    counts = dict(line.rsplit(": ", 1) for line in run.stdout.splitlines())
    assert counts["files"] == "500"
    assert int(counts["C reader took"]) > 0 and int(counts["lowered field limit"]) > 0, counts
