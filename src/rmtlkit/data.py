"""Subject-level data structures, CSV ingestion, and event tables.

Event codes are fixed to 0 = censored, 1 = event of interest,
2 = competing event; group codes to 0 = control, 1 = treatment.
Arbitrary user codes can be remapped at ingestion time.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RowError, SampleSizeError, SchemaError

EVENT_CENSORED = 0
EVENT_INTEREST = 1
EVENT_COMPETING = 2

GROUP_CONTROL = 0
GROUP_TREATMENT = 1

# characters per chunk of the C reader's scan of its input
_CHUNK_CHARS = 1 << 16
# suffixes that numpy's np.lib._datasource opens as compressed files
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _validate_arrays(time, event):
    if time.ndim != 1 or event.shape != time.shape:
        raise ValueError("time and event must be 1-d arrays of equal length")
    if not np.all(np.isfinite(time)):
        raise ValueError("times must be finite")
    if np.any(time < 0):
        raise ValueError("times must be non-negative")
    bad = ~np.isin(event, (EVENT_CENSORED, EVENT_INTEREST, EVENT_COMPETING))
    if np.any(bad):
        raise ValueError(f"event codes must be 0, 1 or 2 (got {event[bad][0]})")


@dataclass(frozen=True)
class GroupSample:
    """All subjects of one arm. Immutable after construction: it holds
    read-only copies of ``time`` and ``event``, never the caller's arrays.

    Parameters
    ----------
    time : array of observed times (event or censoring), non-negative.
    event : array of event codes, same length.
    group : the arm label this sample belongs to (0 or 1).
    """

    time: np.ndarray
    event: np.ndarray
    group: int = GROUP_CONTROL

    def __post_init__(self):
        time = np.array(self.time, dtype=float, ndmin=1)
        event = np.array(self.event, ndmin=1)  # checked as given: a cast turns 1.5 into 1
        _validate_arrays(time, event)
        event = event.astype(np.int64, copy=False)
        if time.size < 2:
            raise SampleSizeError(
                f"group {self.group} has {time.size} subject(s); at least 2 required"
            )
        if time.max() <= 0.0:
            raise InputError("maximum follow-up must be strictly positive")
        if self.group not in (GROUP_CONTROL, GROUP_TREATMENT):
            raise ValueError("group must be 0 or 1")
        time.setflags(write=False)
        event.setflags(write=False)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def max_followup(self) -> float:
        return float(self.time.max())

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.event))


@dataclass(frozen=True)
class TwoGroupSample:
    """Disjoint control and treatment samples from one dataset."""

    control: GroupSample
    treatment: GroupSample

    def __post_init__(self):
        if self.control.group == self.treatment.group:
            raise ValueError("control and treatment must carry distinct group labels")


@dataclass(frozen=True)
class EventTable:
    """Per distinct event time: cause-specific counts and the risk set.

    ``times`` is strictly increasing and holds only times at which an
    event (code 1 or 2) occurred. ``at_risk[i]`` counts subjects with
    observed time >= times[i]; a subject censored exactly at times[i]
    is still in the risk set there. The four arrays are read-only copies.
    """

    times: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    at_risk: np.ndarray

    def __post_init__(self):
        for name in ("times", "d1", "d2", "at_risk"):
            arr = np.array(getattr(self, name), order="C", ndmin=1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.times.size:
            if np.any(np.diff(self.times) <= 0):
                raise ValueError("event times must be strictly increasing")
            if np.any(self.at_risk < self.d1 + self.d2):
                raise ValueError("risk set smaller than event count")

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def total_events(self) -> int:
        return int(self.d1.sum() + self.d2.sum())


def build_event_table(sample: GroupSample) -> EventTable:
    """Aggregate a sample into its event table.

    Ties within one time and cause are pooled; the result is invariant
    under permutation of the input records. A sample with no events
    yields an empty table.
    """
    # the group keys and sort order die here, before the event rows are cut
    times, counts, at_risk = _tie_groups(sample.time[None], sample.event[None], 3)[:3]
    d1, d2 = counts[EVENT_INTEREST, 0], counts[EVENT_COMPETING, 0]
    event = d1 + d2 > 0
    return EventTable(times[0, event], d1[event], d2[event], at_risk[0, 0, event])


def _tie_groups(t: np.ndarray, labels: np.ndarray, n_labels: int):
    """Pool the runs of equal times in each row of ``t`` (rows, n), a
    block whose rows hold their subjects in any order: each row is
    sorted here, so no caller sorts. A run is one tie group.

    ``labels`` gives each subject's arm * 3 + event code, below
    ``n_labels``. Returns ``(times, counts, at_risk, key, order)``:

    * ``times[r, g]``: the time of group g of row r (inf past the row's
      last group, where every count is 0);
    * ``counts[label, r, g]``: its subjects with that label;
    * ``at_risk[arm, r, g]``: that arm's subjects at or after it. The
      risk set is taken at the start of the group, so a subject
      censored at an event time stays at risk there;
    * ``key[r, i]``: the flat index ``r * K + g`` of the group of the
      i-th subject of row r in time order, which is subject
      ``order[r, i]``: a flat position ``r * n + j`` in the block (j
      its column). A 1-D ``np.take`` on flat positions is several times
      faster than a 2-D gather; ``np.take(t, order)`` is the sorted
      block, also for a strided slice such as ``t[:, :n0]``, which it
      reads in logical order.
    """
    rows, n = t.shape
    order = np.argsort(t, axis=1)
    order += n * np.arange(rows)[:, None]
    ts = np.take(t, order)
    new = np.ones((rows, n), dtype=bool)
    np.not_equal(ts[:, 1:], ts[:, :-1], out=new[:, 1:])
    # in place, so a one-row call on a large file holds few subject-length arrays
    key = np.cumsum(new, axis=1)
    width = int(key[:, -1].max())
    key += width * np.arange(rows)[:, None] - 1
    size = rows * width
    index = np.take(labels, order)
    index *= size
    index += key
    counts = np.bincount(index.ravel(), minlength=n_labels * size).reshape(n_labels, rows, width)
    by_arm = counts.reshape(-1, 3, rows, width)
    size_by_arm = by_arm[:, 0] + by_arm[:, 1] + by_arm[:, 2]
    at_risk = np.cumsum(size_by_arm[..., ::-1], axis=-1)[..., ::-1]
    times = np.full(size, np.inf)
    times[key] = ts  # every position of a group holds the same time
    return times.reshape(rows, width), counts, at_risk, key, order


def select_tau(sample0: GroupSample, sample1: GroupSample) -> float:
    """Restriction time by the min-max rule: the shorter of the two
    groups' maximum follow-up times."""
    return min(sample0.max_followup, sample1.max_followup)


def _open_source(source):
    """A text handle on a path, on bytes, or on what a file-like object
    reads, past a leading byte-order mark."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    raw = source if isinstance(source, bytes) else source.read()
    return io.StringIO((raw.decode() if isinstance(raw, bytes) else raw).removeprefix("\ufeff"))


def _code_parser(codes, what, *allowed):
    """Parser of a stripped code cell: remapped through ``codes``, an integral
    number in ``allowed``. Memoized by raw cell, as a column has few values."""
    remap = {str(k): v for k, v in (codes or {}).items()}
    outside = f"outside {{{','.join(map(str, allowed))}}}"
    memo = {}

    def parse(raw, rownum):
        code = memo.get(raw)
        if code is None:
            value = remap.get(raw, raw)
            try:
                number = float(value)
            except (ValueError, TypeError):
                number = math.nan
            if not math.isfinite(number):
                raise RowError(rownum, f"non-numeric {what} code {value!r}")
            code = int(number) if number.is_integer() else number
            if code not in allowed:
                raise RowError(rownum, f"{what} code {code} {outside}")
            memo[raw] = code
        return code

    return parse


def _parse_csv_rows(source, time_col, event_col, group_col, event_codes=None, group_codes=None):
    """Validated time, event and group arrays; no ``group_col`` puts all rows in arm 0.

    A file without code maps goes to numpy's C reader first (``_read_clean``).
    Every file it declines is read again from the start by the row loop
    (``_read_rows``), which gives the same arrays, or the error with its row
    number, on any input.
    """
    with _open_source(source) as handle:
        if not (event_codes or group_codes) and handle.seekable():
            feed = _loadtxt_feed(source, handle)
            columns = _read_clean(handle, feed, time_col, event_col, group_col)
            if columns is not None:
                return columns
            handle.seek(0)
        return _read_rows(handle, time_col, event_col, group_col, event_codes, group_codes)


def _loadtxt_feed(source, handle):
    """What ``np.loadtxt`` reads: a regular file's absolute path, which numpy
    reads in blocks, or else ``handle``, line by line. numpy opens a ``str``
    through ``np.lib._datasource``, which decompresses by suffix and fetches
    a name shaped like a URL; an absolute path is never shaped like one."""
    if isinstance(source, (str, os.PathLike)) and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        path = os.path.abspath(source)
        if isinstance(path, str) and not path.endswith(_COMPRESSED):
            return path
    return handle


def _header_columns(header, time_col, event_col, group_col):
    """Indexes of the time, event and group columns (None without ``group_col``)."""
    # the last duplicated name wins
    index = {name: i for i, name in enumerate(header)}
    for col in (time_col, event_col, group_col):
        if col is not None and col not in index:
            raise SchemaError(col)
    return index[time_col], index[event_col], None if group_col is None else index[group_col]


def _read_rows(handle, time_col, event_col, group_col, event_codes, group_codes):
    """The row loop: every cell through ``float`` and the code parsers."""
    event_code = _code_parser(event_codes, "event", EVENT_CENSORED, EVENT_INTEREST, EVENT_COMPETING)
    group_code = _code_parser(group_codes, "group", GROUP_CONTROL, GROUP_TREATMENT)
    times, events, groups = [], [], []
    reader = csv.reader(handle)
    # the first line is the header even if blank
    ti, ei, gi = _header_columns(next(reader, []), time_col, event_col, group_col)
    width = max(ti, ei, gi or 0) + 1
    # blank lines are skipped uncounted, and a short row's missing cells read ''
    for rownum, row in enumerate(filter(None, reader), start=1):
        if len(row) < width:
            row += [""] * (width - len(row))
        raw_time = row[ti].strip()
        try:
            t = float(raw_time)
        except ValueError:
            raise RowError(rownum, f"non-numeric time {raw_time!r}") from None
        if not math.isfinite(t):
            raise RowError(rownum, f"non-finite time {raw_time!r}")
        if t < 0:
            raise RowError(rownum, f"negative time {raw_time!r}")
        times.append(t)
        events.append(event_code(row[ei].strip(), rownum))
        groups.append(GROUP_CONTROL if gi is None else group_code(row[gi].strip(), rownum))
    return np.array(times), np.array(events, dtype=np.int64), np.array(groups, dtype=np.int64)


def _read_clean(handle, feed, time_col, event_col, group_col):
    """The columns of a clean file by ``np.loadtxt``, or None to leave the
    file to the row loop: on a reader error, a cell the loop would refuse, a
    body without data rows, or text where the two readers could part ways.

    The header goes through ``csv.reader`` as in the loop, and its errors are
    the loop's; numpy skips it as one physical line, so a header cell holding
    a CR or LF declines. ``_scan_body`` reads the rest of ``handle`` once for
    what numpy does not check: ``csv``'s field size limit and a body without
    data rows. numpy then reads ``feed`` (``_loadtxt_feed``) from the start.
    A CR ends a line in a file on both sides and is refused inside a line of
    a text stream. The C reader takes the same quoting and reads a cell as
    ``float`` does, but it does not know ``_`` in numbers.
    """
    header = next(csv.reader(handle), [])
    ti, ei, gi = _header_columns(header, time_col, event_col, group_col)
    if any("\r" in name or "\n" in name for name in header):
        return None
    try:
        if not _scan_body(handle, csv.field_size_limit()):
            return None  # no data row, or a field past csv's limit
        handle.seek(0)
        usecols = (ti, ei) if gi is None else (ti, ei, gi)
        table = np.loadtxt(feed, delimiter=",", comments=None, quotechar='"', usecols=usecols,
                           ndmin=2, skiprows=1, encoding="utf-8-sig")
    except Exception:  # a decline, not an error: the loop reports it
        return None
    time = table[:, 0].copy()
    if not (time.min() >= 0 and time.max() < math.inf):  # NaN fails both
        return None
    event = _clean_codes(table[:, 1], EVENT_COMPETING)
    if gi is None:
        group = np.zeros(len(table), dtype=np.int64)
    else:
        group = _clean_codes(table[:, 2], GROUP_TREATMENT)
    if event is None or group is None:
        return None
    return time, event, group


def _scan_body(handle, limit):
    """Whether numpy may read the rest of ``handle``, read in chunks: False
    when it holds no data row (np.loadtxt would warn), or where a field
    could exceed ``csv``'s ``limit``: on a line of ``limit`` or more
    characters, or when a quote (a quoted field may span lines) is in a
    body longer than ``limit``."""
    read, line, quoted, rows = 0, 0, False, False
    for chunk in iter(lambda: handle.read(_CHUNK_CHARS), ""):
        read += len(chunk)
        quoted = quoted or '"' in chunk
        rows = rows or bool(chunk.strip("\r\n"))
        if line + len(chunk) < limit:  # no line of this chunk reaches the limit
            cut = max(chunk.rfind("\n"), chunk.rfind("\r"))
            line = (line if cut < 0 else 0) + len(chunk) - 1 - cut
        else:
            lengths = list(map(len, chunk.replace("\r", "\n").split("\n")))
            lengths[0] += line
            if max(lengths) >= limit:
                return False
            line = lengths[-1]
        if quoted and read > limit:
            return False
    return rows


def _clean_codes(column, top):
    """``column`` as int64 codes when every cell is an integer in 0..``top``, else None."""
    if not (column.min() >= 0 and column.max() <= top):
        return None
    codes = column.astype(np.int64)
    return codes if np.array_equal(codes, column) else None


def _samples_from_columns(time, event, group, allow_single: bool):
    """Cut parsed columns into samples: the one arm present when
    ``allow_single`` permits it, otherwise both arms, of 2 or more each."""
    counts = np.bincount(group, minlength=2)
    if allow_single and np.count_nonzero(counts) == 1:
        return GroupSample(time, event, int(counts.argmax()))
    for g, n in enumerate(counts):
        if n < 2:
            raise SampleSizeError(f"group {g} has {n} subject(s); at least 2 required in each arm")
    arms = (np.flatnonzero(group == g) for g in (0, 1))
    return TwoGroupSample(*(GroupSample(time[i], event[i], g) for g, i in enumerate(arms)))


def ingest_csv(
    source,
    time_col: str = "time",
    event_col: str = "event",
    group_col: str = "group",
    event_codes: dict | None = None,
    group_codes: dict | None = None,
) -> TwoGroupSample:
    """Read and validate a two-arm CSV into a :class:`TwoGroupSample`.

    ``source`` may be a path (``str`` or ``os.PathLike``), bytes, or a
    file-like object holding UTF-8 CSV with a header row. Row order is
    preserved within each group.
    ``event_codes`` / ``group_codes`` optionally remap user codes onto
    the canonical 0/1/2 and 0/1.

    Raises :class:`SchemaError` for missing columns, :class:`RowError`
    (with a 1-based data-row number) for invalid cells, and
    :class:`SampleSizeError` when either arm has fewer than 2 subjects.
    """
    columns = _parse_csv_rows(source, time_col, event_col, group_col, event_codes, group_codes)
    return _samples_from_columns(*columns, allow_single=False)


def ingest_single_group_csv(
    source,
    time_col: str = "time",
    event_col: str = "event",
    group_col: str | None = None,
    event_codes: dict | None = None,
    group_codes: dict | None = None,
):
    """Read a CSV that may hold one arm or two.

    Returns a :class:`TwoGroupSample` when both arms are present,
    otherwise the single :class:`GroupSample`. Used by the CLI so a
    one-group file still gets a descriptive analysis. Raises
    :class:`SampleSizeError` for a file without data rows.
    """
    columns = _parse_csv_rows(source, time_col, event_col, group_col, event_codes, group_codes)
    return _samples_from_columns(*columns, allow_single=True)
