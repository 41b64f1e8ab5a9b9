"""Reference form of the CSV row parser.

This is the ``csv.DictReader`` row loop that ``rmtlkit.data._parse_csv_rows``
replaced, kept verbatim as an independent oracle. It returns the parsed
rows as ``{group: [(time, event), ...]}`` in file order. The parser in
``rmtlkit.data`` must give the same values, or raise the same exception
with the same message and row number, on every input, except for code
cells that are fractional or infinite: this form truncates the first
and raises ``OverflowError`` on the second, where the new parser raises
``RowError``. Nor does this form skip the byte-order mark at the start
of a text stream (only bytes and paths decode as ``utf-8-sig``), where
the parser skips it for every source: a text stream with a BOM is
checked against this form run on the file's UTF-8 bytes.
"""

import csv
import io

import numpy as np

from rmtlkit.data import (
    EVENT_CENSORED,
    EVENT_COMPETING,
    EVENT_INTEREST,
    GROUP_CONTROL,
    GROUP_TREATMENT,
)
from rmtlkit.errors import RowError, SchemaError


def _parse_csv_rows(
    source,
    time_col,
    event_col,
    group_col,
    event_codes=None,
    group_codes=None,
):
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, str):
        handle = open(source, "r", encoding="utf-8-sig", newline="")
        close = True
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8-sig")
        handle = io.StringIO(raw)
        close = False
    else:
        handle = io.StringIO(str(source))
        close = False

    event_map = {str(k): v for k, v in (event_codes or {}).items()}
    group_map = {str(k): v for k, v in (group_codes or {}).items()}

    by_group = {}
    try:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for col in (time_col, event_col, group_col):
            if col is not None and col not in header:
                raise SchemaError(col)
        for rownum, row in enumerate(reader, start=1):
            raw_time = (row.get(time_col) or "").strip()
            try:
                t = float(raw_time)
            except ValueError:
                raise RowError(rownum, f"non-numeric time {raw_time!r}") from None
            if not np.isfinite(t):
                raise RowError(rownum, f"non-finite time {raw_time!r}")
            if t < 0:
                raise RowError(rownum, f"negative time {raw_time!r}")

            raw_event = (row.get(event_col) or "").strip()
            raw_event = event_map.get(raw_event, raw_event)
            try:
                e = int(float(raw_event))
            except (ValueError, TypeError):
                raise RowError(rownum, f"non-numeric event code {raw_event!r}") from None
            if e not in (EVENT_CENSORED, EVENT_INTEREST, EVENT_COMPETING):
                raise RowError(rownum, f"event code {e} outside {{0,1,2}}")

            if group_col is None:
                g = GROUP_CONTROL
            else:
                raw_group = (row.get(group_col) or "").strip()
                raw_group = group_map.get(raw_group, raw_group)
                try:
                    g = int(float(raw_group))
                except (ValueError, TypeError):
                    raise RowError(
                        rownum, f"non-numeric group code {raw_group!r}"
                    ) from None
                if g not in (GROUP_CONTROL, GROUP_TREATMENT):
                    raise RowError(rownum, f"group code {g} outside {{0,1}}")
            by_group.setdefault(g, []).append((t, e))
    finally:
        if close:
            handle.close()
    return by_group
