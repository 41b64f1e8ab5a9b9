"""Fuzz the CSV parser against the row loop and the ``csv.DictReader`` oracle.

    python tests/fuzz_csv.py --files 112000 --seed 1

Each file comes from the corpus of ``test_csv_parity.py`` (small, often
malformed, many with code maps) or of ``test_csv_clean.py`` (well formed,
no code maps), and half of them are then mutated: stray quotes, CR, LF and
CRLF, NUL, whitespace-only lines, BOMs, non-ASCII digits, ``_``, nan, inf,
300-digit numbers and long rows. A file is given as bytes, a binary or text
stream, a ``str`` or ``pathlib`` path, a path ending in ``.gz`` (sometimes
gzip-compressed) or a relative path shaped like a URL (``http://host/...``,
under a directory named ``http:``). Some files run with ``csv``'s field size
limit lowered to 5-60 characters, and some with the C reader's scan chunk
cut to a few characters, so a line crosses chunks.

``data._parse_csv_rows`` must give what the row loop (``data._read_rows``
on a fresh source) and ``csv_oracle`` give: byte-equal arrays, or the same
exception type, message and row number. numpy must never be handed a
relative or compressed path, and nothing may be fetched. The run stops at
the first difference, prints the file and exits 1; otherwise it prints its
counts, among them the files the C reader took. Pytest does not collect
this file.
"""

import argparse
import collections
import csv
import gzip
import os
import random
import sys
import tempfile
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import csv_oracle  # noqa: E402
import numpy as np  # noqa: E402
from test_csv_clean import _loop_groups, make_clean_case  # noqa: E402
from test_csv_parity import (  # noqa: E402
    SOURCES,
    _oracle_groups,
    _outcome,
    _parser_groups,
    _sources,
    _strict_int,
    make_case,
)

from rmtlkit import data  # noqa: E402

KINDS = SOURCES + ["gz-path", "url-path"]
PIECES = [
    '"', '""', '"', "\r", "\n", "\r\n", "\n\n", " ", "\t", " \n", "\x00", ",", ",,",
    "\ufeff", "\u0661", "_", "nan", "inf", "-", ".", "e", "1e999", "9" * 300, "\x0c",
    "\u2028", "\x85", "0", "1", "2", "x",
]


def mutate(rng, text):
    """``text`` with a few random insertions, deletions and replacements."""
    for _ in range(rng.choice([1, 1, 2, 3, 5])):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op < 2:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == 2:
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif op == 3:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        else:  # repeat a line, or make one long
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if rng.random() < 0.5:
                lines[i:i] = [lines[i]] * rng.randint(1, 20)
            else:
                lines[i] += ",y" * rng.randint(1, 40)
            text = "\n".join(lines)
    return text


def make_file(rng):
    """Text, parse arguments, source kind, field limit (or None) and scan chunk."""
    if rng.random() < 0.5:
        text, args = make_clean_case(rng)[:2]
    else:
        text, args, _ = make_case(rng)
        if rng.random() < 0.7:  # no code maps, so the C reader is tried
            args = args[:3] + (None, None)
    if rng.random() < 0.5:
        text = mutate(rng, text)
    limit = rng.randint(5, 60) if rng.random() < 0.15 else None
    chunk = rng.choice([1, 2, 3, 7, 64]) if rng.random() < 0.2 else 1 << 16
    return text, args, rng.choice(KINDS), limit, chunk


def file_sources(rng, text, kind, path):
    """(oracle source, loop source, parser source) for one file."""
    if kind in SOURCES:
        oracle, parser = _sources(text, kind, path)
        return oracle, _sources(text, kind, path)[0], parser
    name = "x.csv.gz" if kind == "gz-path" else "http://host/x.csv"
    payload = text.encode("utf-8")
    if kind == "gz-path" and rng.random() < 0.2:
        payload = gzip.compress(payload)
    Path(name).write_bytes(payload)
    return name, name, name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--files", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    fetched, feeds, reads = [], [], []

    def refuse(url, *a, **k):
        fetched.append(url)
        raise OSError("fuzz_csv.py fetches nothing")

    loadtxt, read_clean = np.loadtxt, data._read_clean

    def loadtxt_spy(fname, *a, **k):
        feeds.append(fname)
        return loadtxt(fname, *a, **k)

    def read_clean_spy(*a):
        columns = read_clean(*a)
        reads.append(columns is not None)
        return columns

    urllib.request.urlopen = refuse
    np.loadtxt = loadtxt_spy
    data._read_clean = read_clean_spy
    csv_oracle.int = _strict_int
    _strict_int.fired = 0
    default_limit, default_chunk = csv.field_size_limit(), data._CHUNK_CHARS

    rng = random.Random(args.seed)
    counts = collections.Counter()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("http:", "host").mkdir(parents=True)
        path = Path(work, "case.csv")
        for i in range(args.files):
            text, parse_args, kind, limit, chunk = make_file(rng)
            oracle_source, loop_source, source = file_sources(rng, text, kind, path)
            csv.field_size_limit(limit or default_limit)
            data._CHUNK_CHARS = chunk
            del feeds[:], reads[:]
            try:
                expected = _outcome(_oracle_groups, oracle_source, parse_args)
                loop = _outcome(_loop_groups, loop_source, parse_args)
                got = _outcome(_parser_groups, source, parse_args)
            finally:
                csv.field_size_limit(default_limit)
                data._CHUNK_CHARS = default_chunk
            bad_feed = [
                f for f in feeds
                if isinstance(f, (str, os.PathLike))
                and (not os.path.isabs(f) or str(f).endswith((".gz", ".bz2", ".xz", ".lzma")))
            ]
            if not (got == loop == expected) or bad_feed or fetched:
                print(f"file {i}: kind {kind}, args {parse_args}, limit {limit}, chunk {chunk}")
                print(f"text {text!r}")
                print(f"parser {got}\nloop   {loop}\noracle {expected}")
                print(f"numpy fed {feeds}, fetched {fetched}")
                return 1
            counts["files"] += 1
            counts[f"kind {kind}"] += 1
            counts["outcome " + (got[0].__name__ if isinstance(got, tuple) else "arrays")] += 1
            counts["lowered field limit"] += limit is not None
            counts["short scan chunk"] += chunk != default_chunk
            counts["C reader tried"] += bool(reads)
            counts["C reader took"] += any(reads)
            counts["C reader took, by path"] += any(reads) and isinstance(feeds[-1], str)
            counts["C reader took, lowered limit"] += any(reads) and limit is not None
            counts["C reader took, short chunk"] += any(reads) and chunk != default_chunk
        os.chdir(os.path.dirname(work))
    counts["strict int fired"] = _strict_int.fired
    for name, n in sorted(counts.items()):
        print(f"{name}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
