"""Fresh CLI reports against the committed golden reports, exactly: any
changed cell, metric or curve digest is named (``golden_reports.py``)."""

import json

import golden_reports
import pytest


@pytest.mark.parametrize("section", golden_reports.SECTIONS)
def test_reports_match_the_golden_files(section):
    want = json.loads(golden_reports.golden_path(section).read_text())
    changed = golden_reports.differences(want, golden_reports.build(section))
    assert not changed, f"{len(changed)} changed in {section}:\n" + "\n".join(changed)
