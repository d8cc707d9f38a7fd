"""Detector tests start from a cold verdict memo and zeroed counters.

Run-count assertions (``runs``, ``case_memo_hits``, ``fingerprint_hits``)
measure what one test's own questions cost, and determinism checks must
compare real executions; an answer another test left in the process-wide
memo would satisfy both without interpreting anything.
"""

import pytest

from repro.miri import CASE_MEMO, DETECTOR_STATS


@pytest.fixture(autouse=True)
def cold_verdict_memo():
    CASE_MEMO.clear()
    DETECTOR_STATS.reset()
    yield
    CASE_MEMO.clear()
    CASE_MEMO.enabled = True
