import pytest

from layers import MAIN, accounting_gap
from spans import Span, Tracer, covered, self_times, totals_by_name


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([(2, 3), (0, 5)], 1, 4) == 3
    assert covered([], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 9.0, 0),
        Span("c", 2.0, 5.0, 1),
    ]
    assert self_times(spans) == [2.0, 5.0, 3.0]


def test_self_time_with_overlapping_children():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
        Span("c", 8.0, 12.0, 0),  # runs past its parent; only 8..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)
    totals = totals_by_name(spans)
    assert totals["b"] == {"s": 6.0, "self_s": 6.0, "calls": 2, "bytes": 0}


def test_tracer_nests_spans_and_accounts_for_main(tmp_path):
    tracer = Tracer()
    out = tmp_path / "out.txt"

    def write(path, text):
        if path != "-":  # "-" is stdout in haarq
            with open(path, "w") as fh:
                fh.write(text)

    traced_write = tracer.wrap("write", write, path_arg=0)

    def work():
        traced_write(str(out), "12345")
        traced_write("-", "")  # no file, so no size recorded
        return 7

    assert tracer.wrap(MAIN, work)() == 7
    main, first, second = tracer.spans
    assert (main.parent, first.parent, second.parent) == (None, 0, 0)
    assert (first.bytes, second.bytes) == (5, None)
    totals = totals_by_name(tracer.spans)
    assert totals["write"]["calls"] == 2
    assert accounting_gap(totals) == pytest.approx(0.0, abs=1e-12)
