"""The JSON-lines log primitive under both journals.

Pins the on-disk format (one ``sort_keys`` JSON document per line), the
torn-tail report, and the cut that keeps a reopened log's next append
off a torn fragment.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.jsonlog import JsonLinesLog, read_json_lines

RECORDS = [{"b": 2, "a": 1}, {"id": 2, "data": {"z": [1, 2]}}]


def _encoded(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


class TestFormat:
    def test_one_sorted_json_document_per_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLinesLog(path)
        for record in RECORDS:
            log.append(record)
        log.close()
        assert path.read_text(encoding="utf-8") == _encoded(RECORDS)

    def test_append_is_visible_before_close(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLinesLog(path)
        log.append({"a": 1})
        log.sync()
        assert read_json_lines(path).records == [{"a": 1}]
        log.close()

    def test_keep_zero_starts_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS))
        JsonLinesLog(path).close()
        assert path.read_bytes() == b""


class TestRead:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS))
        lines = read_json_lines(path)
        assert lines.records == RECORDS
        assert lines.bad_line is None and not lines.torn
        assert lines.end(len(RECORDS)) == path.stat().st_size
        assert lines.end(0) == 0

    def test_torn_final_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS) + '{"a": ')
        lines = read_json_lines(path)
        assert lines.records == RECORDS
        assert lines.bad_line == 3 and lines.torn

    def test_unparseable_earlier_line_is_not_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"a": \n{"a": 3}\n')
        lines = read_json_lines(path)
        assert lines.records == [{"a": 1}]
        assert lines.bad_line == 2 and not lines.torn

    def test_blank_lines_carry_no_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        lines = read_json_lines(path)
        assert lines.records == [{"a": 1}, {"a": 2}]
        assert lines.lines == 4 and lines.bad_line is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        lines = read_json_lines(path)
        assert lines.records == [] and lines.lines == 0


class TestCut:
    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS) + '{"a": ')
        lines = read_json_lines(path)
        log = JsonLinesLog(path, keep=lines.end(len(lines.records)))
        log.append({"a": 3})
        log.close()
        assert path.read_text() == _encoded([*RECORDS, {"a": 3}])

    def test_refused_lines_are_cut_too(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS))
        log = JsonLinesLog(path, keep=read_json_lines(path).end(1))
        log.append({"a": 3})
        log.close()
        assert path.read_text() == _encoded([RECORDS[0], {"a": 3}])

    def test_unterminated_kept_line_gets_its_newline_back(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_encoded(RECORDS).rstrip("\n"))
        lines = read_json_lines(path)
        assert lines.records == RECORDS
        log = JsonLinesLog(path, keep=lines.end(len(lines.records)))
        log.append({"a": 3})
        log.close()
        assert path.read_text() == _encoded([*RECORDS, {"a": 3}])

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(st.dictionaries(st.text(max_size=4), st.integers()),
                        min_size=1, max_size=5),
        after=st.lists(st.dictionaries(st.text(max_size=4), st.integers()),
                       max_size=3),
        tear=st.floats(0.0, 1.0),
    )
    def test_tear_reopen_append_keeps_every_record(
        self, tmp_path_factory, before, after, tear
    ):
        """A kill anywhere inside the last append loses only that record."""
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        text = _encoded(before)
        last = len(json.dumps(before[-1], sort_keys=True)) + 1
        cut = len(text) - int(tear * last)
        path.write_text(text[:cut])
        lines = read_json_lines(path)
        log = JsonLinesLog(path, keep=lines.end(len(lines.records)))
        for record in after:
            log.append(record)
        log.close()
        survivors = before if cut >= len(text) - 1 else before[:-1]
        assert read_json_lines(path).records == [*survivors, *after]
