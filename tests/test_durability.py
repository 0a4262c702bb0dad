"""The durable JSON-lines log behind the checkpoint journal and the WAL.

Both files are written through :class:`repro.core.durability.JsonlLog`;
these tests pin their exact bytes and attack them byte by byte.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.durability import JsonlLog, replace_atomically
from repro.core.errors import ConfigError
from repro.runtime import CheckpointJournal
from repro.service.wal import RequestLog

FP = {"campaign": "pinned", "n_shards": 2, "seed": 7,
      "params": {"trials": 10}, "task": "tests.tasks.draw"}

SHARDS = (
    {"index": 1, "status": "ok", "attempts": 1, "result": {"value": 42}},
    {"index": 0, "status": "failed", "attempts": 3,
     "taxonomy": "convergence", "message": "stalled", "progress": 0.5},
)

#: A journal of FP + SHARDS, byte for byte as every version of the
#: format has written it.
JOURNAL_BYTES = (
    b'{"campaign": {"campaign": "pinned", "n_shards": 2, "params": '
    b'{"trials": 10}, "seed": 7, "task": "tests.tasks.draw"}, "digest": '
    b'"d30e9ca512eef0c9", "type": "header", "version": 1}\n'
    b'{"attempts": 1, "index": 1, "result": {"value": 42}, "status": '
    b'"ok", "type": "shard"}\n'
    b'{"attempts": 3, "index": 0, "message": "stalled", "progress": 0.5, '
    b'"status": "failed", "taxonomy": "convergence", "type": "shard"}\n'
)

#: The WAL of two admits and one done (see write_wal).
WAL_BYTES = (
    b'{"type": "header", "version": 1}\n'
    b'{"config": {"bpw": 8, "words": 64}, "id": "r00000001", "key": "'
    + b"a" * 64 + b'", "march_name": "IFA-9", "march_notation": '
    b'"{x(w0)}", "signoff": null, "type": "admit"}\n'
    b'{"config": {"bpw": 4, "words": 128}, "id": "r00000002", "key": "'
    + b"b" * 64 + b'", "march_name": "IFA-9", "march_notation": '
    b'"{x(w0)}", "signoff": "strict", "type": "admit"}\n'
    b'{"id": "r00000001", "status": "ok", "type": "done"}\n'
)

#: Bytes that break any line of ASCII JSON they replace one byte of:
#: non-ASCII (invalid UTF-8 here) and the control characters JSON
#: allows neither inside nor between tokens.
BAD_BYTES = sorted(set(range(0x80, 0x100))
                   | set(range(0x00, 0x20)) - {0x09, 0x0A, 0x0D})


def write_journal(path):
    journal = CheckpointJournal(path)
    journal.open(FP)
    for shard in SHARDS:
        journal.record(shard)
    journal.close()


def write_wal(path):
    with RequestLog(path) as log:
        first = log.admit(key="a" * 64, config={"words": 64, "bpw": 8},
                          march_name="IFA-9", march_notation="{x(w0)}")
        log.admit(key="b" * 64, config={"words": 128, "bpw": 4},
                  march_name="IFA-9", march_notation="{x(w0)}",
                  signoff="strict")
        log.done(first, "ok")


def resume_journal(path):
    journal = CheckpointJournal(path)
    try:
        return journal.open(FP, resume=True)
    finally:
        journal.close()


def open_wal(path):
    log = RequestLog(path)
    try:
        return log.open()
    finally:
        log.close()


def complete_lines(data: bytes, cut: int):
    """The JSON records of the newline-terminated lines in data[:cut]."""
    return [json.loads(line) for line in data[:cut].split(b"\n")[:-1]]


def pending_of(records):
    pending = {}
    for record in records:
        if record["type"] == "admit":
            pending[record["id"]] = {k: v for k, v in record.items()
                                     if k != "type"}
        elif record["type"] == "done":
            pending.pop(record["id"], None)
    return list(pending.values())


class TestPinnedBytes:
    def test_journal_bytes(self, tmp_path):
        write_journal(tmp_path / "j.jsonl")
        assert (tmp_path / "j.jsonl").read_bytes() == JOURNAL_BYTES

    def test_wal_bytes(self, tmp_path):
        write_wal(tmp_path / "w.jsonl")
        assert (tmp_path / "w.jsonl").read_bytes() == WAL_BYTES

    def test_pinned_files_load(self, tmp_path):
        (tmp_path / "j.jsonl").write_bytes(JOURNAL_BYTES)
        assert resume_journal(tmp_path / "j.jsonl") == {
            shard["index"]: shard for shard in SHARDS}
        (tmp_path / "w.jsonl").write_bytes(WAL_BYTES)
        assert [r["id"] for r in open_wal(tmp_path / "w.jsonl")] == \
            ["r00000002"]


class TestTruncation:
    """A cut at any byte returns exactly the complete lines before it."""

    def test_journal_cut_at_every_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header_end = JOURNAL_BYTES.index(b"\n") + 1
        for cut in range(len(JOURNAL_BYTES) + 1):
            path.write_bytes(JOURNAL_BYTES[:cut])
            if cut < header_end:
                with pytest.raises(ConfigError, match="header"):
                    resume_journal(path)
                continue
            expected = {r["index"]: {k: v for k, v in r.items()
                                     if k != "type"}
                        for r in complete_lines(JOURNAL_BYTES, cut)[1:]}
            assert resume_journal(path) == expected, cut

    def test_wal_cut_at_every_offset(self, tmp_path):
        path = tmp_path / "w.jsonl"
        header_end = WAL_BYTES.index(b"\n") + 1
        for cut in range(len(WAL_BYTES) + 1):
            path.write_bytes(WAL_BYTES[:cut])
            expected = ([] if cut < header_end else
                        pending_of(complete_lines(WAL_BYTES, cut)[1:]))
            assert open_wal(path) == expected, cut
            if cut < header_end:  # a fresh log was started
                assert path.read_bytes() == WAL_BYTES[:header_end]

    def test_jsonl_log_records_match_complete_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path, 1, "log", types=("admit", "done"))
        for cut in range(len(WAL_BYTES) + 1):
            path.write_bytes(WAL_BYTES[:cut])
            lines = complete_lines(WAL_BYTES, cut)
            loaded = log.load()
            if not lines:
                assert loaded is None
            else:
                assert loaded == (lines[0], lines[1:]), cut

    def test_resume_after_torn_tail_appends_on_a_fresh_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(JOURNAL_BYTES + b'{"type": "shard", "ind')
        journal = CheckpointJournal(path)
        journal.open(FP, resume=True)
        journal.record({"index": 2, "status": "ok"})
        journal.close()
        assert path.read_bytes() == \
            JOURNAL_BYTES + b'{"index": 2, "status": "ok", "type": "shard"}\n'
        assert sorted(resume_journal(path)) == [0, 1, 2]


def _replace_one_byte(data: bytes, choice, bad: int) -> bytes:
    """Replace one byte of a non-final line (its newline included)."""
    ends = [i for i, b in enumerate(data) if b == 0x0A]
    line = choice(range(len(ends) - 1))
    start = ends[line - 1] + 1 if line else 0
    offset = choice(range(start, ends[line] + 1))
    return data[:offset] + bytes([bad]) + data[offset + 1:]


class TestCorruption:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), bad=st.sampled_from(BAD_BYTES),
           which=st.sampled_from(["journal", "wal"]))
    def test_one_bad_byte_before_the_final_line_is_refused(
            self, tmp_path, data, bad, which):
        original, load = ((JOURNAL_BYTES, resume_journal)
                          if which == "journal" else (WAL_BYTES, open_wal))
        path = tmp_path / f"{which}.jsonl"
        path.write_bytes(_replace_one_byte(
            original, lambda seq: data.draw(st.sampled_from(seq)), bad))
        with pytest.raises(ConfigError):
            load(path)

    def test_non_utf8_mid_file_is_a_config_error(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(JOURNAL_BYTES.replace(b'"ok"', b'"\xffk"'))
        with pytest.raises(ConfigError, match="corrupt at line 2"):
            resume_journal(journal)
        wal = tmp_path / "w.jsonl"
        wal.write_bytes(WAL_BYTES.replace(b'"IFA-9"', b'"IFA\xe9"', 1))
        with pytest.raises(ConfigError, match="corrupt at line 2"):
            open_wal(wal)

    def test_non_utf8_in_the_torn_tail_is_forgiven(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(JOURNAL_BYTES + b'{"type": "sh\xff')
        assert sorted(resume_journal(journal)) == [0, 1]
        wal = tmp_path / "w.jsonl"
        wal.write_bytes(WAL_BYTES + b'{"type": "done", "id": "r\xff')
        assert [r["id"] for r in open_wal(wal)] == ["r00000002"]

    def test_unknown_record_type_is_refused(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(JOURNAL_BYTES.replace(b'"shard"', b'"share"', 1))
        with pytest.raises(ConfigError, match="unknown record type"):
            resume_journal(journal)
        wal = tmp_path / "w.jsonl"
        wal.write_bytes(WAL_BYTES.replace(b'"done"', b'"dome"'))
        with pytest.raises(ConfigError, match="unknown record type"):
            open_wal(wal)

    def test_shard_record_without_int_index_is_refused(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(JOURNAL_BYTES.replace(b'"index": 1',
                                                  b'"index": "1"'))
        with pytest.raises(ConfigError, match="int index"):
            resume_journal(journal)

    def test_wal_record_without_string_id_is_refused(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        wal.write_bytes(WAL_BYTES.replace(b'"id": "r00000001", "status"',
                                          b'"id": 1, "status"'))
        with pytest.raises(ConfigError, match="string id"):
            open_wal(wal)


class TestReplaceAtomically:
    def test_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "lease.json"
        path.write_text("old", "utf-8")
        replace_atomically(path, "new")
        assert path.read_text("utf-8") == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["lease.json"]
