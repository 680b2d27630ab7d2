"""Tests for the din-format reader/writer."""

import io

import pytest

from repro.trace.io import dumps_din, load_din, loads_din, save_din
from repro.trace.reference import Reference, RefKind
from repro.trace.trace import Trace


def sample_trace():
    return Trace([0x100, 0x200, 0x300], [0, 1, 2], name="s")


class TestRoundTrip:
    def test_string_round_trip(self):
        trace = sample_trace()
        assert loads_din(dumps_din(trace)) == trace

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.din"
        save_din(sample_trace(), path)
        assert load_din(path) == sample_trace()

    def test_file_object_round_trip(self):
        buffer = io.StringIO()
        save_din(sample_trace(), buffer)
        buffer.seek(0)
        assert load_din(buffer) == sample_trace()

    def test_name_is_attached(self):
        trace = loads_din("2 100\n", name="mine")
        assert trace.name == "mine"


class TestFormat:
    def test_labels_follow_din_convention(self):
        text = dumps_din(sample_trace())
        lines = text.strip().splitlines()
        # 0=read, 1=write, 2=ifetch; our trace is ifetch, load, store.
        assert lines[0].startswith("2 ")
        assert lines[1].startswith("0 ")
        assert lines[2].startswith("1 ")

    def test_addresses_are_hex(self):
        assert "100" in dumps_din(Trace([0x100], [0]))

    def test_blank_lines_ignored(self):
        trace = loads_din("\n2 100\n\n2 104\n")
        assert len(trace) == 2

    def test_comments_ignored(self):
        trace = loads_din("# header\n2 100\n")
        assert len(trace) == 1

    def test_ifetch_kind_restored(self):
        trace = loads_din("2 abc\n")
        assert trace[0] == Reference(0xABC, RefKind.IFETCH)


class TestErrors:
    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown din label"):
            loads_din("9 100\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="expected"):
            loads_din("2 100 extra\n")

    def test_non_hex_address(self):
        with pytest.raises(ValueError, match="line 1"):
            loads_din("2 zzz\n")

    def test_non_integer_label(self):
        with pytest.raises(ValueError, match="line 1"):
            loads_din("x 100\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            loads_din("2 100\nbogus line here\n")

    def test_0x_prefixed_address_rejected(self):
        # int(x, 16) would happily accept this, but din does not.
        with pytest.raises(ValueError, match="malformed address"):
            loads_din("2 0x100\n")

    def test_sign_prefixed_address_rejected(self):
        with pytest.raises(ValueError, match="malformed address"):
            loads_din("2 -100\n")
        with pytest.raises(ValueError, match="malformed address"):
            loads_din("2 +100\n")

    def test_underscore_separated_address_rejected(self):
        with pytest.raises(ValueError, match="malformed address"):
            loads_din("2 1_00\n")

    def test_address_wider_than_64_bits_rejected(self):
        with pytest.raises(ValueError, match="line 2: address"):
            loads_din("2 100\n2 fffffffffffffffff\n")
        assert loads_din("2 ffffffffffffffff\n")[0].addr == 2**64 - 1

    def test_sign_prefixed_label_rejected(self):
        with pytest.raises(ValueError, match="malformed din label"):
            loads_din("+2 100\n")
        with pytest.raises(ValueError, match="malformed din label"):
            loads_din("-1 100\n")

    def test_plain_hex_still_accepted(self):
        trace = loads_din("2 00ff\n")
        assert trace[0].addr == 0xFF


class TestGzip:
    def test_gz_round_trip(self, tmp_path):
        path = tmp_path / "trace.din.gz"
        save_din(sample_trace(), path)
        assert load_din(path) == sample_trace()

    def test_gz_file_is_compressed(self, tmp_path):
        import gzip

        path = tmp_path / "trace.din.gz"
        save_din(sample_trace(), path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("2 ")

    def test_gz_smaller_for_long_traces(self, tmp_path):
        trace = Trace([0x1000 + 4 * (i % 50) for i in range(5000)], [0] * 5000)
        plain = tmp_path / "t.din"
        packed = tmp_path / "t.din.gz"
        save_din(trace, plain)
        save_din(trace, packed)
        assert packed.stat().st_size < plain.stat().st_size / 5

    def test_corrupt_gz_names_the_path(self, tmp_path):
        path = tmp_path / "broken.din.gz"
        path.write_bytes(b"this is not gzip data")
        with pytest.raises(ValueError, match="broken.din.gz"):
            load_din(path)

    def test_truncated_gz_raises_value_error(self, tmp_path):
        """Regression: a gzip stream cut mid-member used to escape as a
        raw EOFError, breaking the documented ValueError contract."""
        trace = Trace([0x1000 + 4 * (i % 50) for i in range(5000)], [0] * 5000)
        path = tmp_path / "cut.din.gz"
        save_din(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="cut.din.gz"):
            load_din(path)

    def test_gz_with_corrupt_deflate_body_raises_value_error(self, tmp_path):
        """A valid gzip header over a mangled deflate body surfaces as
        zlib.error inside the reader; that too must become ValueError."""
        trace = Trace([0x1000 + 4 * (i % 50) for i in range(5000)], [0] * 5000)
        path = tmp_path / "mangled.din.gz"
        save_din(trace, path)
        data = bytearray(path.read_bytes())
        for i in range(20, min(60, len(data))):  # stomp past the header
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="mangled.din.gz"):
            load_din(path)
