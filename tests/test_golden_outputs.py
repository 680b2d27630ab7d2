"""Golden-output tests: formats that must stay stable.

These pin the exact text of the cheap, deterministic reports so
accidental format regressions (column drift, renamed labels) are
caught.  Only fully deterministic content is pinned.
"""

from repro.analysis.report import format_table
from repro.experiments import render_spec, run_spec


class TestSec3Golden:
    def test_exact_pattern_rows(self):
        rows = run_spec("sec3")
        observed = [
            (row.name, row.refs, row.dm_misses, row.de_misses, row.opt_misses)
            for row in rows
        ]
        assert observed == [
            ("between loops (a^10 b^10)^10", 200, 20, 20, 20),
            ("loop level (a^10 b)^10", 110, 20, 12, 11),
            ("within loop (a b)^10", 20, 20, 12, 11),
            ("three-way (a b c)^10", 30, 30, 30, 21),
        ]

    def test_report_text_snapshot(self):
        text = render_spec("sec3")
        assert "between loops (a^10 b^10)^10" in text
        assert "20 (paper 20)" in text
        assert "m_DM" in text


class TestTableFormatGolden:
    def test_exact_rendering(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 0.5]],
            title="T",
        )
        expected = (
            "T\n"
            "=\n"
            "     name  value\n"
            "---------  -----\n"
            "        a      1\n"
            "long-name  0.500"
        )
        assert text == expected


class TestCostModelGolden:
    def test_figure13_bit_counts(self):
        """The exact bit arithmetic behind the Figure 13 table."""
        from repro.caches.geometry import CacheGeometry
        from repro.core.cost import direct_mapped_bits, exclusion_overhead_bits

        geometry = CacheGeometry(8 * 1024, 16)
        assert direct_mapped_bits(geometry) == 75776
        assert exclusion_overhead_bits(geometry) == 2717
        overhead = exclusion_overhead_bits(geometry) / direct_mapped_bits(geometry)
        assert round(100 * overhead, 1) == 3.6  # paper: 3.4% (31-bit tags)
