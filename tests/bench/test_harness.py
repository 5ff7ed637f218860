"""Benchmark-harness unit tests (table rendering)."""

from repro.bench.harness import Table


class TestTable:
    def test_render_alignment(self):
        t = Table("title", ["name", "value"])
        t.add("a", 1.0)
        t.add("longer-name", 12.345)
        text = t.render()
        lines = text.split("\n")
        assert lines[0] == "title"
        assert "longer-name" in text
        assert "12.35" in text  # floats format to 2 decimals
        # the header, the rule and every row padded to the same width
        assert len({len(line) for line in lines[1:]}) == 1
        assert lines[1].startswith("name")

    def test_show_prints(self, capsys):
        t = Table("t", ["c"])
        t.add(42)
        t.show()
        out = capsys.readouterr().out
        assert "42" in out and "t" in out

