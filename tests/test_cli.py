"""Command-line interface: subcommands, files, exit codes."""

import json

import pytest

from bodytext.cli import main
from fixtures import single_column, table_doc


@pytest.fixture()
def fixture_files(tmp_path):
    fx = single_column()
    (tmp_path / "doc.html").write_text(fx.html, encoding="utf-8")
    (tmp_path / "style.css").write_text(fx.css, encoding="utf-8")
    (tmp_path / "gold.txt").write_text(fx.gold, encoding="utf-8")
    return tmp_path, fx


def test_extract_writes_bt(fixture_files, capsys):
    tmp, fx = fixture_files
    out = tmp / "BT.txt"
    code = main(["extract", str(tmp / "doc.html"), "-o", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == fx.gold


def test_extract_css_flag_and_dumps(fixture_files):
    tmp, fx = fixture_files
    out = tmp / "out.txt"
    hist = tmp / "hist.csv"
    verdicts = tmp / "verdicts.jsonl"
    code = main(["extract", str(tmp / "doc.html"),
                 "--css", str(tmp / "style.css"), "-o", str(out),
                 "--dump-histogram", str(hist),
                 "--dump-verdicts", str(verdicts)])
    assert code == 0
    header, first = hist.read_text().splitlines()[:2]
    assert header == "x,count" and first == "0,0"
    rows = [json.loads(l) for l in verdicts.read_text().splitlines()]
    assert any(r["removed"] and "rule2" in r["reasons"] for r in rows)
    # line rows carry the backward scan's flags, null where no flag is set
    def flags(reason):
        return {(r["p_before"], r["p_after"]) for r in rows
                if r["level"] == "line" and reason in r["reasons"]}
    assert flags("rule2") == {(False, False)}
    assert flags("indent_gamma2") == {(None, None)}


def test_extract_threshold_override(fixture_files):
    tmp, fx = fixture_files
    out = tmp / "BT.txt"
    code = main(["extract", str(tmp / "doc.html"), "-o", str(out),
                 "--gamma2", "500", "--delta1", "4"])
    assert code == 0


def test_extract_config_file(fixture_files):
    tmp, fx = fixture_files
    conf = tmp / "thresholds.conf"
    conf.write_text("gamma2 = 55\n")
    out = tmp / "BT.txt"
    assert main(["extract", str(tmp / "doc.html"), "-o", str(out),
                 "--config", str(conf)]) == 0


@pytest.mark.parametrize("flags", [["--delta1", "nan"], ["--delta1", "inf"],
                                   ["--gamma2", "nan"], ["--config", "{conf}"]])
def test_extract_bad_thresholds_are_format_errors(fixture_files, flags):
    tmp, fx = fixture_files
    conf = tmp / "thresholds.conf"
    conf.write_text("gamma1 = -1\n")
    assert main(["extract", str(tmp / "doc.html"), "-o", str(tmp / "o.txt"),
                 *(f.format(conf=conf) for f in flags)]) == 2


def test_extract_empty_html_errors(tmp_path):
    empty = tmp_path / "empty.html"
    empty.write_text("", encoding="utf-8")
    code = main(["extract", str(empty), "-o", str(tmp_path / "o.txt")])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["extract"]) == 1
    assert main(["no-such-command"]) == 1


def test_eval_single_pair(fixture_files, capsys):
    tmp, fx = fixture_files
    out = tmp / "BT.txt"
    main(["extract", str(tmp / "doc.html"), "-o", str(out)])
    json_path = tmp / "report.json"
    code = main(["eval", str(out), str(tmp / "gold.txt"),
                 "--json", str(json_path)])
    assert code == 0
    table = capsys.readouterr().out
    assert "Sentences" in table
    payload = json.loads(json_path.read_text())
    assert payload["aggregate"]["sentences"]["f1"]["avg"] == 1.0


def test_eval_removed_sidecar(tmp_path, capsys):
    fx = table_doc()
    (tmp_path / "doc.html").write_text(fx.html, encoding="utf-8")
    (tmp_path / "style.css").write_text(fx.css, encoding="utf-8")
    (tmp_path / "gold.txt").write_text(fx.gold, encoding="utf-8")
    (tmp_path / "gold.txt.removed").write_text(
        "\n".join(fx.removed), encoding="utf-8")
    out = tmp_path / "BT.txt"
    main(["extract", str(tmp_path / "doc.html"), "-o", str(out)])
    assert main(["eval", str(out), str(tmp_path / "gold.txt")]) == 0
    assert "Text on tables/figures" in capsys.readouterr().out


def test_eval_odd_pairs_is_format_error(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("x\n")
    assert main(["eval", str(f)]) == 2


def test_highlight_roundtrip(fixture_files):
    tmp, fx = fixture_files
    sentence = fx.gold.splitlines()[0]       # first paragraph, one sentence
    out = tmp / "hl.html"
    code = main(["highlight", str(tmp / "doc.html"), "-o", str(out),
                 "--sentence", sentence, "--color", "#ff0000"])
    assert code == 0
    highlighted = out.read_text(encoding="utf-8")
    assert '<span class="hl" style="color:#ff0000">' in highlighted
    from bodytext.highlight import strip_highlights
    assert strip_highlights(highlighted) == fx.html.encode()


def test_highlight_missing_sentence_pipeline_error(fixture_files):
    tmp, fx = fixture_files
    code = main(["highlight", str(tmp / "doc.html"), "-o",
                 str(tmp / "x.html"), "--sentence", "not in the document.",
                 "--color", "#f00"])
    assert code == 3


def test_highlight_mismatched_colors(fixture_files):
    tmp, fx = fixture_files
    code = main(["highlight", str(tmp / "doc.html"), "-o",
                 str(tmp / "x.html"), "--sentence", "a", "--sentence", "b",
                 "--color", "#f00"])
    assert code == 2


def test_highlight_color_with_markup_is_format_error(fixture_files):
    tmp, fx = fixture_files
    code = main(["highlight", str(tmp / "doc.html"), "-o",
                 str(tmp / "x.html"), "--sentence", fx.gold.splitlines()[0],
                 "--color", 'red">x'])
    assert code == 2


def test_sweep_debug_stdout(fixture_files, capsys):
    tmp, fx = fixture_files
    assert main(["sweep-debug", str(tmp / "doc.html")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x,count\n")
    counts = {int(x): int(n) for x, n in
              (row.split(",") for row in out.splitlines()[1:])}
    assert counts[72] > 0 and max(counts, key=counts.get) == 72


def test_missing_input_file(tmp_path):
    assert main(["extract", str(tmp_path / "nope.html"),
                 "-o", str(tmp_path / "o.txt")]) == 2
