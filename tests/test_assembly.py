"""Paragraph assembly, dehyphenation, sentence segmentation, captions."""

from bodytext.assembly import (BodyText, Paragraph, assemble, dehyphenate,
                               emit, finalize_sentences, remove_captions,
                               segment_sentences)
from bodytext.highlight import build_stream
from bodytext.metrics import DocumentStats, Thresholds
from bodytext.postag import LexiconTagger
from bodytext.removal import RemovalLog
from helpers import line, single_column_model, tree

T = Thresholds()


def stats(base_ls=14):
    return DocumentStats(base_fs=12.0, base_ls=base_ls, base_cbd=40.0,
                         font_size_histogram={}, gap_histogram={})


def assemble_rows(rows, **kw):
    t = tree(rows)
    for ln in t.pages[0].lines:
        if ln.column_id is None:
            ln.column_id = 0
    return assemble(t, single_column_model(), stats(), T, **kw)


def test_uniform_gaps_one_paragraph():
    body = assemble_rows([line(["First line of text"], y=700),
                          line(["second line of text"], y=686),
                          line(["third line of text."], y=672)])
    assert [p.text for p in body.paragraphs] == [
        "First line of text second line of text third line of text."]


def test_gap_break():
    body = assemble_rows([line(["One paragraph ends."], y=700),
                          line(["Another starts here."], y=672)])
    assert len(body.paragraphs) == 2


def test_indent_break():
    body = assemble_rows([line(["flush previous line here."], y=700, x=72),
                          line(["Indented opener"], y=686, x=120),
                          line(["continues flush again."], y=672, x=72)])
    assert [p.text for p in body.paragraphs] == [
        "flush previous line here.",
        "Indented opener continues flush again."]


def test_column_jump_continues_paragraph():
    rows = [line(["The sentence starts on the left and"], y=700, x=72,
                 column_id=0),
            line(["finishes on the right."], y=700, x=312, column_id=1)]
    t = tree(rows)
    from helpers import two_column_model
    body = assemble(t, two_column_model(), stats(), T)
    assert [p.text for p in body.paragraphs] == [
        "The sentence starts on the left and finishes on the right."]


def test_gap_over_removed_material_breaks():
    # geometric condition survives a removal hole on the same page
    body = assemble_rows([line(["Text before a removed float ends here."],
                               y=700),
                          line(["Text after the hole starts fresh."], y=600)])
    assert len(body.paragraphs) == 2


def test_stream_provenance_covers_output():
    rows = [line(["ab cd", "ef"], y=700), line(["gh ij."], y=686)]
    body = assemble_rows(rows)
    t = tree(rows)
    blocks = list(t.blocks())
    for i, b in enumerate(blocks):
        b.index = i
    stream = build_stream(t, single_column_model())
    assert body.paragraphs[0].text == "ab cdef gh ij."
    assert "".join(e.char for e in stream) == body.paragraphs[0].text
    for e in stream:
        if e.b is None:
            # collapsed and inserted join spaces carry no provenance
            assert e.char == " " and e.t is None
        else:
            assert blocks[e.b].text[e.t] == e.char
    bs = [e.b for e in stream if e.b is not None]
    assert bs == sorted(bs)


def test_metamorphic_y_translation():
    rows_a = [line(["alpha beta gamma one"], y=700),
              line(["delta epsilon."], y=686),
              line(["New paragraph starts."], y=658)]
    rows_b = [line(["alpha beta gamma one"], y=500),
              line(["delta epsilon."], y=486),
              line(["New paragraph starts."], y=458)]
    texts_a = [p.text for p in assemble_rows(rows_a).paragraphs]
    texts_b = [p.text for p in assemble_rows(rows_b).paragraphs]
    assert texts_a == texts_b


# -- dehyphenation -----------------------------------------------------------

def test_dehyphenate_default():
    assert dehyphenate(["extrac-", "tion"]) == "extraction"


def test_dehyphenate_dictionary_keeps_compound():
    words = {"state-of-the-art"}
    assert dehyphenate(["state-", "of-the-art results"], words) == \
        "state-of-the-art results"
    assert dehyphenate(["state-", "of-the-art results"]) == \
        "stateof-the-art results"
    # a whitespace-only next line has no first word
    assert dehyphenate(["state-", "\u00a0"], words) == "state\u00a0"


def test_dehyphenate_plain_join():
    assert dehyphenate(["no hyphen", "next line"]) == "no hyphen next line"


def test_hyphen_before_whitespace_only_line_with_word_list():
    body = assemble_rows([line(["ends in state-"], y=700),
                          line(["\u00a0"], y=686),
                          line(["of the art."], y=672)],
                         hyphen_words={"state-of"})
    assert [p.text for p in body.paragraphs] == [
        "ends in state\u00a0 of the art."]


def test_no_output_line_ends_with_wrap_hyphen():
    body = assemble_rows([line(["broken frag-"], y=700),
                          line(["ment here."], y=686)])
    assert body.paragraphs[0].text == "broken fragment here."


# -- sentence segmentation ------------------------------------------------------

def test_segment_basic():
    assert segment_sentences("We ran tests. Results follow.") == [
        "We ran tests.", "Results follow."]


def test_segment_abbreviation_guard():
    assert segment_sentences("See Fig. 3 for details.") == [
        "See Fig. 3 for details."]


def test_segment_question():
    assert segment_sentences("Is it fast? Yes.") == ["Is it fast?", "Yes."]


def test_segment_initials_and_eg():
    assert segment_sentences("J. Smith wrote it, e.g. the draft.") == [
        "J. Smith wrote it, e.g. the draft."]


def test_segment_closing_quote():
    assert segment_sentences('He said "stop." Then we left.') == [
        'He said "stop."', "Then we left."]


# -- caption gate -----------------------------------------------------------------

def para(text):
    return Paragraph(text=text)


def test_caption_removed_when_third_word_not_verb():
    body = BodyText(paragraphs=[
        para("Figure 3. Architecture of the system."),
        para("Body prose stays.")])
    log = RemovalLog()
    remove_captions(body, LexiconTagger(), log)
    assert [p.text for p in body.paragraphs] == ["Body prose stays."]
    assert log.captions == ["Figure 3. Architecture of the system."]


def test_caption_kept_when_verb():
    body = BodyText(paragraphs=[
        para("Table 2 shows the full results across corpora.")])
    remove_captions(body, LexiconTagger(), RemovalLog())
    assert len(body.paragraphs) == 1


def test_caption_trigger_requires_number():
    body = BodyText(paragraphs=[para("Figures were produced offline.")])
    remove_captions(body, LexiconTagger(), RemovalLog())
    assert len(body.paragraphs) == 1


def test_caption_tagger_failure_fails_open():
    class Exploding:
        def tag(self, word, position):
            raise RuntimeError("boom")

    body = BodyText(paragraphs=[para("Figure 1. Overview of stages.")])
    log = RemovalLog()
    remove_captions(body, Exploding(), log)
    assert len(body.paragraphs) == 1
    assert log.warnings


def test_caption_capitalized_result_noun():
    body = BodyText(paragraphs=[para("Figure 4. Results of the ablation.")])
    remove_captions(body, LexiconTagger(), RemovalLog())
    assert body.paragraphs == []


# -- emit --------------------------------------------------------------------------

def test_emit_format():
    body = BodyText(paragraphs=[para("First paragraph."),
                                para("Second paragraph.")])
    assert emit(body) == b"First paragraph.\n\nSecond paragraph.\n"


def test_emit_empty():
    assert emit(BodyText()) == b""


def test_finalize_sentences_spans():
    body = assemble_rows([line(["One sentence here. And a second"], y=700),
                          line(["one that wraps."], y=686)])
    finalize_sentences(body)
    sents = [s.text for s in body.paragraphs[0].sentences]
    assert sents == ["One sentence here.", "And a second one that wraps."]
