"""Linear-time guards: an operation timed at size n and at 8n.

Linear code takes about 8 times as long at 8n and quadratic code about 64
times; the bound of 16 leaves room for host noise.  Each size takes the
minimum of 3 runs.
"""

from __future__ import annotations

import time

from bodytext.assembly import segment_sentences

RATIO_BOUND = 16


def _best_of_3(fn, arg) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def _ratio(fn, make, n) -> float:
    small, large = make(n), make(8 * n)
    return _best_of_3(fn, large) / _best_of_3(fn, small)


def _paragraph(chars: int) -> str:
    sentence = "Results improve by two points in Fig. 3 of the study. "
    return (sentence * (chars // len(sentence) + 1))[:chars]


def test_segment_sentences_linear():
    ratio = _ratio(segment_sentences, _paragraph, 40_000)
    assert ratio < RATIO_BOUND, f"8x longer paragraph took {ratio:.1f}x"
