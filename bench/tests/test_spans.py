"""The tracer's spans, self times and FFT counts on a toy module."""

import threading
import types

import numpy as np

from spans import Tracer, layer_totals


def test_spans_self_time_and_threads():
    mod = types.SimpleNamespace(__name__="toy")
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(mod, "inner", "toy.inner")
    tracer.wrap(mod, "outer", "toy.outer")
    tracer.wrap(mod, "gone", "toy.gone")
    assert tracer.absent == ["toy.gone"]

    mod.outer()  # inactive: nothing recorded
    assert tracer.harvest()[0] == []

    tracer.active = True
    with tracer.span("round"):
        mod.outer()
        worker = threading.Thread(target=mod.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    tracer.active = False
    spans, _, _ = tracer.harvest()
    tot = layer_totals(spans)
    assert tot["toy.outer"]["calls"] == 1 and tot["toy.inner"]["calls"] == 4
    outer = tot["toy.outer"]
    by_name = {s[1]: s for s in spans}
    main_inner_ns = sum(s[3] - s[2] for s in spans if s[1] == "toy.inner" and s[4] == by_name["toy.outer"][0])
    assert outer["self_ns"] == outer["ns"] - main_inner_ns
    # the thread's span hangs under the main thread's open span but is not
    # subtracted from it
    round_span = by_name["round"]
    thread_span = [s for s in spans if s[5] != round_span[5]]
    assert len(thread_span) == 1 and thread_span[0][4] == round_span[0]
    assert tot["round"]["self_ns"] == tot["round"]["ns"] - outer["ns"]


def test_fft_counts_and_computed_bytes():
    fake = types.SimpleNamespace(fft=np.fft.fft, ifft=np.fft.ifft, rfft=np.fft.rfft, irfft=np.fft.irfft)
    tracer = Tracer()
    tracer.wrap_fft(fake)
    x = np.ones(8)
    fake.fft(x)
    tracer.active = True
    fake.fft(x)                 # 8 complex in, 8 complex out
    fake.irfft(fake.rfft(x))    # 8 real -> 5 complex -> 8 real
    tracer.active = False
    _, calls, nbytes = tracer.harvest()
    assert calls == 3
    assert nbytes == (16 * 8 + 16 * 8) + (8 * 8 + 16 * 5) + (16 * 5 + 8 * 8)
