"""Handle shutdown after an out-of-band ``server.stop()``, under contention.

Both front-ends run on a background event loop whose thread ends when
the server has stopped.  A caller that stops the server directly and
then calls ``handle.stop()`` (or leaves the handle's ``with`` block)
must get a prompt, clean return, whatever point of the loop's teardown
that call lands on.  CPU-burning threads stretch the teardown window so
every iteration lands somewhere different.
"""

import asyncio
import time

import pytest

from repro.serving import start_http_thread, start_server_thread

ITERATIONS = 30
#: A clean stop takes milliseconds; a stop waiting on a coroutine that
#: never runs takes the whole handle timeout.
STOP_TIMEOUT = 5.0


@pytest.mark.parametrize(
    "start", [start_server_thread, start_http_thread], ids=["socket", "http"]
)
def test_handle_stop_after_out_of_band_stop(contention, start):
    for iteration in range(ITERATIONS):
        handle = start(max_sessions=1, queue_workers=1, event_capacity=0)
        asyncio.run_coroutine_threadsafe(
            handle.server.stop(), handle._loop
        ).result(timeout=STOP_TIMEOUT)
        if iteration % 2:
            # Land some calls later in the teardown as well.
            time.sleep(0.001 * (iteration % 5))
        started = time.monotonic()
        handle.stop(timeout=STOP_TIMEOUT)
        assert time.monotonic() - started < STOP_TIMEOUT
        assert not handle._thread.is_alive()
