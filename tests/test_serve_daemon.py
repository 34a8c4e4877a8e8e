"""Tests for the CLI's drain signal.

``repro fabric --checkpoint`` runs under a
:class:`~repro.runner.sharded.DrainSignal`: the first SIGINT/SIGTERM
asks the run to stop at the next epoch barrier (exit 3), a second one
interrupts it at once, and the previous handlers come back on exit.
"""

import os
import signal
import threading

import pytest

from repro.runner.sharded import DrainSignal


class TestDrainSignal:
    def test_first_signal_sets_flag(self):
        with DrainSignal() as drain:
            assert not drain.triggered
            os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered
            assert drain.signame == "SIGINT"

    def test_second_signal_raises(self):
        with DrainSignal() as drain:
            os.kill(os.getpid(), signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with DrainSignal():
            pass
        assert signal.getsignal(signal.SIGINT) is before

    def test_inert_off_main_thread(self):
        seen = {}

        def target():
            with DrainSignal() as drain:
                seen["triggered"] = drain.triggered

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert seen == {"triggered": False}
