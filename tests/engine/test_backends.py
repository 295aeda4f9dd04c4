"""Unit tests for the execution backends."""

import pytest

from repro.engine.backends import (
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
    register_backend,
    resolve_backend_name,
)
from repro.errors import ConfigurationError


def _square(x):
    return x * x


class TestSerialBackend:
    def test_map_ordered(self):
        backend = SerialBackend()
        assert backend.map_ordered(_square, [1, 2, 3]) == [1, 4, 9]

    def test_initializer_runs(self):
        calls = []
        SerialBackend(initializer=calls.append, initargs=("ctx",))
        assert calls == ["ctx"]

    def test_empty_items(self):
        assert SerialBackend().map_ordered(_square, []) == []


class TestProcessBackend:
    def test_map_ordered_preserves_order(self):
        with ProcessBackend(2) as backend:
            assert backend.map_ordered(_square, list(range(20))) == [
                x * x for x in range(20)
            ]

    def test_close_idempotent(self):
        backend = ProcessBackend(2)
        backend.map_ordered(_square, [1])
        backend.close()
        backend.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)

    def test_uses_processes_flag(self):
        assert ProcessBackend(2).uses_processes
        assert not SerialBackend().uses_processes


class TestFactory:
    def test_auto_resolution(self):
        assert resolve_backend_name("auto", 1) == "serial"
        assert resolve_backend_name("auto", 4) == "process"
        assert resolve_backend_name("process", 1) == "process"

    def test_make_backend_names(self):
        assert make_backend("serial").name == "serial"
        assert make_backend("process", 2).name == "process"
        assert make_backend("auto", 1).name == "serial"

    def test_zero_workers_means_cpu_count(self):
        backend = make_backend("process", 0)
        assert backend.workers >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("quantum", 2)

    def test_thread_backend_is_gone(self):
        assert "thread" not in available_backends()
        with pytest.raises(ConfigurationError):
            make_backend("thread", 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("serial", -1)

    def test_register_custom_backend(self):
        class EchoBackend(SerialBackend):
            name = "echo"

        register_backend("echo", EchoBackend)
        try:
            assert "echo" in available_backends()
            assert make_backend("echo").name == "echo"
        finally:
            from repro.engine import backends as backends_module

            backends_module._BACKENDS.pop("echo", None)
