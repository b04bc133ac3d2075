import os
import textwrap
import time

import pytest

from perfbench.sampler import LayerSampler, layer_of_path

BUSY = textwrap.dedent("""
    import time

    def spin(seconds, callback=None):
        end = time.process_time() + seconds
        x = 0
        while time.process_time() < end:
            x += 1
            if callback is not None:
                callback()
        return x
""")


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """A throwaway package laid out like the simulator's layers."""
    root = tmp_path / "fakerepro"
    for sub in ("hw", "net"):
        (root / sub).mkdir(parents=True)
        (root / sub / "__init__.py").write_text("")
        (root / sub / "busy.py").write_text(BUSY)
    (root / "__init__.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakerepro.hw.busy as hw_busy
    import fakerepro.net.busy as net_busy

    return str(root), hw_busy, net_busy


def test_layer_of_path():
    pkg = os.path.join(os.sep, "x", "repro")
    join = lambda *parts: os.path.join(pkg, *parts)  # noqa: E731
    assert layer_of_path(join("hw", "cache.py"), pkg) == "hw"
    assert layer_of_path(join("compiler", "runtime.py"), pkg) == "runtime"
    assert layer_of_path(join("compiler", "lower.py"), pkg) == "build"
    assert layer_of_path(join("core", "sharded.py"), pkg) == "rss"
    assert layer_of_path(join("core", "packetmill.py"), pkg) == "build"
    assert layer_of_path(join("click", "elements", "ip.py"), pkg) == "elements"
    assert layer_of_path(join("click", "driver.py"), pkg) == "driver"
    assert layer_of_path(join("dpdk", "pmd.py"), pkg) == "pmd"
    assert layer_of_path(join("net", "steering.py"), pkg) == "steering"
    assert layer_of_path(join("net", "trace.py"), pkg) == "trace"
    assert layer_of_path(join("perf", "loadlatency.py"), pkg) == "queue"
    assert layer_of_path(join("telemetry", "registry.py"), pkg) == "other"
    assert layer_of_path("<codegen:router/rt>", pkg) == "runtime"
    assert layer_of_path(os.path.join(os.sep, "usr", "lib", "random.py"),
                         pkg) is None


def test_busy_loops_are_attributed_to_their_layers(fake_package):
    root, hw_busy, net_busy = fake_package
    sampler = LayerSampler(root)
    with sampler:
        hw_busy.spin(0.6)
        # Time in a callback outside the package counts for the innermost
        # package frame below it: the net layer.
        net_busy.spin(0.3, callback=lambda: sum(range(20)))
    shares = sampler.shares_pct()
    assert sampler.total >= 20
    assert shares["hw"] > 45.0
    assert shares["trace"] > 15.0
    assert shares["hw"] > shares["trace"]
    assert shares["hw"] + shares["trace"] > 90.0


def test_sampler_restores_the_previous_handler(fake_package):
    import signal

    root, hw_busy, _ = fake_package
    before = signal.getsignal(signal.SIGPROF)
    sampler = LayerSampler(root)
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
    sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # Stopped: no more samples accrue.
    total = sampler.total
    hw_busy.spin(0.05)
    time.sleep(0.01)
    assert sampler.total == total
