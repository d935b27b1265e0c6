"""Jobs that fail on purpose, for the harness tests."""

import os
import signal

from workloads import Job, Op


def _ok(state):
    return 1


def _raise(state):
    raise ValueError("injected failure")


def _crash(state):
    os.kill(os.getpid(), signal.SIGSEGV)


def _reject(value, state):
    raise AssertionError("injected check failure")


def _accept(value, state):
    pass


def failing(seed, workdir):
    """ok, raises, fails its check, kills its process, never reached."""
    return Job(
        setup=dict,
        warmup=lambda state: None,
        ops=[
            Op("ok", _ok, _accept),
            Op("raises", _raise, _accept),
            Op("bad_result", _ok, _reject),
            Op("segfault", _crash, _accept),
            Op("after_crash", _ok, _accept),
        ],
    )


def crashing_setup(seed, workdir):
    return Job(setup=lambda: _crash({}), warmup=lambda state: None, ops=[Op("ok", _ok, _accept)])
