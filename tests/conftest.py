"""Fixtures shared across the suite."""

import os
import stat

import pytest


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` from here on, in order: ``"dir"`` or ``"file"``
    by what the synced descriptor is (the call still goes through)."""
    synced = []
    real = os.fsync

    def fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced
