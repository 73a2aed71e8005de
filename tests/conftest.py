"""Test-wide settings: hypothesis draws the same examples on every run and
host, and no example fails for being slow."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
