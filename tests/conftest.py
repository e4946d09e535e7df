"""Settings shared by every test module."""

from hypothesis import settings

# every run draws the same examples (no random seed, no example database) and
# no example is failed for being slow, so the suite is deterministic and free
# of timing flakes on a loaded machine
settings.register_profile("icessm", derandomize=True, database=None,
                          max_examples=100, deadline=None)
settings.load_profile("icessm")
