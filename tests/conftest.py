"""Test-suite configuration: hypothesis draws the same examples on every run."""

from hypothesis import settings

# Derandomized, with no example database: every run of the suite tries the
# same examples, so a property test passes or fails the same way each time
# and leaves no ``.hypothesis/`` directory behind.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
