"""Suite-wide hypothesis settings: every run draws the same examples.

Per-test @settings keep their own max_examples and inherit the rest from
this profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
