"""Hypothesis profiles.

`ci` draws the same examples on every run and keeps no example database,
so that a run cannot replay a failure found by an earlier one. Select it
with `pytest --hypothesis-profile=ci`; local runs keep random draws.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
