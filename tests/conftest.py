"""Test-session set-up: one fixed hypothesis profile for every test here.

``derandomize=True`` draws each test's examples from a seed derived from
the test itself, and ``database=None`` keeps no ``.hypothesis/`` store of
earlier failures to replay, so every checkout draws the same examples on
every run. A test's own ``@settings`` still sets its example count and
deadline on top of this profile.
"""

from hypothesis import settings

settings.register_profile("odkit", derandomize=True, database=None)
settings.load_profile("odkit")
