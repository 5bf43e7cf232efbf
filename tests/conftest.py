"""The default hypothesis profile of the suite: no deadline (the algebra
and lattice examples vary widely in cost), no example database and
derandomized examples, so every run draws the same examples.  A test's
``@settings`` sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("default", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("default")
