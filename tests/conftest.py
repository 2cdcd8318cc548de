"""Suite-wide test settings.

Hypothesis runs under one derandomized profile: every property test draws
the same examples on every run and keeps no example database, so the
suite's outcome is the same from any checkout.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "derandomized",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("derandomized")
