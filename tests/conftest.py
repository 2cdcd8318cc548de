"""Suite-wide test settings.

Hypothesis runs under one derandomized profile and keeps no example
database, so a property test draws the same examples on every run that
loads the same modules. The draws still depend on which modules a run
loads: Hypothesis (6.155) mixes constants mined from every loaded local
module, tests and package alike, into its examples and has no public
setting to turn that off. A property that passes when its own module runs
alone may fail in the full suite, and the other way round.
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
