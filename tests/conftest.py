"""One derandomized hypothesis profile without deadline, so property tests are reproducible."""

from hypothesis import settings

settings.register_profile("dqsim", derandomize=True, deadline=None)
settings.load_profile("dqsim")
