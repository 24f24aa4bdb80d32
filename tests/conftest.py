"""Shared test settings.

Property-based tests run under one fixed hypothesis profile: examples are
drawn from a fixed seed (`derandomize=True`), so every run checks the same
cases, and no per-example deadline applies on a slow or busy host.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("sleepysim", derandomize=True, deadline=None,
                              max_examples=300)
    settings.load_profile("sleepysim")
