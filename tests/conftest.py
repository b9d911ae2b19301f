"""Shared test configuration: one hypothesis profile for every property test."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "krawlp", max_examples=300, deadline=None, derandomize=True, database=None
    )
    settings.load_profile("krawlp")
