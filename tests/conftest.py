"""Hypothesis profiles. The default profile keeps the local tier-1 run
short; CI selects the "ci" profile with --hypothesis-profile=ci, which
draws ten times as many examples for every property test that does not
set its own count."""
from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
