"""Test configuration: a hypothesis profile for longer property runs.

``pytest --hypothesis-profile=thorough`` gives every property that sets no
example count of its own ten times hypothesis's default of 100 examples.
Without the option hypothesis's default profile applies.  A property that
sets ``max_examples`` keeps its own count under either profile.
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=1000)
