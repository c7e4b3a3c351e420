"""Hypothesis profiles chosen on the pytest command line.

``--hypothesis-profile=config-fuzz`` runs the config fuzz
(``test_suite_cli.test_every_drawn_config_passes_at_refine_0``) at 2000
draws instead of the few that every tier-1 run makes.
"""

from hypothesis import settings

settings.register_profile("config-fuzz", max_examples=2000)
