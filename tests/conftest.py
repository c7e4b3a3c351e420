"""Hypothesis profiles chosen on the pytest command line.

``--hypothesis-profile=config-fuzz`` runs the config fuzz
(``test_suite_cli.test_every_drawn_config_passes_at_refine_0``) and the
public API fuzz (``test_api_contract.test_public_api_returns_or_raises_contract_error``,
per public name) at 2000 draws instead of the few that every tier-1 run
makes.
"""

from hypothesis import settings

settings.register_profile("config-fuzz", max_examples=2000)
