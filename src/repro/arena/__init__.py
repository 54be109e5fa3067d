"""Tournament harness racing search strategies under equal budgets."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "tournament": (
        "ArenaEntry", "EntryOutcome", "TOURNAMENT_FORMAT_VERSION",
        "TournamentResult", "run_tournament",
    ),
})
