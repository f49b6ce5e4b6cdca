"""Classification of smooth lattice polytopes with few lattice points.

The package enumerates, in dimensions 2 and 3, all smooth lattice polytopes
with at most N lattice points, by walking blow-up trees of smooth complete
fans and solving for the compatible facet right-hand sides.  See README.md
for the command line interface and the overall pipeline.
"""

__version__ = "0.1.0"


class InvariantError(AssertionError):
    """An internal invariant of the classification failed.

    Raised explicitly, so the check also runs under python -O; subclassing
    AssertionError keeps the command line's exit code 3 for it.
    """
