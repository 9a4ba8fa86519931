"""``python -m latticebound``: the command-line interface."""

from .cli import run

run()
