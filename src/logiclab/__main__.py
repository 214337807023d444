"""``python -m logiclab``: the same command line as the ``logiclab`` script."""

from .cli import entry

entry()
