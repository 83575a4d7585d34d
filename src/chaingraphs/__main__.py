"""``python -m chaingraphs``: the ``chaingraphs`` command."""

from .cli import main

main()
