"""``python -m delayedbp <subcommand>``: the command-line front end."""

from .cli import main

main()
