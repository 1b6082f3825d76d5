"""``python -m fockdual``: the command-line interface of `fockdual.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
