"""``python -m biblioforge``: the command line, as the ``biblioforge`` script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
