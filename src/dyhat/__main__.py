"""``python -m dyhat``: the same command line as the ``dyhat`` script."""

from .cli import main

if __name__ == "__main__":
    main()
