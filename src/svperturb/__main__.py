"""``python -m svperturb <scenario> ...``: the same command line as ``svperturb``."""

from .harness import cli

if __name__ == "__main__":
    cli()
