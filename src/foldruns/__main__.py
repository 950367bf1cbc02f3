"""`python -m foldruns`: the command-line front end of `cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
