"""Max-load experiments for the hash family ((a*x + b) mod p) mod m."""

# The only name defined at the package root; every other name is imported
# from the module that defines it.  experiments writes the version into every
# CSV preamble, and pyproject.toml reads the package version from here.
__version__ = "0.1.0"
