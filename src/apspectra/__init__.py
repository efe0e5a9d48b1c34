"""Almost-periodicity and diffraction laboratory for integer symbolic sequences."""

__version__ = "0.1.0"
