"""ioscope: detection of coordinated-campaign signatures in publication
time series and source-influence networks.

Submodules: series, correlation, spectral, wavelet, templates, fractal,
agentsim, netimpact, rankfuse, cli. Importing the package loads none of
them, and so not numpy either: ``ioscope.cli`` sets numpy's BLAS
threads before numpy loads.
"""

__version__ = "0.1.0"

from .errors import IoscopeError

__all__ = ["__version__", "IoscopeError"]
