"""Speech denoising with a sparsely-gated ensemble of specialist recurrent networks."""

__version__ = "0.1.0"
