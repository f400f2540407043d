"""mmudn: a verification lab for millimeter-wave overlaid ultra-dense networks.

Modules:
  pointprocess — PPP sampling, association, scheduling, Voronoi cell law
  blockage     — 2D/3D blockage parameters and LOS distances from building stats
  analytic_se  — closed-form SE asymptotics and bounds for both tiers
  allocation   — TDD UL/DL resource allocation with mmW UL decoupling
  simulator    — Monte Carlo SIR/SE estimation validating the closed forms
  cli          — batch front end (``mmudn`` console script)

The re-exported names below load their home module on first access, so
``import mmudn`` (and the CLI behind it) pulls in numpy only for the modules a
caller actually uses.  numpy is the package's only runtime dependency.
"""

from importlib import import_module

__version__ = "0.1.0"

# Re-exported name -> home module.
_EXPORTS = {
    "NetworkParams": "analytic_se",
    "SEBounds": "analytic_se",
    "Allocation": "allocation",
    "RatePair": "allocation",
    "RegionLabel": "allocation",
    "SpectrumParams": "allocation",
    "BlockageParams": "blockage",
    "BuildingStats": "blockage",
    "Window": "pointprocess",
    "SEEstimate": "simulator",
    "SimConfig": "simulator",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
