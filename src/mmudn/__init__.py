"""mmudn: a verification lab for millimeter-wave overlaid ultra-dense networks.

Modules:
  pointprocess — PPP sampling, association, scheduling
  blockage     — 2D/3D blockage parameters and LOS distances from building stats
  analytic_se  — closed-form SE asymptotics and bounds for both tiers
  allocation   — TDD UL/DL resource allocation with mmW UL decoupling
  simulator    — Monte Carlo SIR/SE estimation validating the closed forms
  cli          — batch front end (``mmudn`` console script)

Every public name lives in its home module and is imported from there
(``from mmudn.simulator import SimConfig``), so ``import mmudn`` loads no
module beyond this one.  numpy is the package's only runtime dependency.
"""

__version__ = "0.1.0"
