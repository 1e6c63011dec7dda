"""Self-contained optimization engines: dense simplex LP and interior-point SDP."""

from .lp import TOL, LpProblem, LpResult, lp_solve
from .sdp import SdpProblem, SdpResult, sdp_solve
