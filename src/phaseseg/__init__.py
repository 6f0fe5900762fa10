"""Surgical phase segmentation toolkit.

Multi-stage dual-dilated temporal convolutional model with hand-written
gradients, imbalance-aware losses, a monotone accumulator post-processor,
weak labels from timestamped operative notes, frame-level metrics and a
synthetic benchmark generator. The command line is `phaseseg.cli` (run it
as `phaseseg` or `python -m phaseseg`).
"""

from . import accumulator, annotate, evalmetrics, losses, mstcnpp, seqcore, synthgen, trainer

__version__ = "0.1.0"

__all__ = [
    "accumulator",
    "annotate",
    "evalmetrics",
    "losses",
    "mstcnpp",
    "seqcore",
    "synthgen",
    "trainer",
    "__version__",
]
