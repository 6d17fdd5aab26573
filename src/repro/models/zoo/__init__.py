"""Model zoo: every model referenced by the paper's Table 3.

Each module builds one model (or Supernet) as a shape-annotated
:class:`~repro.models.graph.ModelGraph`.  The scenario presets
(:mod:`repro.workloads.scenarios`) and the scenario generator's model pool
call the builders directly.
"""

from __future__ import annotations

from repro.models.zoo.fbnet import build_fbnet_c
from repro.models.zoo.ssd_mobilenet import build_ssd_mobilenet_v2
from repro.models.zoo.handpose import build_handposenet
from repro.models.zoo.once_for_all import build_once_for_all
from repro.models.zoo.kws import build_kws_res8
from repro.models.zoo.gnmt import build_gnmt
from repro.models.zoo.skipnet import build_skipnet
from repro.models.zoo.trailnet import build_trailnet
from repro.models.zoo.sosnet import build_sosnet
from repro.models.zoo.rapid_rl import build_rapid_rl
from repro.models.zoo.googlenet import build_googlenet_car
from repro.models.zoo.depth import build_focal_length_depth
from repro.models.zoo.edtcn import build_ed_tcn
from repro.models.zoo.vgg_voxceleb import build_vgg_voxceleb

__all__ = [
    "build_fbnet_c",
    "build_ssd_mobilenet_v2",
    "build_handposenet",
    "build_once_for_all",
    "build_kws_res8",
    "build_gnmt",
    "build_skipnet",
    "build_trailnet",
    "build_sosnet",
    "build_rapid_rl",
    "build_googlenet_car",
    "build_focal_length_depth",
    "build_ed_tcn",
    "build_vgg_voxceleb",
]
