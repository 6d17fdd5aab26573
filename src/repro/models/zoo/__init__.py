"""Model zoo: every model referenced by the paper's Table 3.

Each module builds one model (or Supernet) as a shape-annotated
:class:`~repro.models.graph.ModelGraph`.  :data:`MODEL_BUILDERS` maps
user-facing names to builder callables for convenient programmatic access;
:func:`build_model` instantiates by name.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.models.graph import ModelGraph
from repro.models.supernet import Supernet

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

BuilderResult = Union[ModelGraph, Supernet]

#: Registry of model builders keyed by zoo name.
MODEL_BUILDERS: dict[str, Callable[[], BuilderResult]] = {
    "fbnet_c_gaze": build_fbnet_c,
    "ssd_mobilenet_v2": build_ssd_mobilenet_v2,
    "handposenet": build_handposenet,
    "once_for_all": build_once_for_all,
    "kws_res8": build_kws_res8,
    "gnmt": build_gnmt,
    "skipnet": build_skipnet,
    "trailnet": build_trailnet,
    "sosnet": build_sosnet,
    "rapid_rl": build_rapid_rl,
    "googlenet_car": build_googlenet_car,
    "focal_length_depth": build_focal_length_depth,
    "ed_tcn": build_ed_tcn,
    "vgg_voxceleb": build_vgg_voxceleb,
}


def build_model(name: str, **kwargs) -> BuilderResult:
    """Instantiate a zoo model by name.

    Args:
        name: a key of :data:`MODEL_BUILDERS`.
        **kwargs: forwarded to the specific builder (resolution overrides...).

    Raises:
        KeyError: if the name is not in the zoo.
    """
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(**kwargs)


__all__ = [
    "MODEL_BUILDERS",
    "build_model",
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
