"""Weight-sharing Supernets with selectable subnet variants.

Once-for-All [4] trains one large "Supernet" whose sub-networks can be
extracted for different deployment points on the accuracy/compute
trade-off curve.  DREAM exploits this at run time (Section 4.5.1):
when the system is overloaded, the dispatch engine switches a Supernet
task to a lighter variant to shed load without dropping the frame.

A :class:`Supernet` groups the variant :class:`~repro.models.graph.ModelGraph`
objects, ordered from heaviest ("original", the default) to lightest, and
answers the queries the dispatch engine needs: the default variant, a
variant's position in the order, and the variant set for cost-table
construction.  The switching policy itself is
:meth:`repro.core.dispatch.JobDispatchEngine.choose_variant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.models.graph import ModelGraph


@dataclass(frozen=True)
class Supernet:
    """A family of weight-sharing model variants.

    Attributes:
        name: family name (e.g. ``"once_for_all"``).
        variants: variant graphs ordered heaviest first; the first entry is
            the "original" variant dispatched under light load.
    """

    name: str
    variants: tuple[ModelGraph, ...]

    def __post_init__(self) -> None:
        if len(self.variants) < 2:
            raise ValueError(
                f"supernet {self.name!r} needs at least two variants "
                f"(got {len(self.variants)})"
            )
        macs = [variant.total_macs for variant in self.variants]
        if any(later > earlier for earlier, later in zip(macs, macs[1:])):
            raise ValueError(
                f"supernet {self.name!r}: variants must be ordered from "
                f"heaviest to lightest (MACs {macs})"
            )
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"supernet {self.name!r} has duplicate variant names")

    def __len__(self) -> int:
        return len(self.variants)

    def __iter__(self) -> Iterator[ModelGraph]:
        return iter(self.variants)

    @property
    def default_variant(self) -> ModelGraph:
        """The heaviest ("original") variant, dispatched under light load."""
        return self.variants[0]

    def variant_index(self, variant_name: str) -> int:
        """Index of a variant by name (0 = heaviest).

        Raises:
            KeyError: if the name is not a variant of this supernet.
        """
        for index, variant in enumerate(self.variants):
            if variant.name == variant_name:
                return index
        raise KeyError(f"{variant_name!r} is not a variant of supernet {self.name!r}")
