"""The computational-bounds layer (paper Sections 4.1–4.5).

The paper formalizes computational indistinguishability by bounding both the
*description* (bit-string encodings of states, actions, transitions,
configurations) and the *running time* of the Turing machines that decode
and execute an automaton.  This package realizes that layer with a
deterministic cost model over real bit-string encodings (see DESIGN.md §5
for the substitution note):

* :mod:`repro.bounded.encoding` — canonical encodings ``<q>``, ``<a>``,
  ``<tr>``, ``<C>``;
* :mod:`repro.bounded.costmodel` — reference decoders (``M_start``,
  ``M_sig``, ``M_trans``, ``M_step``, ``M_state``; ``M_conf``,
  ``M_created``, ``M_hidden`` for PCA) whose operation counts define the
  time bound ``b``, and ``operation_counts``, which computes those counts
  from encoding lengths;
* :mod:`repro.bounded.bounds` — measuring ``b`` for PSIOA/PCA
  (Definitions 4.1/4.2), recognizability bounds (Definition 4.4) and the
  composition/hiding lemmas (4.3, 4.5, B.1–B.3);
* :mod:`repro.bounded.families` — indexed families of automata and
  schedulers with polynomial bound profiles (Definitions 4.7–4.11).
"""

from repro.bounded.encoding import encode_bits, encoded_length, encode_state, encode_action, encode_transition, encode_configuration
from repro.bounded.costmodel import CostMeter, ReferenceDecoders
from repro.bounded.bounds import (
    measure_time_bound,
    measure_pca_time_bound,
    is_time_bounded,
    recognizer_bound,
    composition_constant,
    hiding_constant,
)
from repro.bounded.families import (
    PSIOAFamily,
    SchedulerFamily,
    compose_families,
    bound_profile,
    polynomial_bound_profile,
)

__all__ = [
    "encode_bits",
    "encoded_length",
    "encode_state",
    "encode_action",
    "encode_transition",
    "encode_configuration",
    "CostMeter",
    "ReferenceDecoders",
    "measure_time_bound",
    "measure_pca_time_bound",
    "is_time_bounded",
    "recognizer_bound",
    "composition_constant",
    "hiding_constant",
    "PSIOAFamily",
    "SchedulerFamily",
    "compose_families",
    "bound_profile",
    "polynomial_bound_profile",
]
