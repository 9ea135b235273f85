"""Qudit entanglement-swapping toolkit: generalized Bell/cat states, a
symbolic label-algebra engine certified by a dense state-vector oracle,
and an n-party secret-sharing protocol."""

from .catbell import (bell_state, cat_amplitudes, cat_state, cat_via_circuit,
                      expand_basis_in_bell, expand_basis_in_cat)
from .core import (MAX_AMPLITUDES, MAX_DIMENSION, pack_index, phase_exponent,
                   validate_dimension, zeta)
from .protocol import (InsufficientSharesError, PartyView, ProtocolConfig,
                       Transcript, collusion_counts, collusion_posterior,
                       enumerate_oracle_branches, make_party_views,
                       oracle_view_counts, recover_first_dit_pooled,
                       recover_rounds, recover_second_dit, round_blocks,
                       round_records, run_round,
                       transcript_to_json_dict)
from .statevec import (StateVector, apply_controlled_shift, apply_hadamard,
                       basis_state, hadamard_matrix, inner_product,
                       permute_to, project_onto, tensor)
from .swapcalc import (CatFragment, Register, SwapOutcome,
                       UnsupportedConfigurationError, bell_measure,
                       to_statevector, verify_swap_block,
                       verify_swap_identity)

__version__ = "1.0.0"

__all__ = [
    "MAX_AMPLITUDES", "MAX_DIMENSION", "StateVector",
    "CatFragment", "Register", "SwapOutcome", "UnsupportedConfigurationError",
    "InsufficientSharesError", "PartyView", "ProtocolConfig", "Transcript",
    "apply_controlled_shift", "apply_hadamard", "basis_state", "bell_measure",
    "bell_state", "cat_amplitudes", "cat_state", "cat_via_circuit",
    "collusion_counts", "collusion_posterior", "enumerate_oracle_branches",
    "expand_basis_in_bell", "expand_basis_in_cat", "hadamard_matrix",
    "inner_product", "make_party_views", "oracle_view_counts", "pack_index",
    "permute_to", "phase_exponent", "project_onto", "recover_first_dit_pooled",
    "recover_rounds", "recover_second_dit", "round_blocks", "round_records",
    "run_round", "tensor", "to_statevector", "transcript_to_json_dict",
    "validate_dimension", "verify_swap_block", "verify_swap_identity", "zeta",
]
