"""Construction kit and verification lab for seeded, non-malleable and
multi-source randomness extraction, with exact-rational oracles at
micro scale."""

from .bits import BitString, RowMatrix, blocks, concat, matrix, slice_bits
from .prob import (Dist, flat, from_counts, from_weights, min_entropy,
                   point_mass, sample_flat_source, stat_distance,
                   stat_distance_maps, uniform, xor_bit_dists)
from .sext import (ExtScheme, affine_scheme, avg_case_bound, ext,
                   lhl_bound, poly_scheme, sample_positions)
from .altx import LevelPlan, look_ahead
from .nipm import (NipmParams, ParamError, assembled_bound, hand_plan,
                   lt_nipm, plan_nipm, recursive_nipm)
from .ipm import IpmParams, ipm_weak, micro_ipm
from .cbreak import (AdvGenParams, FlipFlopParams, adv_gen, flip_flop,
                     plan_adv_gen)
from .nmx import (NmExtParams, NominalPlan, desk_params, micro_params,
                  nm_ext, plan_params)
from .msrc import (MultiParams, SyntheticGenerator, default_params,
                   exact_majority_prob_one, majority, majority_bias_bound,
                   make_generator, multi_ext, reduce_bits)
from .pamp import (Adversary, PampParams, SecurityReport, hoeffding_ci,
                   mac_tag, make_params, run_protocol,
                   security_experiment)
from . import verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
