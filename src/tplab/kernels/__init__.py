"""Closed-form covariances, variances, spectral densities, and
asymptotic expansions for the tempered process families."""

from .params import (FracOUParams, HurstProfile, MixtureParams,
                     TmbmParams, TwoIndexParams)
from .fou import fou_cov, fou_local_expansion, fou_spectral, fou_var
from .tfbm import (ms_normalization_factor, tfbm_cov, tfbm_cov_from_ct,
                   tfbm_ct_coefficient, tfbm_gram, tfbm_increment_cov,
                   tfbm_increment_spectral, tfbm_lrd_plateau, tfbm_var)
from .mixed import mixed_cov
from .twoindex import (twoindex_cov, twoindex_cov_tail_series,
                       twoindex_increment_var, twoindex_smalltime_incvar,
                       twoindex_spectral, twoindex_var)
from .tmbm import tmbm_cov, tmbm_gram, tmbm_mou_cov
from .tfgn import tfgn_cov, tfgn_cross_cov

__all__ = [
    "FracOUParams", "HurstProfile", "MixtureParams", "TmbmParams",
    "TwoIndexParams",
    "fou_cov", "fou_local_expansion", "fou_spectral",
    "fou_var", "ms_normalization_factor", "tfbm_cov", "tfbm_cov_from_ct",
    "tfbm_ct_coefficient", "tfbm_gram", "tfbm_increment_cov",
    "tfbm_increment_spectral", "tfbm_lrd_plateau", "tfbm_var",
    "mixed_cov", "twoindex_cov", "twoindex_cov_tail_series",
    "twoindex_increment_var", "twoindex_smalltime_incvar",
    "twoindex_spectral", "twoindex_var", "tmbm_cov", "tmbm_gram",
    "tmbm_mou_cov", "tfgn_cov", "tfgn_cross_cov",
]
