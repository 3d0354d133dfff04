"""Private set intersection over replicated, non-colluding databases.

The package layers, bottom to top: seeded randomness streams, uniform
symbol sampling and packed query vectors (``field``), the structural/cost mathematics (``params``),
the byte layout of every protocol message (``wire``), two private
retrieval schemes (``table_scheme`` for capacity-achieving joint retrieval,
``block_scheme`` for fixed message lengths), the intersection protocol
(``psi``), database servers with simulated and TCP backends
(``transport``), and exact privacy/reliability audits (``audit``).
"""

from .field import domain_rng, sample_uniform
from .params import (
    AlphaProfile,
    CostLedger,
    InfeasibleError,
    ParamError,
    SchemeParams,
    alpha_profile,
    cost_ledger,
    lspir_cost,
    mm_spir_capacity,
    psi_optimal_cost,
    repetition_factor,
)
from .psi import EntityConfig, IncidenceVector, PsiResult, generate_set, run_psi, to_incidence
from .storage import CommonRandomnessPool, MessageStore
from .table_scheme import QueryTable, build_query_table, decode
from .wire import ProtocolFault
from .block_scheme import BlockPlan, decode_blocks, plan_blocks

__all__ = [
    "AlphaProfile",
    "BlockPlan",
    "CommonRandomnessPool",
    "CostLedger",
    "EntityConfig",
    "IncidenceVector",
    "InfeasibleError",
    "MessageStore",
    "ParamError",
    "ProtocolFault",
    "PsiResult",
    "QueryTable",
    "SchemeParams",
    "alpha_profile",
    "build_query_table",
    "cost_ledger",
    "decode",
    "decode_blocks",
    "domain_rng",
    "generate_set",
    "lspir_cost",
    "mm_spir_capacity",
    "plan_blocks",
    "psi_optimal_cost",
    "repetition_factor",
    "run_psi",
    "sample_uniform",
    "to_incidence",
]

__version__ = "0.1.0"
