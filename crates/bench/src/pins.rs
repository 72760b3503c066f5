//! The pin table: the smoke checksums and rate floors the bench harnesses
//! enforce under `--smoke`, and the cross-process tests under `tests/`
//! re-derive. Each checksum is a pure function of the model and its
//! harness's fixed grid and seed, so two builds of the same simulator must
//! reproduce it bit for bit. A model change that moves one updates it here,
//! and only here, in the change that regenerates the goldens and says why.

/// `simulated_cycles_total` of [`baseline_grid`](crate::baseline_grid)`(true)`.
/// It moved from 9730746 when the MESI directory began charging coherence
/// traffic on the mesh; the parallel-ack invalidation model left it alone,
/// as smoke-scale transactions never have more than one concurrent ack.
pub const BASELINE_SMOKE: u64 = 9755096;

/// The stall cycles the smoke [`storm`](crate::storm) charges, identical on
/// the scalar reference and the batched reconfiguration path.
pub const STORM_SMOKE: u64 = 2778250;

/// `TenancyMatrix::checksum` of [`tenancy_grid`](crate::tenancy_grid)`(true)`.
pub const TENANCY_SMOKE: u64 = 17845519074244044958;

/// `FaultMatrix::checksum` of [`fault_grid`](crate::fault_grid)`(true)`.
pub const FAULTS_SMOKE: u64 = 12360661825985589235;

/// `AblationMatrix::checksum` of [`ablation_grid`](crate::ablation_grid)`(true)`.
pub const ABLATION_SMOKE: u64 = 1172886106034387684;

/// Floor on the smoke baseline's headline `accesses_per_sec`: it catches a
/// catastrophic hot-path regression, not runner noise.
pub const ACCESS_RATE_FLOOR: u64 = 400000;

/// Floor on the smoke storm's batched `reconfigs_per_sec`, with the same
/// slack.
pub const RECONFIG_RATE_FLOOR: u64 = 1000;
