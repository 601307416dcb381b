//! Correctness values pinned per seed: the default seed (0) and one
//! held-out seed (7) that was not used while tuning the benchmark, so a
//! later claim can be rechecked on a seed it was not written against.
//! They apply at full scale only.

use crate::{Params, Scale, Workload};

/// `(workload, seed, digest)`: the digest each workload prints for its
/// outputs — a search sweep's outcomes, the predicted labels of the
/// inference stream, or every drained job's `.ccqpack` bytes.
const PINS: &[(Workload, u64, u64)] = &[
    (Workload::SearchHedge, 0, 0x84cd_b520_f099_c71c),
    (Workload::SearchHedge, 7, 0xa971_8d20_c71c_6b0e),
    (Workload::SearchOneshot, 0, 0xcb68_1367_1b59_58be),
    (Workload::SearchOneshot, 7, 0xcc73_30b5_4918_8cd2),
    (Workload::InferPacked, 0, 0x0c94_d3c9_3667_a994),
    (Workload::InferPacked, 7, 0x0c2f_a94e_d42f_5217),
    (Workload::ServeDrain, 0, 0x8e12_598a_7fc8_6bc0),
    (Workload::ServeDrain, 7, 0x8084_620d_5a3e_2497),
];

/// The pinned digest for this run's workload and seed.
pub fn digest(p: &Params) -> Option<u64> {
    PINS.iter()
        .find(|(w, s, _)| p.scale == Scale::full() && *w == p.workload && *s == p.seed)
        .map(|(_, _, d)| *d)
}
